"""`python -m selcert`: the same command line as the `selcert` script."""

from .cli import entrypoint

entrypoint()
