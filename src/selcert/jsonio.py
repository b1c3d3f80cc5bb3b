"""Deterministic JSON rendering for report-style outputs.

Reports, certificates and manifests must be byte-identical across runs, so
floats are printed at a fixed 12 significant digits and key order follows
insertion order (never sorted behind the caller's back). A float wrapped in
`Exact` is printed with repr instead, so it loads back bit for bit; that is
for values a reader acts on, such as certified thresholds. Dataset files are
not rendered here; they keep full float precision for exact round-trips.
"""

from __future__ import annotations

import json
import math
from typing import Any


class Exact(float):
    """A float that `dumps` renders with repr, so it round-trips exactly."""


def format_number(x: float) -> str:
    """Render a float at 12 significant digits, or with repr if it is `Exact`."""
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite number in output: {x!r}")
    return repr(float(x)) if isinstance(x, Exact) else format(float(x), ".12g")


def dumps(obj: Any, indent: int = 2) -> str:
    """Serialize to JSON text with fixed float formatting.

    Accepts None, bool, int, float, str, list/tuple and dict (string keys,
    insertion order preserved). Ends with a newline.
    """
    out: list[str] = []
    _render(obj, out, indent, 0)
    out.append("\n")
    return "".join(out)


def _render(obj: Any, out: list[str], indent: int, level: int) -> None:
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_number(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append(inner)
            _render(item, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (key, value) in enumerate(items):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {type(key).__name__}")
            out.append(inner + json.dumps(key) + ": ")
            _render(value, out, indent, level + 1)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")
