"""A row-by-row CSV writer, kept as a reference for `jsonio.csv_text`.

This is the package's original table writer: it spells each cell on its own
(None empty, booleans true/false, strings raw, floats at 12 significant
digits or with repr when `Exact`, integers in decimal) and hands every row to
csv.writer. csv.writer quotes a field holding "\\n" but not one holding "\\r"
when the line end is "\\n", so rows with a "\\r" are written fully quoted.
"""

import csv
import io

from selcert.jsonio import Exact


def cell_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(float(value)) if isinstance(value, Exact) else format(float(value), ".12g")
    return value


def csv_text_rowwise(columns: dict) -> str:
    handle = io.StringIO()
    plain = csv.writer(handle, lineterminator="\n")
    quoted = csv.writer(handle, lineterminator="\n", quoting=csv.QUOTE_ALL)
    plain.writerow(list(columns))
    for row in zip(*columns.values()):
        row = [cell_text(value) for value in row]
        (quoted if "\r" in "".join(row) else plain).writerow(row)
    return handle.getvalue()
