"""A row-by-row decisions reader, kept as a reference for `read_decisions`.

This is the package's original reader loop: it checks each row in turn, in
the order field count, empty id, repeated id, outcome, confidence (parse
and range alike), and stops at the first failure. It reads files with the
package's `read_text` and the reference loader's `csv_rows`, which calls
csv.reader itself. The vectorised reader must raise the same error class,
message, row and column, and load the same decisions.
"""

from rowwise_loader import csv_rows, number_cell, parse_number
from selcert import Decisions, DuplicateIdError, SchemaError
from selcert.records import read_text


def read_decisions_rowwise(path) -> Decisions:
    rows = csv_rows(read_text(path))
    if not rows or rows[0] != ["id", "outcome", "confidence"]:
        raise SchemaError("decisions header must be id,outcome,confidence")
    decisions = []
    seen = set()
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != 3:
            raise SchemaError(f"expected 3 fields, got {len(row)}", row=i)
        rec_id, outcome, conf_text = row
        if not rec_id:
            raise SchemaError("id must be a nonempty string, got ''", row=i, column="id")
        if rec_id in seen:
            raise DuplicateIdError(f"duplicate record id {rec_id!r} at row {i}")
        seen.add(rec_id)
        if outcome == "abstain":
            prediction = -1
        elif outcome in ("0", "1"):
            prediction = int(outcome)
        else:
            raise SchemaError(f"outcome must be 0, 1 or abstain (-1 in code), got {number_cell(outcome)}",
                              row=i, column="outcome")
        bad_confidence = SchemaError(f"confidence must be a number within [0.5, 1], got {number_cell(conf_text)}",
                                     row=i, column="confidence")
        try:
            conf = parse_number(conf_text)
        except ValueError:
            raise bad_confidence from None
        if not (0.5 <= conf <= 1.0):
            raise bad_confidence
        decisions.append((rec_id, prediction, conf))
    return Decisions(*[list(column) for column in zip(*decisions)] or [[], [], []])
