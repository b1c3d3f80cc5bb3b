"""Seeded benchmark inputs, drawn with numpy alone.

The program under test never generates its own inputs here: every dataset is
drawn by this module from the workload seed and handed over as a CSV file, so
a change to the program cannot change what it is measured on.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

# The scorer of the CLI workloads: prevalence 0.3, positives ~ Beta(4, 2),
# negatives ~ Beta(2, 4). Its confidences put lambda_hat near 0.63 at
# alpha = beta = 0.1, mid-grid, with up to ~1.9k errors per grid point.
PREVALENCE = 0.3
POS_SHAPE = (4.0, 2.0)
NEG_SHAPE = (2.0, 4.0)
# The weaker second scorer of the paired bootstrap comparison.
WEAK_POS_SHAPE = (3.0, 2.0)
WEAK_NEG_SHAPE = (2.0, 3.0)
N_GROUPS = 8


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for one input file of one workload."""
    return np.random.default_rng([seed, *path])


def labels_for(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.random(n) < PREVALENCE).astype(np.int64)


def scores_for(rng: np.random.Generator, labels: np.ndarray, pos=POS_SHAPE, neg=NEG_SHAPE) -> np.ndarray:
    n = len(labels)
    return np.where(labels == 1, rng.beta(pos[0], pos[1], n), rng.beta(neg[0], neg[1], n))


def draw(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    labels = labels_for(rng, n)
    return scores_for(rng, labels), labels


def write_csv(path: Path, scores: np.ndarray, labels: np.ndarray, groups: np.ndarray | None = None) -> None:
    """Write id,score,label[,group] with scores in shortest exact form."""
    header = "id,score,label" + (",group" if groups is not None else "")
    ids = range(len(scores))
    if groups is None:
        rows = [f"r{i},{s!r},{y}" for i, s, y in zip(ids, scores.tolist(), labels.tolist())]
    else:
        rows = [
            f"r{i},{s!r},{y},g{g}"
            for i, s, y, g in zip(ids, scores.tolist(), labels.tolist(), groups.tolist())
        ]
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def read_csv(path: Path) -> dict[str, list[str]]:
    """Columns of a CSV file as lists of strings, keyed by header name."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    return {name: [row[j] for row in body] for j, name in enumerate(header)}


def read_dataset(path: Path) -> tuple[list[str], np.ndarray, np.ndarray, list[str] | None]:
    """Ids, scores, labels and (if present) groups of a dataset file."""
    cols = read_csv(path)
    scores = np.array(cols["score"], dtype=float)
    labels = np.array(cols["label"], dtype=np.int64)
    return cols["id"], scores, labels, cols.get("group")
