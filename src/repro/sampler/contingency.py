"""Contingency tables over iteration-snapshot hashes (Section V-C1).

Rows are output classes (e.g. key bit 0/1); columns are the unique snapshot
hashes observed for one microarchitectural feature; cells count how often
each hash occurred for each class — exactly Table II of the paper.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class ContingencyTable:
    """Class-by-hash frequency table."""

    classes: tuple
    hashes: tuple
    counts: tuple  # counts[i][j] = occurrences of hashes[j] in classes[i]

    @property
    def n_rows(self) -> int:
        return len(self.classes)

    @property
    def n_cols(self) -> int:
        return len(self.hashes)

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def row_totals(self) -> tuple:
        return tuple(sum(row) for row in self.counts)

    def column_totals(self) -> tuple:
        return tuple(map(sum, zip(*self.counts)))

    def is_degenerate(self) -> bool:
        """True when association is undefined (one class or one hash)."""
        return self.n_rows < 2 or self.n_cols < 2

    def render(self, max_columns: int = 8) -> str:
        """Human-readable rendering (for reports and examples)."""
        shown = min(self.n_cols, max_columns)
        header = ["class \\ hash"] + [
            f"{self.hashes[j]:#018x}"[:10] for j in range(shown)
        ]
        if shown < self.n_cols:
            header.append(f"... (+{self.n_cols - shown})")
        lines = ["  ".join(header)]
        for i, cls in enumerate(self.classes):
            row = [f"{cls!s:>12}"] + [f"{self.counts[i][j]:>10}" for j in range(shown)]
            lines.append("  ".join(row))
        return "\n".join(lines)


def label_rows(labels) -> tuple:
    """``(sorted classes, row index of each label)`` for tables over
    ``labels`` — computed once when many columns share the labels."""
    class_values = tuple(sorted(set(labels)))
    class_index = {c: i for i, c in enumerate(class_values)}
    return class_values, [class_index[label] for label in labels]


def build_contingency_table(labels, hashes, *,
                            rows=None) -> ContingencyTable:
    """Build a contingency table from parallel (label, hash) observations.

    ``rows`` optionally passes :func:`label_rows` of ``labels``.
    """
    if len(labels) != len(hashes):
        raise ValueError("labels and hashes must have equal length")
    class_values, row_of = rows if rows is not None else label_rows(labels)
    hash_values = sorted(set(hashes))
    hash_index = {h: j for j, h in enumerate(hash_values)}
    counts = [[0] * len(hash_values) for _ in class_values]
    for row, snapshot_hash in zip(row_of, hashes):
        counts[row][hash_index[snapshot_hash]] += 1
    return ContingencyTable(
        classes=tuple(class_values),
        hashes=tuple(hash_values),
        counts=tuple(tuple(row) for row in counts),
    )


def hash_frequency(labels, hashes) -> dict:
    """Per-class Counter of hash frequencies (diagnostic helper)."""
    out: dict = {}
    for label, snapshot_hash in zip(labels, hashes):
        out.setdefault(label, Counter())[snapshot_hash] += 1
    return out
