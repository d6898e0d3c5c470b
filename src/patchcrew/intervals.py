"""1-based inclusive line intervals and their normal form.

Line ranges are carried around as sets of ``[start, end]`` intervals, both
ends inclusive, numbering from 1 (the convention diff hunks use). The
normal form is sorted and pairwise disjoint; adjacent-but-disjoint
intervals are allowed to remain separate.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LineIntervalSet:
    """An ordered collection of 1-based inclusive line intervals."""

    intervals: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for start, end in self.intervals:
            if start < 1:
                raise ValueError(f"interval start must be >= 1, got [{start},{end}]")
            if end < start:
                raise ValueError(f"interval end before start: [{start},{end}]")

    @classmethod
    def of(cls, *pairs: tuple[int, int]) -> "LineIntervalSet":
        return cls(tuple((int(s), int(e)) for s, e in pairs))

    def is_empty(self) -> bool:
        return not self.intervals

    def line_count(self) -> int:
        """Total number of covered lines. Only meaningful on normalized sets."""
        return sum(e - s + 1 for s, e in self.intervals)

    def clamped(self, max_line: int) -> "LineIntervalSet":
        """Clamp every interval to [1, max_line]; intervals entirely out of
        bounds are dropped."""
        kept = []
        for s, e in self.intervals:
            if s > max_line:
                continue
            kept.append((s, min(e, max_line)))
        return LineIntervalSet(tuple(kept))


def normalize(intervals: LineIntervalSet) -> LineIntervalSet:
    """Sort intervals and merge overlaps so the result is pairwise disjoint.

    The set of covered line numbers is unchanged. Adjacent intervals
    ([1,2],[3,4]) are left as-is; only genuine overlaps merge.
    """
    if not intervals.intervals:
        return intervals
    ordered = sorted(intervals.intervals)
    merged: list[tuple[int, int]] = [ordered[0]]
    for start, end in ordered[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return LineIntervalSet(tuple(merged))
