"""Quantitative measures over changes and evaluation outcomes.

The overlap ratio compares where two changes touch a file: the modified
line intervals of both are normalized, pairwise intersections are summed,
and the total is divided by the reference side's line count. Interval sets
are pooled per file path across a whole change; lines in different files
never intersect.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..diffs import CodeChange, modified_old_range
from ..intervals import LineIntervalSet, normalize


def _shared_lines(a: LineIntervalSet, b: LineIntervalSet) -> int:
    """Lines in both sets; each side must already be normalized."""
    return sum(max(0, min(e1, e2) - max(s1, s2) + 1)
               for s1, e1 in a.intervals for s2, e2 in b.intervals)


def overlap_ratio(ref: LineIntervalSet, gen: LineIntervalSet) -> float:
    """Shared line count over reference line count, both sides normalized.
    Raises ValueError when the reference is empty (the ratio is undefined
    and the instance should be reported as not-applicable)."""
    ref_n = normalize(ref)
    denom = ref_n.line_count()
    if denom == 0:
        raise ValueError("overlap_ratio undefined for an empty reference")
    return _shared_lines(ref_n, normalize(gen)) / denom


def change_intervals(change: CodeChange) -> dict[str, LineIntervalSet]:
    """Modified old-file line intervals per file path, normalized."""
    out: dict[str, LineIntervalSet] = {}
    for fd in change.file_diffs:
        spans = tuple(modified_old_range(h) for h in fd.hunks)
        if spans:
            out[fd.path] = normalize(LineIntervalSet(spans))
    return out


def change_overlap_ratio(ref: CodeChange, gen: CodeChange) -> float | None:
    """Overlap ratio pooled across files: intersections count only within
    the same path; the denominator is the reference's total line count.
    None when the reference touches no lines."""
    ref_iv = change_intervals(ref)
    gen_iv = change_intervals(gen)
    denom = sum(iv.line_count() for iv in ref_iv.values())
    if denom == 0:
        return None
    shared = sum(_shared_lines(r, gen_iv[path])
                 for path, r in ref_iv.items() if path in gen_iv)
    return shared / denom


@dataclass(frozen=True)
class ComplexityIndices:
    n_files: int
    n_functions: int
    n_hunks: int
    added_loc: int
    deleted_loc: int
    changed_loc: int
    change_start_index: int
    change_end_index: int

    def __post_init__(self):
        if self.changed_loc != self.added_loc + self.deleted_loc:
            raise ValueError("changed_loc must equal added_loc + deleted_loc")
        if self.changed_loc and self.change_start_index > self.change_end_index:
            raise ValueError("change_start_index must not exceed change_end_index")


@dataclass(frozen=True)
class InstanceOutcome:
    instance_id: str
    generated: bool
    applied: bool
    t_old_passed: bool
    t_new_passed: bool
    overlap_ratio: float | None
    complexity: ComplexityIndices

    def __post_init__(self):
        if self.applied and not self.generated:
            raise ValueError("an applied change must have been generated")

    @property
    def resolved(self) -> bool:
        return self.applied and self.t_old_passed and self.t_new_passed


def complexity_of(change: CodeChange) -> ComplexityIndices:
    """Size indices of a change. Function count uses distinct non-empty
    hunk section headings per file; a file without headings counts as one
    function. Start/end indices are the smallest and largest old-file line
    numbers any hunk modifies."""
    n_files = len(change.file_diffs)
    n_hunks = sum(len(fd.hunks) for fd in change.file_diffs)
    added = deleted = 0
    n_functions = 0
    start = end = 0
    spans: list[tuple[int, int]] = []
    for fd in change.file_diffs:
        sections = {h.section for h in fd.hunks if h.section}
        n_functions += len(sections) if sections else 1
        for h in fd.hunks:
            spans.append(modified_old_range(h))
            for line in h.lines:
                if line.tag == "added":
                    added += 1
                elif line.tag == "deleted":
                    deleted += 1
    if not change.file_diffs:
        n_functions = 0
    if spans:
        start = min(s for s, _ in spans)
        end = max(e for _, e in spans)
    return ComplexityIndices(
        n_files=n_files, n_functions=n_functions, n_hunks=n_hunks,
        added_loc=added, deleted_loc=deleted, changed_loc=added + deleted,
        change_start_index=start, change_end_index=end)


def applied_ratio(outcomes: list[InstanceOutcome]) -> float:
    if not outcomes:
        raise ValueError("applied_ratio needs at least one outcome")
    return sum(1 for o in outcomes if o.applied) / len(outcomes)


def resolved_ratio(outcomes: list[InstanceOutcome]) -> float:
    if not outcomes:
        raise ValueError("resolved_ratio needs at least one outcome")
    return sum(1 for o in outcomes if o.resolved) / len(outcomes)


def recall(located_paths, reference_paths) -> float:
    """|located ∩ reference| / |reference| as a percentage."""
    ref = set(reference_paths)
    if not ref:
        raise ValueError("recall undefined for an empty reference set")
    return len(set(located_paths) & ref) / len(ref) * 100.0


def recall_curve(ranked_lists: list[list[str]],
                 reference_sets: list[set[str]]) -> list[tuple[float, float]]:
    """Mean files examined and mean recall per prefix depth.

    For depth d, each instance contributes its first d ranked paths (fewer
    when the list is shorter). Depths run 1..max list length.
    """
    if len(ranked_lists) != len(reference_sets):
        raise ValueError("one reference set per ranked list required")
    if not ranked_lists:
        raise ValueError("recall_curve needs at least one instance")
    for ref in reference_sets:
        if not ref:
            raise ValueError("recall undefined for an empty reference set")
    max_depth = max(len(r) for r in ranked_lists)
    curve: list[tuple[float, float]] = []
    n = len(ranked_lists)
    for depth in range(1, max_depth + 1):
        files = 0
        total_recall = 0.0
        for ranked, ref in zip(ranked_lists, reference_sets):
            prefix = ranked[:depth]
            files += len(prefix)
            total_recall += recall(prefix, ref)
        curve.append((files / n, total_recall / n))
    return curve


SUMMARY_ROWS = (
    ("# Code Files", "n_files"),
    ("# Functions", "n_functions"),
    ("# Hunks", "n_hunks"),
    ("# Added Lines", "added_loc"),
    ("# Deleted Lines", "deleted_loc"),
    ("Change Start Index", "change_start_index"),
    ("Change End Index", "change_end_index"),
    ("# Changed Lines", "changed_loc"),
)


def summarize_changes(changes: list[CodeChange]) -> list[tuple[str, int, int, float]]:
    """Per-index (label, min, max, mean) rows in the standard order."""
    if not changes:
        raise ValueError("summarize_changes needs at least one change")
    indices = [complexity_of(c) for c in changes]
    rows: list[tuple[str, int, int, float]] = []
    for label, field_name in SUMMARY_ROWS:
        values = [getattr(ix, field_name) for ix in indices]
        rows.append((label, min(values), max(values),
                     sum(values) / len(values)))
    return rows


def format_summary_table(rows: list[tuple[str, int, int, float]]) -> str:
    header = f"{'Index':<20} {'Min':>8} {'Max':>8} {'Avg':>10}"
    lines = [header, "-" * len(header)]
    for label, lo, hi, avg in rows:
        lines.append(f"{label:<20} {lo:>8} {hi:>8} {avg:>10.2f}")
    return "\n".join(lines)
