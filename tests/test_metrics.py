from __future__ import annotations

import pytest

from _oracles import overlap_by_line_sets

from patchcrew.diffs import CodeChange, compute_diff, parse_diff
from patchcrew.evalkit.metrics import (ComplexityIndices, InstanceOutcome,
                                       applied_ratio, change_intervals,
                                       change_overlap_ratio, complexity_of,
                                       format_summary_table, overlap_ratio,
                                       recall, recall_curve, resolved_ratio,
                                       summarize_indices)
from patchcrew.intervals import LineIntervalSet


# --- overlap -----------------------------------------------------------------

def test_overlap_ratio_worked_example():
    ref = LineIntervalSet.of((10, 20))
    gen = LineIntervalSet.of((15, 30))
    assert overlap_ratio(ref, gen) == pytest.approx(6 / 11, abs=1e-12)


def test_overlap_ratio_extremes():
    ref = LineIntervalSet.of((3, 9))
    assert overlap_ratio(ref, ref) == 1.0
    assert overlap_ratio(ref, LineIntervalSet.of((100, 120))) == 0.0
    assert overlap_ratio(ref, LineIntervalSet(())) == 0.0


def test_overlap_ratio_empty_reference_is_undefined():
    with pytest.raises(ValueError, match="empty reference"):
        overlap_ratio(LineIntervalSet(()), LineIntervalSet.of((1, 2)))


def test_overlap_ratio_normalizes_messy_inputs():
    ref = LineIntervalSet.of((10, 15), (12, 20))
    gen = LineIntervalSet.of((18, 18), (15, 17))
    assert overlap_ratio(ref, gen) == overlap_by_line_sets(ref, gen)


def test_overlap_ratio_is_asymmetric():
    a = LineIntervalSet.of((1, 10))
    b = LineIntervalSet.of((1, 5))
    assert overlap_ratio(a, b) == 0.5
    assert overlap_ratio(b, a) == 1.0


# --- change-level overlap -------------------------------------------------------

OLD_A = "a1\na2\na3\na4\na5\na6\n"
OLD_B = "b1\nb2\nb3\nb4\n"


def _change(edits: dict[str, tuple[str, str]]) -> CodeChange:
    return CodeChange(tuple(compute_diff(old, new, path)
                            for path, (old, new) in sorted(edits.items())))


def test_change_intervals_maps_paths():
    change = _change({
        "a.py": (OLD_A, OLD_A.replace("a2\n", "A2\n")),
        "b.py": (OLD_B, OLD_B.replace("b4\n", "B4\n")),
    })
    intervals = change_intervals(change)
    assert intervals["a.py"] == LineIntervalSet.of((2, 2))
    assert intervals["b.py"] == LineIntervalSet.of((4, 4))


def test_change_overlap_counts_within_paths_only():
    ref = _change({
        "a.py": (OLD_A, OLD_A.replace("a2\n", "A2\n")),
        "b.py": (OLD_B, OLD_B.replace("b4\n", "B4\n")),
    })
    same_lines_other_file = _change({
        "b.py": (OLD_B, OLD_B.replace("b2\n", "X\n")),
    })
    assert change_overlap_ratio(ref, ref) == 1.0
    assert change_overlap_ratio(ref, same_lines_other_file) == 0.0
    half = _change({"a.py": (OLD_A, OLD_A.replace("a2\n", "A2\n"))})
    assert change_overlap_ratio(ref, half) == 0.5


def test_change_overlap_none_for_empty_reference():
    gen = _change({"a.py": (OLD_A, OLD_A.replace("a2\n", "A2\n"))})
    assert change_overlap_ratio(CodeChange(()), gen) is None


# --- complexity -------------------------------------------------------------------

def test_complexity_indices_validation():
    ComplexityIndices(1, 1, 1, 2, 3, 5, 4, 9)
    with pytest.raises(ValueError, match="added_loc \\+ deleted_loc"):
        ComplexityIndices(1, 1, 1, 2, 3, 4, 1, 9)
    with pytest.raises(ValueError, match="change_start_index"):
        ComplexityIndices(1, 1, 1, 2, 3, 5, 9, 4)


def test_complexity_of_computed_diffs():
    old = "".join(f"x{i}\n" for i in range(1, 21))
    new = old.replace("x3\n", "X3\n").replace("x17\n", "")
    change = CodeChange((compute_diff(old, new, "a.py"),))
    ix = complexity_of(change)
    assert ix.n_files == 1
    assert ix.n_hunks == 2
    assert ix.added_loc == 1
    assert ix.deleted_loc == 2
    assert ix.changed_loc == 3
    assert ix.change_start_index == 3
    assert ix.change_end_index == 17
    assert ix.n_functions == 1


def test_complexity_counts_distinct_sections():
    text = (
        "diff --git a/m.py b/m.py\n"
        "--- a/m.py\n"
        "+++ b/m.py\n"
        "@@ -2,3 +2,3 @@ def alpha():\n"
        " one\n"
        "-two\n"
        "+TWO\n"
        " three\n"
        "@@ -10,3 +10,3 @@ def beta():\n"
        " ten\n"
        "-eleven\n"
        "+ELEVEN\n"
        " twelve\n"
    )
    change = parse_diff(text)
    assert complexity_of(change).n_functions == 2


def test_complexity_of_empty_change():
    ix = complexity_of(CodeChange(()))
    assert ix == ComplexityIndices(0, 0, 0, 0, 0, 0, 0, 0)


# --- outcome ratios -----------------------------------------------------------------

def _outcome(instance_id: str, *, generated=True, applied=True,
             t_old=True, t_new=True) -> InstanceOutcome:
    return InstanceOutcome(
        instance_id=instance_id, generated=generated, applied=applied,
        t_old_passed=t_old, t_new_passed=t_new, overlap_ratio=None,
        complexity=complexity_of(CodeChange(())))


def test_outcome_requires_generation_before_application():
    with pytest.raises(ValueError, match="generated"):
        _outcome("x", generated=False, applied=True)


def test_resolved_requires_both_test_groups():
    assert _outcome("a").resolved
    assert not _outcome("b", t_old=False).resolved
    assert not _outcome("c", t_new=False).resolved
    assert not _outcome("d", applied=False).resolved


def test_ratios():
    outcomes = [
        _outcome("a"),
        _outcome("b", t_new=False),
        _outcome("c", generated=False, applied=False),
        _outcome("d"),
    ]
    assert applied_ratio(outcomes) == 0.75
    assert resolved_ratio(outcomes) == 0.5
    with pytest.raises(ValueError):
        applied_ratio([])
    with pytest.raises(ValueError):
        resolved_ratio([])


# --- recall ----------------------------------------------------------------------

def test_recall_percentage():
    assert recall(["a", "b", "c"], ["a", "d"]) == 50.0
    assert recall([], ["a"]) == 0.0
    assert recall(["a", "a"], ["a"]) == 100.0
    with pytest.raises(ValueError, match="empty reference"):
        recall(["a"], [])


def test_recall_curve_means():
    ranked = [["a", "b", "c"], ["x", "y"]]
    refs = [{"b"}, {"x", "z"}]
    curve = recall_curve(ranked, refs)
    assert len(curve) == 3
    assert curve[0] == (1.0, 25.0)
    assert curve[1] == (2.0, 75.0)
    assert curve[2] == (2.5, 75.0)


def test_recall_curve_is_monotone():
    ranked = [["a", "b", "c", "d"], ["d", "c", "b", "a"]]
    refs = [{"a", "c"}, {"a", "b"}]
    curve = recall_curve(ranked, refs)
    recalls = [r for _, r in curve]
    assert recalls == sorted(recalls)


def test_recall_curve_validation():
    with pytest.raises(ValueError, match="one reference set"):
        recall_curve([["a"]], [])
    with pytest.raises(ValueError, match="at least one instance"):
        recall_curve([], [])
    with pytest.raises(ValueError, match="empty reference"):
        recall_curve([["a"]], [set()])


# --- summaries --------------------------------------------------------------------

def test_summarize_changes_rows():
    small = _change({"a.py": (OLD_A, OLD_A.replace("a2\n", "A2\n"))})
    bigger = _change({
        "a.py": (OLD_A, OLD_A.replace("a2\n", "A2\nextra\n")),
        "b.py": (OLD_B, OLD_B.replace("b4\n", "B4\n")),
    })
    rows = summarize_indices([complexity_of(small), complexity_of(bigger)])
    labels = [label for label, *_ in rows]
    assert labels == ["# Code Files", "# Functions", "# Hunks",
                      "# Added Lines", "# Deleted Lines",
                      "Change Start Index", "Change End Index",
                      "# Changed Lines"]
    by_label = {label: (lo, hi, avg) for label, lo, hi, avg in rows}
    assert by_label["# Code Files"] == (1, 2, 1.5)
    assert by_label["# Added Lines"] == (1, 3, 2.0)
    with pytest.raises(ValueError):
        summarize_indices([])


def test_format_summary_table():
    table = format_summary_table(summarize_indices([complexity_of(
        _change({"a.py": (OLD_A, OLD_A.replace("a2\n", "A2\n"))}))]))
    lines = table.splitlines()
    assert lines[0].split() == ["Index", "Min", "Max", "Avg"]
    assert set(lines[1]) == {"-"}
    assert any(line.startswith("# Changed Lines") for line in lines)
    assert lines[-1].endswith("2.00")
