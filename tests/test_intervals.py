from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import covered_lines

from patchcrew.intervals import LineIntervalSet, normalize


def test_construction_rejects_start_below_one():
    with pytest.raises(ValueError, match="start must be >= 1"):
        LineIntervalSet(((0, 5),))


def test_construction_rejects_inverted_interval():
    with pytest.raises(ValueError, match="end before start"):
        LineIntervalSet(((5, 3),))


def test_of_and_basic_queries():
    iv = LineIntervalSet.of((2, 4), (10, 10))
    assert not iv.is_empty()
    assert iv.line_count() == 4
    assert covered_lines(iv) == {2, 3, 4, 10}
    assert LineIntervalSet(()).is_empty()
    assert LineIntervalSet(()).line_count() == 0


def test_clamped_trims_and_drops():
    iv = LineIntervalSet.of((1, 5), (8, 12), (20, 30))
    assert iv.clamped(10).intervals == ((1, 5), (8, 10))
    assert iv.clamped(0).intervals == ()


def test_normalize_merges_overlaps_only():
    iv = LineIntervalSet.of((5, 9), (1, 6), (11, 12))
    norm = normalize(iv)
    assert norm.intervals == ((1, 9), (11, 12))
    # adjacency is not an overlap
    adjacent = normalize(LineIntervalSet.of((1, 2), (3, 4)))
    assert adjacent.intervals == ((1, 2), (3, 4))


def test_normalize_empty_passthrough():
    empty = LineIntervalSet(())
    assert normalize(empty) is empty


intervals_strategy = st.lists(
    st.tuples(st.integers(1, 200), st.integers(0, 30)).map(
        lambda p: (p[0], p[0] + p[1])),
    max_size=12,
).map(lambda pairs: LineIntervalSet(tuple(pairs)))


@given(intervals_strategy)
def test_normalize_preserves_covered_lines(iv):
    assert covered_lines(normalize(iv)) == covered_lines(iv)


@given(intervals_strategy)
def test_normalize_output_sorted_and_disjoint(iv):
    norm = normalize(iv).intervals
    for (s1, e1), (s2, e2) in zip(norm, norm[1:]):
        assert e1 < s2


@given(intervals_strategy)
def test_normalize_idempotent(iv):
    once = normalize(iv)
    assert normalize(once) == once


@given(intervals_strategy)
def test_line_count_matches_covered_lines_after_normalize(iv):
    norm = normalize(iv)
    assert norm.line_count() == len(covered_lines(norm))
