"""tools/bench_pairs.py turns alternating parent/change benchmark runs into
a BENCH file; its summary decides whether a claimed gain is met."""

from __future__ import annotations

from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"

SPECS = [{"name": "instances_per_s", "unit": "1/s", "better": "higher",
          "bound": 0.25},
         {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
         {"name": "cold_s", "unit": "s", "better": "lower", "bound": None}]


@pytest.fixture()
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import bench_pairs

    return bench_pairs


def _runs(parent_rate, change_rate, setup=(1.0, 1.0), workload="w"):
    """One parent and one change run per pair, pairs numbered from 1."""
    runs = []
    for k, (old, new) in enumerate(zip(parent_rate, change_rate), 1):
        for side, rate, s in (("parent", old, setup[0]),
                              ("change", new, setup[1])):
            runs.append({"workload": workload, "pair": k, "seed": 70 + k,
                         "side": side, "ran_first": (side == "parent")
                         == (k % 2 == 1), "correct": True, "failed": 0,
                         "attempted": 3, "instances_per_s": rate,
                         "setup_s": s, "cold_s": 0.5})
    return runs


def test_summary_gives_spreads_wins_and_the_claim(bench_pairs):
    parent = [2.0, 2.2, 2.4, 2.6, 2.8]
    change = [3.0, 3.2, 2.0, 3.6, 3.8]  # pair 3 is a loss
    summary = bench_pairs.summarize(_runs(parent, change, setup=(1.0, 1.2)),
                                    SPECS, ("w", "instances_per_s"))
    w = summary["workloads"]["w"]
    assert (w["pairs"], w["seeds"], w["correct"]) == (5, [71, 72, 73, 74,
                                                          75], True)
    assert w["attempted"] == {"parent": 15, "change": 15}
    rate = w["metrics"]["instances_per_s"]
    assert rate["parent"] == {"median": 2.4, "q1": 2.2, "q3": 2.6}
    assert rate["change"] == {"median": 3.2, "q1": 3.0, "q3": 3.6}
    assert rate["change_wins"] == "4/5"
    assert rate["median_change_ratio"] == round(3.2 / 2.4 - 1, 4)
    assert rate["within_bound"] and not rate["unresolved"]
    # setup_s is worse by 20%: within its 25% bound, and never a win
    setup = w["metrics"]["setup_s"]
    assert (setup["change_wins"], setup["median_change_ratio"],
            setup["within_bound"]) == ("0/5", 0.2, True)
    # a tie counts for neither side, and no bound means no verdict
    assert w["metrics"]["cold_s"]["change_wins"] == "0/5"
    assert "within_bound" not in w["metrics"]["cold_s"]
    # 4 wins of 5 is short of nine tenths
    assert summary["claim"] == {
        "workload": "w", "metric": "instances_per_s",
        "median_change_ratio": rate["median_change_ratio"],
        "change_wins": "4/5", "median_difference": 0.8, "parent_iqr": 0.4,
        "met": False}


@pytest.mark.parametrize("change,met", [
    ([3.0] * 10, True),
    # every pair won, but by less than the parent's interquartile range
    ([p + 0.1 for p in [2.0, 2.5] * 5], False),
])
def test_claim_needs_nine_tenths_and_more_than_the_parent_spread(
        bench_pairs, change, met):
    parent = [2.0, 2.5] * 5
    summary = bench_pairs.summarize(_runs(parent, change), SPECS,
                                    ("w", "instances_per_s"))
    assert summary["claim"]["met"] is met


@pytest.mark.parametrize("parent_failed,change_failed,met", [
    (0, 0, True), (1, 1, True),
    # the change wins every pair but fails a larger share of operations
    (0, 1, False),
])
def test_claim_needs_no_larger_failed_share(bench_pairs, parent_failed,
                                            change_failed, met):
    runs = _runs([2.0, 2.5] * 5, [3.0] * 10)
    runs[0]["failed"] = parent_failed
    runs[1]["failed"] = change_failed
    summary = bench_pairs.summarize(runs, SPECS, ("w", "instances_per_s"))
    assert summary["claim"]["met"] is met


def test_first_wins_counts_pairs_the_side_that_ran_first_read_better(
        bench_pairs):
    # the side that runs first is faster whichever commit it is: odd
    # pairs run the parent first, even pairs the change
    parent = [3.0, 2.0, 3.0, 2.0]
    change = [2.0, 3.0, 2.0, 3.0]
    metrics = bench_pairs.summarize(_runs(parent, change),
                                    SPECS)["workloads"]["w"]["metrics"]
    assert metrics["instances_per_s"]["first_wins"] == "4/4"
    assert metrics["instances_per_s"]["change_wins"] == "2/4"
    assert metrics["setup_s"]["first_wins"] == "0/4"  # ties


@pytest.mark.parametrize("parent,change,unresolved", [
    # the parent's interquartile range, 1.5, is 60% of its median 2.5,
    # wider than the 25% bound
    ([1.0, 2.0, 3.0, 4.0], [2.5] * 4, True),
    # as wide, but every change run beats every parent run
    ([1.0, 2.0, 3.0, 4.0], [4.5] * 4, False),
    # 0.025 of 2.5 is within the bound, however the change reads
    ([2.45, 2.5, 2.5, 2.55], [1.0, 4.0, 1.0, 4.0], False),
])
def test_a_spread_wider_than_the_bound_leaves_a_metric_unresolved(
        bench_pairs, parent, change, unresolved):
    metrics = bench_pairs.summarize(_runs(parent, change),
                                    SPECS)["workloads"]["w"]["metrics"]
    assert metrics["instances_per_s"]["unresolved"] is unresolved
    assert "unresolved" not in metrics["cold_s"]


def test_a_pair_missing_a_side_is_left_out(bench_pairs):
    runs = _runs([2.0, 2.0], [4.0, 4.0])[:-1]  # pair 2 has no change run
    runs.append(dict(runs[0], workload="v"))  # nor has v's only pair
    summary = bench_pairs.summarize(runs, SPECS)
    assert summary["workloads"]["w"]["pairs"] == 1
    assert "v" not in summary["workloads"]
    assert "claim" not in summary


def test_parse_output_reads_the_json_line_and_table_rows(bench_pairs):
    stdout = (
        "workload eval-batch  seed 1  size full  trace 0  nproc 2\n"
        "setup_s                            0.488261 s      n=9\n"
        "cold_s                             0.483361 s      n=15\n"
        "llm_calls_per_instance               0.0000 calls\n"
        "prompt_words_per_instance            0.0000 words\n"
        "failed_ratio                       0.000000 ratio  failed=0 "
        "attempted=75\n"
        '{"correct": true, "attempted": 75, "failed": 0, "metrics": '
        '{"setup_s": {"value": 0.488261, "unit": "s"}}}\n')
    assert bench_pairs.parse_output(stdout) == {
        "correct": True, "failed": 0, "attempted": 75, "setup_s": 0.488261,
        "cold_s": 0.483361, "llm_calls_per_instance": 0.0,
        "prompt_words_per_instance": 0.0}


def test_parse_output_keeps_the_text_of_failed_operations(bench_pairs):
    stdout = (
        "workload bigrepo-evolve  seed 1  size full  trace 0  nproc 2\n"
        "cold_s                             0.483361 s      n=1\n"
        "failed_ratio                       0.500000 ratio  failed=2 "
        "attempted=4\n"
        "FAILED rev2: Traceback (most recent call last):\n"
        '  File "run.py", line 1, in cycle\n'
        "cold_s is no table row here\n"
        "FAILED rev3: wrong patch\n"
        '{"correct": false, "attempted": 4, "failed": 2, "metrics": {}}\n')
    record = bench_pairs.parse_output(stdout)
    assert record["failures"] == [
        'rev2: Traceback (most recent call last):\n  File "run.py", line 1, '
        "in cycle\ncold_s is no table row here",
        "rev3: wrong patch"]
    assert record["cold_s"] == 0.483361
