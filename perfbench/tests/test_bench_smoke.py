"""Smoke test of the benchmark at minimal size.

    python3 -m pytest perfbench/tests

Runs every workload once with ``--size tiny --trace 1`` and checks that the
oracles pass, that the JSON line carries exactly the metrics BENCHMARK.json
names, and that the per-layer counts equal the counts the workload design
implies, worked out here by hand rather than taken from the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Calls made for one task once the custodian is done, when QA approves the
# first attempt in one meeting round: task + role, meeting open, one turn,
# summary, role refinement, plan, QA role, intervals, replacement, review
# comment + decision.
ONE_TASK_CALLS = 12
CLUSTER = 10  # bigrepo-evolve top-k, all of it summarized and judged


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def result(workload: str, trace: int) -> dict:
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0, proc.stdout
    assert out["attempted"] >= 1
    return {k: v["value"] for k, v in out["metrics"].items()}


@pytest.fixture(scope="module")
def traced():
    return {name: result(name, 1)
            for name in ("bigrepo-evolve", "wide-plan-live", "eval-batch")}


def test_metric_names_match_benchmark_json(traced):
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for metrics in traced.values():
        assert set(metrics) == per_layer
    assert set(result("eval-batch", 0)) == {m["name"] for m in SPEC["end_to_end"]}


def test_bigrepo_counts(traced):
    m = traced["bigrepo-evolve"]
    # revision 1: ten fresh summaries; revision 2: two summary updates and
    # eight memo hits; every revision judges all ten files
    cold = 2 * CLUSTER + ONE_TASK_CALLS
    warm = 2 + CLUSTER + ONE_TASK_CALLS
    assert m["llm.calls"] == (cold + warm) / 2
    assert m["llm.calls.P2"] == CLUSTER / 2
    assert m["llm.calls.P1"] == 2 / 2
    assert m["custodian.summary_fresh"] == CLUSTER / 2
    assert m["custodian.summary_updates"] == 2 / 2
    assert m["custodian.memo_hit_ratio"] == 8 / (2 * CLUSTER)
    assert m["llm.format_retries"] == 0
    assert m["gitops.snapshot_calls"] == 1
    assert m["custodian.files_read"] == m["custodian.docs_ranked"] == 60
    assert (m["planner.tasks"], m["planner.plan_stages"],
            m["planner.max_stage_width"]) == (1, 1, 1)
    assert (m["coder.iterations"], m["coder.approved_ratio"]) == (1, 1)
    assert m["evalkit.execution.commands"] == 0


def test_wide_plan_counts(traced):
    m = traced["wide-plan-live"]
    # 4 tasks, two meeting rounds, QA rejects tasks 0 and 3 once, task 1's
    # first decision is malformed and retried once
    tasks, rejected, retried = 4, 2, 1
    attempts = tasks + rejected
    assert m["planner.tasks"] == tasks
    assert (m["planner.plan_stages"], m["planner.max_stage_width"]) == (1, 4)
    assert m["llm.calls.MEETING_TURN"] == 2 * tasks
    assert m["llm.calls.P9"] == m["llm.calls.P10"] == attempts
    assert m["llm.calls.P11"] == 2 * attempts + retried
    assert m["llm.format_retries"] == retried
    assert m["coder.iterations"] == attempts
    assert m["coder.approved_ratio"] == 1
    assert m["llm.calls"] == (16 + 16 + 2 * tasks + (2 + 2 * tasks) + tasks
                              + 1 + tasks + 4 * attempts + retried)
    assert m["llm.wait_s"] > 0


def test_prompt_words_repeat_exactly(traced):
    again = result("wide-plan-live", 1)
    for key, value in traced["wide-plan-live"].items():
        if key.startswith(("llm.calls", "llm.prompt_words", "llm.completion")):
            assert again[key] == value, key


def test_eval_batch_counts(traced):
    m = traced["eval-batch"]
    # 24 instances: 4 have no usable patch, 4 do not apply, 16 run an old
    # and a new check each, one of which times out
    assert m["gitops.snapshot_calls"] == 20 / 24
    assert m["evalkit.execution.commands"] == 32 / 24
    assert m["evalkit.execution.timeouts"] == 1 / 24
    assert m["llm.calls"] == 0


def test_tracer_skips_a_function_the_program_lost(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import patchcrew.evalkit.driver as driver
    import spans

    monkeypatch.delattr(driver, "destroy")
    tracer = spans.Tracer()
    assert tracer.skipped == ["patchcrew.evalkit.driver.destroy"]
    with tracer.install():
        assert not hasattr(driver, "destroy")
    assert spans.layer_metrics(tracer.spans, 1)["gitops.destroy_s"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("eval-batch", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
