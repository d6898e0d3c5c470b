"""The benchmark in perfbench/ times patchcrew's layers by wrapping their
functions by name (perfbench/spans.py). A name it no longer finds is
skipped, and every per-layer metric built on it reads 0 without an error,
so a rename or removal here must fail a test instead."""

from __future__ import annotations

from pathlib import Path

from conftest import scripted_gateway

from patchcrew.coder import Coder
from patchcrew.evalkit.logistic import logistic_fit
from patchcrew.model import MANAGER_ROLE, MeetingTranscript, TaskAssignment
from patchcrew.planner import Planner

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_finds_every_function_it_wraps(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    # resolve makes no checkout, so runner.snapshot is gone; the
    # gitops.snapshot metrics come from evalkit.driver.snapshot
    assert spans.Tracer().skipped == ["patchcrew.runner.snapshot"]


def test_benchmark_counts_read_real_results(monkeypatch):
    # the counts of coder.execute_task, planner.make_plan and logistic_fit
    # applied to what a scripted run and a one-feature fit return: two
    # iterations, approved on the second, a plan of stages [0, 1] and [2],
    # and the fit's iterations
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    counts = {name: fn for _, _, name, fn in spans.WRAPPED}
    decisions = ["NO", "YES"]
    gateway = scripted_gateway({
        "P7": "[[0, 1], [2]]",
        "P9": "[[1,1]]",
        "P10": "x = 2\n",
        "P11": lambda prompt: (f"DECISION: {decisions.pop(0)}"
                               if "Current phase: decision" in prompt
                               else "check the value"),
    })
    tasks = [TaskAssignment(f"m{i}.py", f"task {i}", "dev", qa_role="qa")
             for i in range(3)]
    result = Coder(gateway).execute_task(tasks[0], "x = 1\n")
    assert counts["coder.execute_task"](result, ()) == {"iterations": 2,
                                                         "approved": 1}
    transcript = MeetingTranscript(turns=((MANAGER_ROLE, "go"),),
                                   summary="go")
    plan = Planner(gateway).make_plan(transcript, tasks)
    assert counts["planner.make_plan"](plan, ()) == {"stages": 2, "width": 2}
    fit = logistic_fit([1.0, 2.0, 2.0, 3.0, 3.0, 4.0], [0, 0, 1, 0, 1, 1])
    assert fit.converged
    assert counts["evalkit.logistic.fit"](fit, ()) == {"iterations": 6}
