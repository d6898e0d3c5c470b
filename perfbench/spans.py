"""Spans around the public functions of each patchcrew layer.

``Tracer.install()`` replaces each function at the module or class
attribute its caller looks up, records one span per call (name, start,
end, parent span, instance id, a few counts) in memory, and puts every
original back on exit. An entry whose attribute the program no longer
has is skipped, and its metrics read 0. Nothing inside ``src/`` changes.
``layer_metrics`` turns the spans of the traced cycles into the per-layer
metrics, with self time = duration minus the time covered by child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import patchcrew.coder
import patchcrew.custodian
import patchcrew.evalkit.driver
import patchcrew.llm
import patchcrew.prompts
import patchcrew.runner
from patchcrew.coder import Coder
from patchcrew.custodian import Custodian
from patchcrew.llm import Gateway
from patchcrew.planner import Planner

from responder import MeteredBackend

# The 15 template ids of prompts.all_template_ids() at the time the
# benchmark was defined; metric names must not change with the program.
TEMPLATE_IDS = ("P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10",
                "P11", "MEETING_OPEN", "MEETING_TURN", "MEETING_SUMMARY",
                "ALIGNMENT_SCORE")


def _bytes_read(files, args):
    return {"files": len(files),
            "bytes": sum(len(v.encode("utf-8")) for v in files.values())}


def _diff_lines(fd, args):
    return {"lines": args[0].count("\n") + args[1].count("\n")}


def _backend_words(response, args):
    # args: (self, key, template_id, rendered_prompt)
    return {"template": args[2], "prompt_words": len(args[3].split()),
            "completion_words": len(response.split())}


def _plan_shape(plan, args):
    return {"stages": len(plan.groups),
            "width": max((len(g) for g in plan.groups), default=0)}


def _tests(result, args):
    return {"commands": len(result.records),
            "timeouts": sum(r.timed_out for r in result.records)}


# (owner, attribute, span name, counts from (result, args)).
# Owners are the modules and classes whose attribute the caller looks up.
_driver = patchcrew.evalkit.driver
WRAPPED = (
    (patchcrew.runner, "snapshot", "gitops.snapshot", None),
    (_driver, "snapshot", "gitops.snapshot", None),
    (_driver, "apply_change", "gitops.apply_change", None),
    (_driver, "destroy", "gitops.destroy", None),
    (patchcrew.runner, "read_repo_files", "custodian.read_repo_files",
     _bytes_read),
    (patchcrew.custodian, "rank_files", "custodian.rank_files",
     lambda r, a: {"docs": len(r)}),
    (Custodian, "locate", "custodian.locate", None),
    (Custodian, "summarize_file", "custodian.summarize", None),
    (patchcrew.runner, "load_memory", "custodian.load_memory", None),
    (patchcrew.runner, "save_memory", "custodian.save_memory", None),
    (patchcrew.llm, "read_cassette", "llm.cassette_load", None),
    (Gateway, "complete", "llm.gateway", None),
    (Gateway, "complete_structured", "llm.gateway_structured", None),
    (MeteredBackend, "complete", "llm.backend", _backend_words),
    (patchcrew.prompts, "render", "prompts.render", None),
    (Planner, "build_team", "planner.build_team",
     lambda r, a: {"tasks": len(r)}),
    (Planner, "kickoff_meeting", "planner.meeting", None),
    (Planner, "refine_roles", "planner.refine_roles", None),
    (Planner, "make_plan", "planner.make_plan", _plan_shape),
    (Coder, "resolve_issue", "coder.resolve_issue", None),
    (Coder, "spawn_qa", "coder.spawn_qa", None),
    (Coder, "execute_task", "coder.execute_task",
     lambda r, a: {"iterations": r.iterations, "approved": int(r.approved)}),
    (patchcrew.coder, "compute_diff", "diffs.compute_diff", _diff_lines),
    (patchcrew.custodian, "compute_diff", "diffs.compute_diff", _diff_lines),
    (patchcrew.coder, "render_file_diff", "diffs.render", None),
    (patchcrew.custodian, "render_file_diff", "diffs.render", None),
    (patchcrew.runner, "render_change", "diffs.render", None),
    (_driver, "parse_diff", "diffs.parse_diff", None),
    (_driver, "run_tests", "evalkit.execution.run_tests", _tests),
    (_driver, "change_overlap_ratio", "evalkit.metrics.change_overlap_ratio",
     None),
    (_driver, "complexity_of", "evalkit.metrics.complexity_of", None),
    (_driver, "evaluate_instance", "evalkit.driver.evaluate_instance", None),
    (_driver, "evaluate_directory", "evalkit.driver.evaluate_directory", None),
    (_driver, "write_results_csv", "evalkit.driver.write_results_csv", None),
    (_driver, "analyze_results", "evalkit.driver.analyze_results", None),
    (_driver, "logistic_fit", "evalkit.logistic.fit",
     lambda r, a: {"iterations": r.iterations}),
    (patchcrew.runner, "resolve_instance", "runner.resolve_instance", None),
)


class Tracer:
    """In-memory span list. A span is [name, start, end, parent index,
    instance id, counts]; spans of one thread nest, so a stack of open
    spans gives each one its parent."""

    def __init__(self):
        self.spans: list[list] = []
        self.instance = ""
        self._open: list[int] = []
        # WRAPPED entries whose attribute the program no longer has; their
        # metrics read 0
        self.skipped = [f"{owner.__name__}.{attr}"
                        for owner, attr, _, _ in WRAPPED
                        if attr not in vars(owner)]

    def wrap(self, name: str, fn, counts=None):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0,
                      stack[-1] if stack else -1, self.instance, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = time.perf_counter()
            if counts is not None:
                record[5] = counts(result, args)
            return result
        return traced

    @contextlib.contextmanager
    def install(self):
        present = [entry for entry in WRAPPED if entry[1] in vars(entry[0])]
        saved = [(owner, attr, vars(owner)[attr])
                 for owner, attr, _, _ in present]
        try:
            for owner, attr, name, counts in present:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr),
                                               counts))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def write(self, path: Path, header: dict) -> None:
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, instance, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "instance": instance,
                                     "counts": counts}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start = max(c_start, reach)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def layer_of(span_name: str) -> str:
    """``evalkit.execution.run_tests`` -> ``evalkit.execution``."""
    return span_name.rsplit(".", 1)[0]


def layer_shares(spans: list[list]) -> dict[str, float]:
    """Share of all self time spent in each layer."""
    by_layer: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        by_layer[layer_of(span[0])] += own
    total = sum(by_layer.values()) or 1.0
    return dict(sorted(((k, v / total) for k, v in by_layer.items()),
                       key=lambda kv: -kv[1]))


# per-layer metric -> (unit, better)
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "gitops.snapshot_s": ("s", "lower"),
    "gitops.snapshot_calls": ("calls", "lower"),
    "gitops.apply_change_s": ("s", "lower"),
    "gitops.destroy_s": ("s", "lower"),
    "diffs.parse_diff_s": ("s", "lower"),
    "evalkit.metrics.s": ("s", "lower"),
    "evalkit.execution.run_tests_s": ("s", "lower"),
    "evalkit.execution.commands": ("commands", "lower"),
    "evalkit.execution.timeouts": ("commands", "lower"),
    "evalkit.driver.self_s": ("s", "lower"),
    "evalkit.driver.write_results_csv_s": ("s", "lower"),
    "evalkit.logistic.fit_s": ("s", "lower"),
    "evalkit.logistic.iterations": ("iterations", "lower"),
    "custodian.read_repo_files_s": ("s", "lower"),
    "custodian.files_read": ("files", "lower"),
    "custodian.bytes_read": ("bytes", "lower"),
    "custodian.rank_files_s": ("s", "lower"),
    "custodian.docs_ranked": ("docs", "lower"),
    "custodian.summarize_s": ("s", "lower"),
    "custodian.summary_fresh": ("calls", "lower"),
    "custodian.summary_updates": ("calls", "lower"),
    "custodian.memo_hit_ratio": ("ratio", "higher"),
    "custodian.load_memory_s": ("s", "lower"),
    "custodian.save_memory_s": ("s", "lower"),
    "llm.cassette_load_s": ("s", "lower"),
    "llm.calls": ("calls", "lower"),
    "llm.prompt_words": ("words", "lower"),
    "llm.completion_words": ("words", "lower"),
    "llm.format_retries": ("calls", "lower"),
    **{f"llm.calls.{t}": ("calls", "lower") for t in TEMPLATE_IDS},
    **{f"llm.prompt_words.{t}": ("words", "lower") for t in TEMPLATE_IDS},
    "llm.wait_s": ("s", "lower"),
    "llm.gateway_self_s": ("s", "lower"),
    "prompts.render_s": ("s", "lower"),
    "planner.build_team_s": ("s", "lower"),
    "planner.meeting_s": ("s", "lower"),
    "planner.refine_roles_s": ("s", "lower"),
    "planner.make_plan_s": ("s", "lower"),
    "planner.tasks": ("tasks", "lower"),
    "planner.plan_stages": ("stages", "lower"),
    "planner.max_stage_width": ("tasks", "higher"),
    "coder.execute_task_s": ("s", "lower"),
    "coder.iterations": ("iterations", "lower"),
    "coder.approved_ratio": ("ratio", "higher"),
    "diffs.compute_diff_s": ("s", "lower"),
    "diffs.compute_diff_lines": ("lines", "lower"),
    "diffs.render_s": ("s", "lower"),
    "runner.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# metric -> span names whose self time it sums
_SELF_TIME = {
    "gitops.snapshot_s": ("gitops.snapshot",),
    "gitops.apply_change_s": ("gitops.apply_change",),
    "gitops.destroy_s": ("gitops.destroy",),
    "diffs.parse_diff_s": ("diffs.parse_diff",),
    "evalkit.metrics.s": ("evalkit.metrics.change_overlap_ratio",
                          "evalkit.metrics.complexity_of"),
    "evalkit.execution.run_tests_s": ("evalkit.execution.run_tests",),
    "evalkit.driver.self_s": ("evalkit.driver.evaluate_directory",
                              "evalkit.driver.evaluate_instance",
                              "evalkit.driver.analyze_results"),
    "evalkit.driver.write_results_csv_s": ("evalkit.driver.write_results_csv",),
    "evalkit.logistic.fit_s": ("evalkit.logistic.fit",),
    "custodian.read_repo_files_s": ("custodian.read_repo_files",),
    "custodian.rank_files_s": ("custodian.rank_files",),
    "custodian.summarize_s": ("custodian.summarize",),
    "custodian.load_memory_s": ("custodian.load_memory",),
    "custodian.save_memory_s": ("custodian.save_memory",),
    "llm.cassette_load_s": ("llm.cassette_load",),
    "llm.wait_s": ("llm.backend",),
    "llm.gateway_self_s": ("llm.gateway", "llm.gateway_structured"),
    "prompts.render_s": ("prompts.render",),
    "planner.build_team_s": ("planner.build_team",),
    "planner.meeting_s": ("planner.meeting",),
    "planner.refine_roles_s": ("planner.refine_roles",),
    "planner.make_plan_s": ("planner.make_plan",),
    "coder.execute_task_s": ("coder.execute_task",),
    "diffs.compute_diff_s": ("diffs.compute_diff",),
    "diffs.render_s": ("diffs.render",),
    "runner.self_s": ("runner.resolve_instance",),
}


def layer_metrics(spans: list[list], n_instances: int) -> dict[str, float]:
    """Per-layer metrics over the traced spans. Times and counts are per
    instance; ratios, the widest plan stage and logistic iterations (per
    fit) are not."""
    own = self_times(spans)
    time_by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    totals: dict[str, float] = defaultdict(float)
    for span, t in zip(spans, own):
        name, counts = span[0], span[5]
        time_by_name[name] += t
        calls[name] += 1
        for key, value in (counts or {}).items():
            if key != "template":
                totals[f"{name}.{key}"] += value

    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)

    def backend_calls_below(i: int) -> list[str]:
        found, todo = [], list(children.get(i, ()))
        while todo:
            j = todo.pop()
            if spans[j][0] == "llm.backend":
                found.append(spans[j][5]["template"])
            todo.extend(children.get(j, ()))
        return found

    fresh = updates = hits = retries = 0
    per_template_calls: dict[str, int] = defaultdict(int)
    per_template_words: dict[str, int] = defaultdict(int)
    max_width = 0
    for i, span in enumerate(spans):
        name = span[0]
        if name == "custodian.summarize":
            below = backend_calls_below(i)
            fresh += "P2" in below
            updates += "P1" in below
            hits += not below
        elif name == "llm.gateway_structured":
            retries += max(0, len(backend_calls_below(i)) - 1)
        elif name == "llm.backend":
            per_template_calls[span[5]["template"]] += 1
            per_template_words[span[5]["template"]] += span[5]["prompt_words"]
        elif name == "planner.make_plan":
            max_width = max(max_width, span[5]["width"])

    n = max(n_instances, 1)
    out = {metric: sum(time_by_name[s] for s in names) / n
           for metric, names in _SELF_TIME.items()}
    n_summaries = calls["custodian.summarize"]
    n_tasks = calls["coder.execute_task"]
    n_fits = calls["evalkit.logistic.fit"]
    out.update({
        "gitops.snapshot_calls": calls["gitops.snapshot"] / n,
        "evalkit.execution.commands":
            totals["evalkit.execution.run_tests.commands"] / n,
        "evalkit.execution.timeouts":
            totals["evalkit.execution.run_tests.timeouts"] / n,
        "evalkit.logistic.iterations":
            totals["evalkit.logistic.fit.iterations"] / n_fits if n_fits else 0,
        "custodian.files_read": totals["custodian.read_repo_files.files"] / n,
        "custodian.bytes_read": totals["custodian.read_repo_files.bytes"] / n,
        "custodian.docs_ranked": totals["custodian.rank_files.docs"] / n,
        "custodian.summary_fresh": fresh / n,
        "custodian.summary_updates": updates / n,
        "custodian.memo_hit_ratio": hits / n_summaries if n_summaries else 0,
        "llm.calls": calls["llm.backend"] / n,
        "llm.prompt_words": totals["llm.backend.prompt_words"] / n,
        "llm.completion_words": totals["llm.backend.completion_words"] / n,
        "llm.format_retries": retries / n,
        **{f"llm.calls.{t}": per_template_calls[t] / n for t in TEMPLATE_IDS},
        **{f"llm.prompt_words.{t}": per_template_words[t] / n
           for t in TEMPLATE_IDS},
        "planner.tasks": totals["planner.build_team.tasks"] / n,
        "planner.plan_stages": totals["planner.make_plan.stages"] / n,
        "planner.max_stage_width": max_width,
        "coder.iterations": totals["coder.execute_task.iterations"] / n,
        "coder.approved_ratio":
            totals["coder.execute_task.approved"] / n_tasks if n_tasks else 0,
        "diffs.compute_diff_lines": totals["diffs.compute_diff.lines"] / n,
    })
    return out
