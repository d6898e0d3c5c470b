"""The three workloads: set-up, one measured cycle, and output checks.

Every workload is a closed loop with one caller: each call into patchcrew
returns before the next one starts. A cycle starts from empty state
(no evolution memory, a fresh output directory) and runs the workload's
whole instance set once, so every cycle makes the same calls.

Calls go through module attributes (``patchcrew.runner.resolve_instance``,
``patchcrew.evalkit.driver.evaluate_directory``, ...) so that the span
wrappers, when installed, see them.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import patchcrew.evalkit.driver as driver
import patchcrew.runner as runner
from patchcrew.llm import Gateway, RecordBackend, ReplayBackend
from patchcrew.model import load_instance

import inputs
from oracles import check_evaluation, check_patch
from responder import MeteredBackend, ScriptedResponder

# Modelled latency of a live backend on wide-plan-live: 1/100 of assumed
# hosted-model figures, so that a run stays short. The figures are
# assumptions, not measurements: 0.5 s fixed cost per request, prompt
# reading (prefill) at 4,000 words/s and generation (decode) at 50 words/s,
# about 5,000 and 65 tokens/s at 1.3 tokens per word.
LATENCY = {"per_call_s": 0.5 / 100, "per_prompt_word_s": 1 / 4000 / 100,
           "per_completion_word_s": 1 / 50 / 100}

SIZES = {
    "full": {"bigrepo-evolve": {"n_files": 1000, "n_revisions": 3},
             "wide-plan-live": {"n_files": 200},
             "eval-batch": {}},
    "tiny": {"bigrepo-evolve": {"n_files": 60, "n_revisions": 2},
             "wide-plan-live": {"n_files": 60, "fan_outs": (4,)},
             "eval-batch": {}},
}


@dataclass
class Cycle:
    cold: float  # first instance, from empty state
    samples: list[float]  # per-instance seconds counted in instance_s_p50
    wall: float  # seconds spent inside patchcrew during the cycle
    instances: int
    attempted: int
    failures: dict[str, str] = field(default_factory=dict)  # operation -> why
    llm_calls: int = 0
    prompt_words: int = 0


def _traceback() -> str:
    return traceback.format_exc(limit=3).strip()


class ResolveWorkload:
    """Resolves instances in replay, through a metered backend."""

    setup_repeats = 3
    top_k = 10
    meeting_rounds = 1
    uses_memory = False
    latency: dict[str, float] = {}
    cold_in_p50 = True

    def __init__(self, seed: int, size: dict):
        self.seed = seed
        self.size = size

    def make_inputs(self, work: Path) -> inputs.ResolveInputs:
        raise NotImplementedError

    def _config(self, mode: str, out_dir: Path, memory: Path | None):
        return runner.RunConfig(
            llm_mode=mode, cassette_path=str(self.cassette), top_k=self.top_k,
            meeting_rounds=self.meeting_rounds, out_dir=out_dir,
            memory_path=str(memory) if memory else None)

    def prepare(self, work: Path) -> None:
        """Generate the inputs: the benchmark's own work, done once and
        untimed."""
        work.mkdir(parents=True)
        self.inputs = self.make_inputs(work)
        self.instances = [load_instance(c.instance_path)
                          for c in self.inputs.cases]
        self.expected_files = [c.expected_files() for c in self.inputs.cases]
        self.verified: dict[int, str] = {}

    def setup(self, work: Path) -> None:
        """patchcrew's part of set-up, timed: record a fresh cassette by
        resolving every instance once against the scripted responder."""
        work.mkdir(parents=True)
        self.cassette = work / "cassette.jsonl"
        recorder = RecordBackend(ScriptedResponder(self.inputs.scripts),
                                 self.cassette)
        memory = work / "record-memory.jsonl" if self.uses_memory else None
        config = self._config("record", work / "record-out", memory)
        self.expected_stats = []
        for instance in self.instances:
            backend = MeteredBackend(recorder)
            runner.resolve_instance(instance, config, Gateway(backend))
            self.expected_stats.append(backend.stats.snapshot())

    def warm_up(self, work: Path) -> None:
        """Resolve a separate instance once in replay, untimed."""
        work.mkdir(parents=True)
        warm_memory = work / "warmup-memory.jsonl" if self.uses_memory else None
        runner.resolve_instance(
            load_instance(self.inputs.warmup),
            self._config("replay", work / "warmup-out", warm_memory),
            Gateway(MeteredBackend(ReplayBackend(self.cassette),
                                   **self.latency)))

    def cycle(self, work: Path, tracer=None) -> Cycle:
        work.mkdir(parents=True)
        memory = work / "memory.jsonl" if self.uses_memory else None
        config = self._config("replay", work / "out", memory)
        times: list[float] = []
        failures: dict[str, str] = {}
        calls = words = 0
        for i, instance in enumerate(self.instances):
            if tracer is not None:
                tracer.instance = instance.instance_id
            try:
                started = time.perf_counter()
                backend = MeteredBackend(ReplayBackend(self.cassette),
                                         **self.latency)
                outcome = runner.resolve_instance(instance, config,
                                                  Gateway(backend))
                times.append(time.perf_counter() - started)
            except Exception:  # noqa: BLE001 - counted and reported
                failures[instance.instance_id] = _traceback()
                continue
            stats = backend.stats.snapshot()
            calls += sum(backend.stats.calls.values())
            words += sum(backend.stats.prompt_words.values())
            problem = self._check(i, outcome.patch_path.read_text("utf-8"))
            if stats != self.expected_stats[i]:
                problem = "LLM calls or words differ from the recording"
            if problem:
                failures[instance.instance_id] = problem
        if not times:
            return Cycle(0.0, [], 0.0, 0, len(self.instances), failures)
        samples = times if self.cold_in_p50 else times[1:]
        return Cycle(times[0], samples, sum(times), len(times),
                     len(self.instances), failures, calls, words)

    def _check(self, i: int, patch: str) -> str | None:
        if self.verified.get(i) == patch:
            return None
        case = self.inputs.cases[i]
        problem = check_patch(patch, case.base_files, self.expected_files[i])
        if problem is None:
            self.verified[i] = patch
        return problem


class BigrepoEvolve(ResolveWorkload):
    name = "bigrepo-evolve"
    uses_memory = True
    cold_in_p50 = False  # instance_s_p50 is over the warm revisions

    def make_inputs(self, work):
        return inputs.bigrepo_inputs(work, self.seed, **self.size)


class WidePlanLive(ResolveWorkload):
    name = "wide-plan-live"
    setup_repeats = 9
    top_k = inputs.WIDE_TOP_K
    meeting_rounds = 2
    latency = LATENCY

    def make_inputs(self, work):
        return inputs.wide_plan_inputs(work, self.seed, **self.size)


class EvalBatch:
    """Evaluates a batch of generated patches, writes the results file and
    fits the logistic regressions."""

    name = "eval-batch"
    setup_repeats = 9

    def __init__(self, seed: int, size: dict):
        self.seed = seed

    def prepare(self, work: Path) -> None:
        """Generate the inputs: the benchmark's own work, done once and
        untimed."""
        work.mkdir(parents=True)
        self.inputs = inputs.eval_inputs(work, self.seed)

    def setup(self, work: Path) -> None:
        """patchcrew's part of set-up, timed: evaluate a separate instance,
        which also warms up the cycles that follow."""
        run_root = work / "ws"
        run_root.mkdir(parents=True)
        driver.evaluate_directory(self.inputs.warmup_dir,
                                  self.inputs.warmup_dir / "changes",
                                  run_root=run_root)

    def warm_up(self, work: Path) -> None:
        """Nothing more: every set-up pass evaluated the warm-up instance."""

    def cycle(self, work: Path, tracer=None) -> Cycle:
        run_root = work / "ws"
        run_root.mkdir(parents=True)
        results = work / "results.csv"
        times: list[float] = []
        evaluate_instance = driver.evaluate_instance

        def timed(instance, *args, **kwargs):
            if tracer is not None:
                tracer.instance = instance.instance_id
            started = time.perf_counter()
            try:
                return evaluate_instance(instance, *args, **kwargs)
            finally:
                times.append(time.perf_counter() - started)

        n = len(self.inputs.truth)
        driver.evaluate_instance = timed
        try:
            started = time.perf_counter()
            report = driver.evaluate_directory(self.inputs.instances_dir,
                                               self.inputs.changes_dir,
                                               run_root=run_root)
            if tracer is not None:
                tracer.instance = ""
            driver.write_results_csv(report, results)
            analysis = driver.analyze_results(results)
            wall = time.perf_counter() - started
        except Exception:  # noqa: BLE001 - counted and reported
            return Cycle(0.0, [], 0.0, 0, n + 1, {"evaluation": _traceback()})
        finally:
            driver.evaluate_instance = evaluate_instance
        failures = check_evaluation(report, results, analysis,
                                    self.inputs.truth)
        return Cycle(times[0], times, wall, len(times), n + 1, failures)


WORKLOADS = {w.name: w for w in (BigrepoEvolve, WidePlanLive, EvalBatch)}
