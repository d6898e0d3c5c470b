"""Benchmark entry point.

    python3 perfbench/run.py --workload bigrepo-evolve --seed 1 \
        --seconds 20 --trace 0

Builds the workload's inputs from the seed (several times, to time
set-up), then runs whole cycles of the workload until ``--seconds`` have
passed, checking every output. It prints a table of every metric and, as
its last line, one JSON object: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``. A traced run alternates untraced
and traced cycles of the same inputs; the per-layer numbers come from the
traced ones and ``trace.overhead_ratio`` compares the two kinds.

Everything it writes stays under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)

# The end-to-end metrics of the JSON line; cold_s is printed in the table
# only, because one sample per cycle does not give a steady median.
E2E_UNITS = {"setup_s": "s", "instance_s_p50": "s",
             "instances_per_s": "1/s", "peak_rss_mb": "MB"}


def tail(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, and its
    value, or None when there are fewer than twenty samples."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= 10:
            ordered = sorted(samples)
            return p, ordered[min(n - 1, int(p / 100 * n))]
    return None


def machine_info() -> dict[str, str]:
    import numpy

    git = subprocess.run(["git", "--version"], capture_output=True,
                         text=True, check=False).stdout.strip()
    return {"nproc": str(os.cpu_count()), "python": platform.python_version(),
            "git": git.removeprefix("git version "), "numpy": numpy.__version__}


def measure(workload, work: Path, seconds: float, traced: bool):
    """Run whole cycles until ``seconds`` have passed. With ``traced``,
    alternate untraced and traced cycles, at least one of each."""
    from spans import Tracer

    tracer = Tracer() if traced else None
    plain, with_spans = [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        cycle_dir = work / f"cycle{k}"
        if traced and k % 2 == 1:
            with tracer.install():
                with_spans.append(workload.cycle(cycle_dir, tracer))
        else:
            plain.append(workload.cycle(cycle_dir))
        shutil.rmtree(cycle_dir, ignore_errors=True)
        k += 1
        if time.perf_counter() >= deadline and (not traced or with_spans):
            return plain, with_spans, tracer


def run(args, work: Path) -> tuple[dict, list[str]]:
    from workloads import SIZES, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed,
                                        SIZES[args.size][args.workload])
    workload.prepare(work / "inputs")
    setup_times = []
    for k in range(workload.setup_repeats):
        if k:
            shutil.rmtree(work / f"setup{k - 1}", ignore_errors=True)
        started = time.perf_counter()
        workload.setup(work / f"setup{k}")
        setup_times.append(time.perf_counter() - started)
    workload.warm_up(work / "warmup")

    plain, with_spans, tracer = measure(workload, work, args.seconds,
                                        bool(args.trace))
    cycles = plain + with_spans
    attempted = sum(c.attempted for c in cycles)
    failures = {f"cycle {n}: {op}": why for n, c in enumerate(cycles)
                for op, why in c.failures.items()}
    instances = sum(c.instances for c in plain)
    samples = [s for c in plain for s in c.samples]
    lines = []
    e2e = {
        "setup_s": statistics.median(setup_times),
        "instance_s_p50": statistics.median(samples) if samples else 0.0,
        "cold_s": statistics.median(c.cold for c in plain),
        "instances_per_s": instances / (sum(c.wall for c in plain) or 1),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    counts = {"setup_s": len(setup_times), "instance_s_p50": len(samples),
              "cold_s": len(plain), "instances_per_s": instances,
              "peak_rss_mb": 1}
    for name, value in e2e.items():
        note = ""
        if name == "instance_s_p50" and tail(samples):
            p, v = tail(samples)
            note = f"  p{p:g} {v:.6f}"
        unit = E2E_UNITS.get(name, "s")
        lines.append(f"{name:<28} {value:>14.6f} {unit:<6} "
                     f"n={counts[name]}{note}")
    llm_calls = sum(c.llm_calls for c in plain) / (instances or 1)
    words = sum(c.prompt_words for c in plain) / (instances or 1)
    lines += [f"{'llm_calls_per_instance':<28} {llm_calls:>14.4f} calls",
              f"{'prompt_words_per_instance':<28} {words:>14.4f} words",
              f"{'failed_ratio':<28} {len(failures) / attempted:>14.6f} "
              f"ratio  failed={len(failures)} attempted={attempted}"]

    if not args.trace:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in E2E_UNITS.items()}
    else:
        from spans import LAYER_METRICS, layer_metrics, layer_shares

        per_layer = layer_metrics(tracer.spans,
                                  sum(c.instances for c in with_spans))
        traced_wall = statistics.median(c.wall for c in with_spans)
        untraced_wall = statistics.median(c.wall for c in plain)
        per_layer["trace.overhead_ratio"] = traced_wall / untraced_wall - 1
        metrics = {k: {"value": per_layer[k], "unit": unit}
                   for k, (unit, _) in LAYER_METRICS.items()}
        lines += [f"not traced, missing from the program: {name}"
                  for name in tracer.skipped]
        lines.append("self-time share by layer (traced cycles):")
        lines += [f"  {layer:<26} {share:>8.1%}"
                  for layer, share in layer_shares(tracer.spans).items()]
        lines += [f"{k:<36} {v['value']:>16.6f} {v['unit']}"
                  for k, v in metrics.items()]
        trace_path = ROOT / ".bench_work" / (
            f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(trace_path, {"workload": args.workload,
                                  "seed": args.seed, **machine_info()})
        lines.append(f"spans written to {trace_path}")
    lines += [f"FAILED {op}: {why}" for op, why in failures.items()]
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("bigrepo-evolve", "wide-plan-live",
                                 "eval-batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: minimal inputs, for the smoke test")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "patchcrew" / "__init__.py").is_file():
        print(f"patchcrew sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from inputs import GIT_ENV

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    os.environ.update(GIT_ENV)
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = str(work / "tmp")
    try:
        result, lines = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info = machine_info()
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {args.trace}  " + "  ".join(f"{k} {v}" for k, v in info.items()))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
