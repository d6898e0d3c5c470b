"""Run the benchmark in alternating parent/change pairs and write a BENCH file.

    python3 tools/bench_pairs.py --parent HEAD~1 --first-seed 71 --pairs 10 \
        --workloads bigrepo-evolve wide-plan-live eval-batch \
        --claim bigrepo-evolve:instances_per_s --out BENCH_11.json

The change is this checkout as its files stand. The parent revision's
files are exported with ``git archive`` into a temporary directory,
removed at the end. Pair k runs every workload once per side on seed
first-seed + k - 1, each side with its own checkout's benchmark command
from BENCHMARK.json, ``--trace 0`` and BENCHMARK.json's run seconds. Odd
pairs run the parent first, even pairs the change. The output file is
rewritten after every pair, so an interrupted session keeps the pairs it
finished.

Per workload and end-to-end metric (plus ``cold_s``, which has no bound),
the file gives each side's median and inclusive quartiles over the pairs,
the pairs the change wins and the pairs the side that ran first wins (ties
count for neither), the median's change ratio and whether it stays within
the metric's bound. A bounded metric is unresolved when the parent's
interquartile range exceeds the bound times its median, unless every
change run is better than every parent run: its spread cannot tell a
change within the bound from one beyond it. A claimed metric is met when
the change wins at least nine tenths of the pairs, its median is better
than the parent's by more than the parent's interquartile range, and the
change fails no larger share of the operations it attempts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import operator
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# rows of the benchmark's table that its JSON line leaves out
TABLE_ROWS = ("cold_s", "llm_calls_per_instance", "prompt_words_per_instance")
COLD = {"name": "cold_s", "unit": "s", "better": "lower", "bound": None}


def parse_output(stdout: str) -> dict:
    """One benchmark run's record: its JSON line's correctness, counts and
    metric values, the table rows of TABLE_ROWS, and, if any operation
    failed, ``failures``: the text of each ``FAILED <op>: <why>`` block
    (``<why>`` may run over several lines), without the ``FAILED ``."""
    *lines, last = stdout.rstrip("\n").split("\n")
    result = json.loads(last)
    record = {"correct": result["correct"], "failed": result["failed"],
              "attempted": result["attempted"]}
    record.update((name, m["value"]) for name, m in result["metrics"].items())
    failures: list[str] = []
    for line in lines:
        if line.startswith("FAILED "):
            failures.append(line.removeprefix("FAILED "))
        elif failures:
            failures[-1] += "\n" + line
        else:
            name, _, rest = line.partition(" ")
            if name in TABLE_ROWS:
                record[name] = float(rest.split()[0])
    if failures:
        record["failures"] = failures
    return record


def _spread(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6),
            "q3": round(q3, 6)}


def summarize(runs: list[dict], specs: list[dict],
              claim: tuple[str, str] | None = None) -> dict:
    """Per workload, its pairs that have both sides, and per metric of
    ``specs`` (name, unit, better, bound) each side's spread, the change's
    wins, the first-run side's wins, its median change ratio, whether that
    is within the bound and whether the parent's spread leaves it
    unresolved; a workload with no such pair is left out. With ``claim``
    (workload, metric), also the verdict on that metric."""
    workloads: dict[str, dict] = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by = {(r["pair"], r["side"]): r for r in runs
              if r["workload"] == workload}
        pairs = sorted(p for p, side in by if side == "parent"
                       and (p, "change") in by)
        if not pairs:
            continue
        sides = {side: [by[p, side] for p in pairs]
                 for side in ("parent", "change")}
        metrics = {}
        for spec in specs:
            name, bound = spec["name"], spec["bound"]
            lower = spec["better"] == "lower"
            better = operator.lt if lower else operator.gt
            old = [r[name] for r in sides["parent"]]
            new = [r[name] for r in sides["change"]]
            parent, change = _spread(old), _spread(new)
            wins = sum(map(better, new, old))
            first_wins = sum(better(n, o) if r["ran_first"] else better(o, n)
                             for o, n, r in zip(old, new, sides["change"]))
            ratio = change["median"] / parent["median"] - 1
            metrics[name] = {
                "unit": spec["unit"], "better": spec["better"],
                "bound": bound, "parent": parent, "change": change,
                "change_wins": f"{wins}/{len(pairs)}",
                "first_wins": f"{first_wins}/{len(pairs)}",
                "median_change_ratio": round(ratio, 4)}
            if bound is not None:
                worse = ratio if lower else -ratio
                iqr = parent["q3"] - parent["q1"]
                metrics[name]["within_bound"] = worse <= bound
                metrics[name]["unresolved"] = (
                    iqr > bound * parent["median"]
                    and not all(better(n, o) for n in new for o in old))
        workloads[workload] = {
            "pairs": len(pairs),
            "seeds": [by[p, "parent"]["seed"] for p in pairs],
            "correct": all(r["correct"] for rs in sides.values() for r in rs),
            "failed": {s: sum(r["failed"] for r in rs)
                       for s, rs in sides.items()},
            "attempted": {s: sum(r["attempted"] for r in rs)
                          for s, rs in sides.items()},
            "metrics": metrics,
        }
    summary: dict = {"workloads": workloads}
    if claim is not None:
        workload, name = claim
        m = workloads[workload]["metrics"][name]
        wins, n = map(int, m["change_wins"].split("/"))
        gain = m["change"]["median"] - m["parent"]["median"]
        if m["better"] == "lower":
            gain = -gain
        iqr = m["parent"]["q3"] - m["parent"]["q1"]
        failed, attempted = (workloads[workload][k]
                             for k in ("failed", "attempted"))
        # failed/attempted of the change no higher than the parent's
        no_more_failures = (failed["change"] * attempted["parent"]
                            <= failed["parent"] * attempted["change"])
        summary["claim"] = {
            "workload": workload, "metric": name,
            "median_change_ratio": m["median_change_ratio"],
            "change_wins": m["change_wins"],
            "median_difference": round(gain, 6),
            "parent_iqr": round(iqr, 6),
            "met": (n > 0 and wins >= 0.9 * n and gain > iqr
                    and no_more_failures)}
    return summary


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


@contextlib.contextmanager
def parent_checkout(revision: str):
    """The revision's files, exported by ``git archive`` into a temporary
    directory; the repository itself is not written to."""
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        archive = subprocess.run(["git", "archive", revision], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        yield Path(tmp)


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return parse_output(proc.stdout)


def machine() -> dict[str, str]:
    git = _git("--version").removeprefix("git version ")
    return {"nproc": str(len(os.sched_getaffinity(0))),
            "python": platform.python_version(), "git": git}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True,
                        help="revision to compare this checkout against")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--claim", help="workload:metric the change claims")
    parser.add_argument("--change", help="one-line description of the change")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    specs = benchmark["end_to_end"] + [COLD]
    seconds = benchmark["run_seconds"]
    claim = tuple(args.claim.split(":", 1)) if args.claim else None
    parent_sha = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    head = {
        "change": args.change,
        "command": " ".join(benchmark["command"]) + " --workload <w> "
                   f"--seed <seed> --seconds {seconds:g} --trace 0",
        "method": (f"{args.pairs} alternating pairs on seeds {seeds[0]}-"
                   f"{seeds[-1]}, one per seed; odd pairs run the parent "
                   f"({parent_sha[:12]}) first, even pairs the change; each "
                   "side runs from its own checkout; medians and inclusive "
                   "quartiles over the pairs; a win is a pair where the "
                   "change is better, ties count for neither"),
        "machine": machine(),
    }
    runs: list[dict] = []
    with parent_checkout(parent_sha) as parent:
        for k, seed in enumerate(seeds, 1):
            for workload in args.workloads:
                sides = [("parent", parent), ("change", ROOT)]
                if k % 2 == 0:
                    sides.reverse()
                for i, (side, checkout) in enumerate(sides):
                    record = run_once(checkout, benchmark["command"],
                                      workload, seed, seconds)
                    runs.append({"workload": workload, "pair": k,
                                 "seed": seed, "side": side,
                                 "ran_first": i == 0, **record})
                    print(f"pair {k} {workload} {side}: "
                          + json.dumps({n: record.get(n) for n in
                                        ("instances_per_s", "failed")}),
                          file=sys.stderr, flush=True)
            summary = summarize(runs, specs, claim)
            document = {**head, "claim": summary.get("claim"),
                        "workloads": summary["workloads"], "runs": runs}
            args.out.write_text(json.dumps(document, indent=2) + "\n",
                                encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
