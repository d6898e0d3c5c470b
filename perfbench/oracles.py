"""Output checks that do not use patchcrew's own diff or results code.

A resolve patch is judged by the local ``git`` binary: ``git apply
--check`` and then ``git apply`` on a clean copy of the files it should
touch, and the resulting bytes must equal the scripted edit. An evaluation
is judged against the truth table written when its inputs were generated,
with the results file read back by the ``csv`` module.
"""

from __future__ import annotations

import csv
import math
import os
import re
import subprocess
import tempfile
from pathlib import Path

from inputs import EvalTruth

_DIFF_HEADER = re.compile(r"^diff --git a/(\S+) b/(\S+)$", re.MULTILINE)


def _git_apply(args: list[str], cwd: str, patch: str) -> str | None:
    # The ceiling keeps git from treating an enclosing checkout as the repo.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(Path(cwd).parent)}
    proc = subprocess.run(["git", "apply", *args], cwd=cwd, env=env,
                          input=patch.encode(), capture_output=True,
                          check=False)
    if proc.returncode != 0:
        return proc.stderr.decode(errors="replace").strip()
    return None


def check_patch(patch: str, base_files: dict[str, str],
                expected_files: dict[str, str]) -> str | None:
    """None when ``patch`` turns ``base_files`` into ``expected_files``
    exactly and touches no other file; otherwise what went wrong."""
    touched = {b for _, b in _DIFF_HEADER.findall(patch)}
    if touched != set(expected_files):
        return (f"patch touches {sorted(touched)}, expected "
                f"{sorted(expected_files)}")
    with tempfile.TemporaryDirectory(prefix="oracle-") as tmp:
        for path, content in base_files.items():
            target = Path(tmp, path)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(content.encode())
        for args in (["--check"], []):
            error = _git_apply(args, tmp, patch)
            if error is not None:
                return f"git apply {' '.join(args)} failed: {error}"
        for path, content in expected_files.items():
            if Path(tmp, path).read_bytes() != content.encode():
                return f"{path}: bytes differ from the scripted edit"
    return None


def check_evaluation(report, results_csv: Path, analysis,
                     truth: dict[str, EvalTruth]) -> dict[str, str]:
    """Mismatches between an evaluation and the generated truth table, by
    instance id (and "analysis"): each row's generated/applied/resolved
    flags, the same flags as written to the results file, and finite
    logistic coefficients."""
    problems: dict[str, str] = {}
    seen = set()
    for row in report.rows:
        o = row.outcome
        want = truth.get(o.instance_id)
        seen.add(o.instance_id)
        got = EvalTruth(o.generated, o.applied, o.resolved)
        if got != want:
            problems[o.instance_id] = f"got {got}, expected {want}"
    for iid in sorted(set(truth) - seen):
        problems[iid] = "not evaluated"

    with results_csv.open(encoding="utf-8", newline="") as fh:
        written = {r["instance_id"]: r for r in csv.DictReader(fh)}
    for iid, want in truth.items():
        r = written.get(iid)
        flags = None if r is None else tuple(
            r[k] == "true" for k in ("generated", "applied", "resolved"))
        if flags != (want.generated, want.applied, want.resolved):
            problems.setdefault(iid, f"results file has {flags}")

    fits = [f.fit for f in analysis.fits if f.fit is not None]
    if not fits:
        problems["analysis"] = "no logistic fit succeeded"
    for fit in fits:
        if not all(math.isfinite(c) for c in fit.coefficients):
            problems["analysis"] = f"non-finite coefficients {fit.coefficients}"
    return problems
