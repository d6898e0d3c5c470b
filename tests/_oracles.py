"""Independent reference implementations used to check the package.

Each oracle is written the slow, obvious way so a disagreement points at
the implementation under test, not at shared code: overlap via explicit
line sets, BM25 via a per-document textbook scorer, logistic regression
via a hand-rolled two-parameter Newton solver, tokenizing by splitting
twice, a repository's files by walking a checkout, and applying a patch by
the local ``git apply``.
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import tempfile
from pathlib import Path

from patchcrew.custodian import BM25_B, BM25_K1
from patchcrew.intervals import LineIntervalSet

_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")
_NON_ALNUM = re.compile(r"[^0-9A-Za-z]+")


def tokenize_two_pass(text: str) -> list[str]:
    """Split on non-alphanumerics, then split each chunk at camelCase
    boundaries; lowercase, and keep terms of length >= 2."""
    terms: list[str] = []
    for chunk in _NON_ALNUM.split(text):
        if not chunk:
            continue
        for piece in _CAMEL_BOUNDARY.split(chunk):
            lowered = piece.lower()
            if len(lowered) >= 2:
                terms.append(lowered)
    return terms


def read_checkout(root: Path) -> dict[str, str]:
    """Every regular file of a checkout outside .git that decodes as UTF-8,
    as repo-relative posix paths in sorted order."""
    files: dict[str, str] = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file() or path.is_symlink():
            continue
        rel = path.relative_to(root)
        if ".git" in rel.parts:
            continue
        try:
            files[rel.as_posix()] = path.read_bytes().decode("utf-8")
        except UnicodeDecodeError:
            pass
    return files


def git_apply(files: dict[str, str], patch: str) -> dict[str, str]:
    """The files after ``git apply`` of the patch: every file of a temporary
    directory, written from ``files`` and read back by path in sorted
    order. Raises AssertionError with git's message when git refuses."""
    return git_apply_with_modes(files, set(), patch)[0]


def git_apply_with_modes(files: dict[str, str], executable: set[str],
                         patch: str) -> tuple[dict[str, str], set[str], str]:
    """git_apply, with the files named in ``executable`` written with mode
    0755: (the files after, the paths of those that are executable, what
    git printed on stderr)."""
    with tempfile.TemporaryDirectory(prefix="git-apply-") as tmp:
        root = Path(tmp)
        for rel, content in files.items():
            target = root / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(content.encode("utf-8"))
            target.chmod(0o755 if rel in executable else 0o644)
        # the ceiling keeps git from treating an enclosing checkout as the
        # repository, so the patch applies to these files alone
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
        proc = subprocess.run(["git", "apply", "-"], cwd=root, env=env,
                              input=patch.encode("utf-8"),
                              capture_output=True, check=False)
        stderr = proc.stderr.decode(errors="replace")
        assert proc.returncode == 0, stderr
        after = sorted(p for p in root.rglob("*") if p.is_file())
        return ({p.relative_to(root).as_posix(): p.read_bytes().decode("utf-8")
                 for p in after},
                {p.relative_to(root).as_posix() for p in after
                 if p.stat().st_mode & 0o111},
                stderr)


def covered_lines(intervals: LineIntervalSet) -> set[int]:
    """Every line number an interval set covers, one by one."""
    lines: set[int] = set()
    for s, e in intervals.intervals:
        lines.update(range(s, e + 1))
    return lines


def overlap_by_line_sets(ref: LineIntervalSet, gen: LineIntervalSet) -> float:
    ref_lines = covered_lines(ref)
    gen_lines = covered_lines(gen)
    if not ref_lines:
        raise ValueError("empty reference")
    return len(ref_lines & gen_lines) / len(ref_lines)


def bm25_scores_brute(repo_files: dict[str, str],
                      issue_text: str) -> dict[str, float]:
    """Score every document against the query with explicit loops."""
    docs = {}
    for path, content in repo_files.items():
        docs[path] = tokenize_two_pass(content) + tokenize_two_pass(path)
    n = len(docs)
    total_len = sum(len(terms) for terms in docs.values())
    avg_len = (total_len / n) if total_len else 1.0

    query = tokenize_two_pass(issue_text)
    scores = {}
    for path, terms in docs.items():
        score = 0.0
        for q in query:
            f = sum(1 for t in terms if t == q)
            if f == 0:
                continue
            df = sum(1 for other in docs.values() if q in other)
            idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
            norm = 1 - BM25_B + BM25_B * len(terms) / avg_len
            score += idf * f * (BM25_K1 + 1) / (f + BM25_K1 * norm)
        scores[path] = score
    return scores


def newton_logistic_univariate(xs: list[float], ys: list[float],
                               tol: float = 1e-12, max_iter: int = 200
                               ) -> tuple[tuple[float, float],
                                          tuple[float, float]]:
    """Two-parameter logistic MLE ((intercept, slope), their Wald standard
    errors) by plain Newton steps with an explicit 2x2 solve; the standard
    errors come from the inverse of the 2x2 Hessian at the MLE. No numpy,
    no shared code with the package. Raises ValueError when no step falls
    below tol within max_iter steps."""

    def gradient_and_hessian(b0, b1):
        g0 = g1 = 0.0
        h00 = h01 = h11 = 0.0
        for x, y in zip(xs, ys):
            eta = b0 + b1 * x
            p = 1.0 / (1.0 + math.exp(-eta))
            w = p * (1.0 - p)
            g0 += y - p
            g1 += (y - p) * x
            h00 += w
            h01 += w * x
            h11 += w * x * x
        det = h00 * h11 - h01 * h01
        if det == 0:
            raise ValueError("singular Hessian in oracle")
        return g0, g1, h00, h01, h11, det

    b0 = b1 = 0.0
    for _ in range(max_iter):
        g0, g1, h00, h01, h11, det = gradient_and_hessian(b0, b1)
        step0 = (h11 * g0 - h01 * g1) / det
        step1 = (h00 * g1 - h01 * g0) / det
        b0 += step0
        b1 += step1
        if max(abs(step0), abs(step1)) < tol:
            break
    else:
        raise ValueError("no convergence in oracle")
    _, _, h00, _, h11, det = gradient_and_hessian(b0, b1)
    return (b0, b1), (math.sqrt(h11 / det), math.sqrt(h00 / det))
