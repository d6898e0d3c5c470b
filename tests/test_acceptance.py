"""Acceptance checks for the whole package.

Each test exercises one externally stated guarantee end to end, at its
stated tolerance and time bound, against independent oracles where one
exists. They are deliberately redundant with the unit suites: these are
the checks that must hold for the package to be considered working.
"""

from __future__ import annotations

import json
import random
import subprocess
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _e2e_data as e2e
from _oracles import (bm25_scores_brute, newton_logistic_univariate,
                      overlap_by_line_sets)
from conftest import documents, reader, scripted_gateway

from patchcrew.cli import main
from patchcrew.coder import Coder
from patchcrew.custodian import Custodian, rank_files
from patchcrew.diffs import (CodeChange, compute_diff, parse_diff,
                             render_change)
from patchcrew.evalkit.logistic import logistic_fit
from patchcrew.evalkit.metrics import (InstanceOutcome, applied_ratio,
                                       complexity_of, overlap_ratio, recall,
                                       resolved_ratio)
from patchcrew.gitops import apply_change, snapshot
from patchcrew.intervals import LineIntervalSet
from patchcrew.llm import Gateway, ReplayBackend
from patchcrew.model import TaskAssignment, instance_from_dict
from patchcrew.runner import RunConfig, resolve_instance


WORDS = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
         "hotel", "india", "juliet")


def _random_normalized(rng: random.Random, *, allow_empty: bool) -> LineIntervalSet:
    if allow_empty and rng.random() < 0.1:
        return LineIntervalSet(())
    n = rng.randint(1, 6)
    intervals = []
    cursor = rng.randint(1, 20)
    for _ in range(n):
        start = cursor
        end = start + rng.randint(0, 15)
        intervals.append((start, end))
        cursor = end + rng.randint(1, 10)
    return LineIntervalSet(tuple(intervals))


def test_c01_overlap_agrees_with_line_set_oracle():
    """1,000 seeded random normalized interval pairs score identically
    under the interval arithmetic and an explicit line-set count."""
    rng = random.Random(20240819)
    started = time.monotonic()
    for _ in range(1000):
        ref = _random_normalized(rng, allow_empty=False)
        gen = _random_normalized(rng, allow_empty=True)
        got = overlap_ratio(ref, gen)
        expected = overlap_by_line_sets(ref, gen)
        assert got == expected or abs(got - expected) < 1e-12
    assert time.monotonic() - started < 5.0


def test_c02_overlap_worked_example_and_extremes():
    """{[10,20]} against {[15,30]} overlaps 6/11; an identical pair scores
    1.0 and a disjoint pair 0.0."""
    ref = LineIntervalSet.of((10, 20))
    gen = LineIntervalSet.of((15, 30))
    assert abs(overlap_ratio(ref, gen) - 6 / 11) < 1e-12
    assert overlap_ratio(ref, ref) == 1.0
    assert overlap_ratio(ref, LineIntervalSet.of((30, 40))) == 0.0


def _random_lines(rng: random.Random, n: int) -> list[str]:
    return [" ".join(rng.choices(WORDS, k=rng.randint(1, 5))) + "\n"
            for _ in range(n)]


def _mutate(rng: random.Random, lines: list[str]) -> list[str]:
    out = list(lines)
    for _ in range(rng.randint(1, 5)):
        op = rng.choice(("insert", "delete", "replace"))
        if op == "insert" or not out:
            out.insert(rng.randint(0, len(out)),
                       " ".join(rng.choices(WORDS, k=3)) + "\n")
        elif op == "delete":
            out.pop(rng.randrange(len(out)))
        else:
            out[rng.randrange(len(out))] = "replaced " + rng.choice(WORDS) + "\n"
    if out and rng.random() < 0.25:
        out[-1] = out[-1].rstrip("\n") or "tail"
    return out


def _tree_bytes(root) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and ".git" not in p.relative_to(root).parts}


def test_c03_diff_apply_round_trip_and_failure_atomicity(tmp_path):
    """Across 100 seeded (file, mutation) pairs, git applies the computed
    diff in a snapshot and reproduces the target byte for byte; a forced
    mismatch is refused and leaves the snapshot at its revision."""
    rng = random.Random(1729)
    repo = tmp_path / "origin"
    sha = e2e.build_fixture_repo(repo, {"pkg/mod.txt": "committed\n"})
    ws = snapshot(repo, sha, root=tmp_path)
    target = ws.path / "pkg" / "mod.txt"
    committed = _tree_bytes(ws.path)
    started = time.monotonic()
    for case in range(100):
        subprocess.run(["git", "checkout", "--quiet", "--", "."],
                       cwd=ws.path, check=True)
        force_failure = case % 10 == 9
        if force_failure:
            old_lines = _random_lines(rng, rng.randint(3, 30))
            new_lines = list(old_lines)
            victim = rng.randrange(1, len(new_lines) - 1)
            new_lines[victim] = "patched line\n"
        else:
            old_lines = _random_lines(rng, rng.randint(0, 40))
            new_lines = _mutate(rng, old_lines)
        old = "".join(old_lines)
        new = "".join(new_lines)
        patch = render_change(CodeChange((
            compute_diff(old, new, "pkg/mod.txt"),))).encode("utf-8")

        if force_failure:
            corrupted = list(old_lines)
            corrupted[victim] = "sentinel mismatch\n"
            target.write_text("".join(corrupted), encoding="utf-8")
            assert apply_change(ws, patch) is not None
            assert _tree_bytes(ws.path) == committed

        target.write_text(old, encoding="utf-8")
        assert apply_change(ws, patch) is None
        assert target.read_bytes() == new.encode("utf-8")
    assert time.monotonic() - started < 30.0


def test_c04_replay_run_reproduces_patch_and_evaluates_clean(
        fixture_repo, fixture_instance_file, tmp_path, capsys):
    """The recorded fixture drives a full resolve to the checked-in patch,
    and evaluating that patch (actually running the repository's check
    commands) reports full application and resolution, with no network."""
    started = time.monotonic()
    out_dir = tmp_path / "runs"
    code = main(["resolve", str(fixture_instance_file),
                 "--cassette", str(e2e.CASSETTE_PATH),
                 "--top-k", str(e2e.TOP_K),
                 "--meeting-rounds", str(e2e.MEETING_ROUNDS),
                 "--out-dir", str(out_dir)])
    assert code == 0
    patch_path = out_dir / f"{e2e.INSTANCE_ID}.patch"
    assert patch_path.read_bytes() == e2e.EXPECTED_PATCH_PATH.read_bytes()
    run_text = (out_dir / e2e.INSTANCE_ID / "run.txt").read_text(
        encoding="utf-8")
    assert "network_calls: 0" in run_text
    assert "mode: replay" in run_text

    capsys.readouterr()
    eval_out = tmp_path / "eval-out"
    code = main(["evaluate",
                 "--instances", str(fixture_instance_file.parent),
                 "--changes", str(out_dir),
                 "--out", str(eval_out)])
    out = capsys.readouterr().out
    assert code == 0
    assert "Applied 100.00 / Resolved 100.00" in out
    rows = (eval_out / "results.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 2
    assert rows[1].startswith(f"{e2e.INSTANCE_ID},true,true,true,true,true,")
    assert time.monotonic() - started < 60.0


def test_c05_summaries_are_memoized_and_updated_incrementally():
    """Re-locating over an unchanged repository asks for no new file
    summaries, and a small edit costs one incremental update rather than a
    fresh summarization."""
    gateway = Gateway(ReplayBackend(e2e.CASSETTE_PATH))
    custodian = Custodian(gateway)
    custodian.locate(documents(e2e.REPO_FILES), e2e.ISSUE_TEXT, e2e.TOP_K,
                     reader(e2e.REPO_FILES))
    p2_after_first = gateway.call_counts.get("P2", 0)
    assert p2_after_first == len(e2e.REPO_FILES)

    custodian.locate(documents(e2e.REPO_FILES), e2e.ISSUE_TEXT, e2e.TOP_K,
                     reader(e2e.REPO_FILES))
    assert gateway.call_counts.get("P2", 0) == p2_after_first

    custodian.summarize_file(e2e.MEMO_PATH, e2e.MEMO_OLD)
    p2_before_edit = gateway.call_counts.get("P2", 0)
    assert gateway.call_counts.get("P1", 0) == 0
    custodian.summarize_file(e2e.MEMO_PATH, e2e.MEMO_NEW)
    assert gateway.call_counts.get("P1", 0) == 1
    assert gateway.call_counts.get("P2", 0) == p2_before_edit


FILE = "def f():\n    return 1\n\ndef g():\n    return 2\n"


def _review_responses(verdicts: list[str]):
    def handle(prompt: str) -> str:
        if "Current phase: decision" in prompt:
            return f"DECISION: {verdicts.pop(0)}"
        return "needs work"
    return handle


def test_c06_review_loop_iteration_budget():
    """Three straight rejections run exactly three developer iterations
    within at most six review calls; an immediate approval runs one."""
    task = TaskAssignment(file_path="mod.py", task_text="fix it",
                          developer_role="dev", qa_role="qa")
    gw = scripted_gateway({"P9": "[[2,2]]", "P10": "    return 10\n",
                           "P11": _review_responses(["NO", "NO", "NO"])})
    result = Coder(gw, n_max=3).execute_task(task, FILE)
    assert result.iterations == 3
    assert not result.approved
    assert gw.call_counts["P11"] <= 6

    gw = scripted_gateway({"P9": "[[2,2]]", "P10": "    return 10\n",
                           "P11": _review_responses(["YES"])})
    result = Coder(gw, n_max=3).execute_task(task, FILE)
    assert result.iterations == 1
    assert result.approved


def test_c07_ranking_matches_per_document_scorer():
    """On seeded corpora of up to 20 documents the ranker agrees with a
    brute-force per-document scorer to 1e-9, breaking ties by path."""
    rng = random.Random(90210)
    for trial in range(30):
        n = rng.randint(2, 20)
        files = {}
        for i in range(n):
            text = " ".join(rng.choices(WORDS, k=rng.randint(2, 60)))
            files[f"src/m{i:02d}.py"] = text
        if trial % 3 == 0:
            files["src/zz_dup.py"] = files[f"src/m00.py"]
            files["src/aa_dup.py"] = files[f"src/m00.py"]
        issue = " ".join(rng.choices(WORDS, k=rng.randint(2, 10)))
        expected = bm25_scores_brute(files, issue)
        ranked = rank_files(documents(files), issue)
        for rf in ranked:
            assert abs(rf.bm25_score - expected[rf.path]) < 1e-9
        for a, b in zip(ranked, ranked[1:]):
            assert a.bm25_score > b.bm25_score or (
                a.bm25_score == b.bm25_score and a.path < b.path)


def test_c08_logistic_recovery_oracle_agreement_and_separation():
    """A 500-row synthetic fit lands within three standard errors of the
    generating coefficients, matches an independent Newton solver to 1e-6,
    never lets the log-likelihood decrease, and declares perfect
    separation unconverged."""
    rng = random.Random(500500)
    truth = (-0.5, 1.25)
    xs, ys = [], []
    for _ in range(500):
        x = rng.gauss(0.0, 1.0)
        import math
        p = 1.0 / (1.0 + math.exp(-(truth[0] + truth[1] * x)))
        xs.append(x)
        ys.append(1 if rng.random() < p else 0)

    fit = logistic_fit(xs, ys)
    assert fit.converged
    for est, se, true_value in zip(fit.coefficients, fit.std_errors, truth):
        assert abs(est - true_value) < 3 * se

    (b0, b1), _ = newton_logistic_univariate(xs, [float(v) for v in ys])
    assert abs(fit.coefficients[0] - b0) < 1e-6
    assert abs(fit.coefficients[1] - b1) < 1e-6

    history = fit.ll_history
    assert all(later >= earlier - 1e-12
               for earlier, later in zip(history, history[1:]))

    separated_x = [float(i) for i in range(-8, 8)]
    separated_y = [0 if x < 0 else 1 for x in separated_x]
    sep_fit = logistic_fit(separated_x, separated_y)
    assert not sep_fit.converged
    assert "separation" in sep_fit.diagnostic


@st.composite
def _outcome_lists(draw):
    n = draw(st.integers(1, 12))
    outcomes = []
    for i in range(n):
        generated = draw(st.booleans())
        applied = generated and draw(st.booleans())
        outcomes.append(InstanceOutcome(
            instance_id=f"i{i}", generated=generated, applied=applied,
            t_old_passed=draw(st.booleans()),
            t_new_passed=draw(st.booleans()),
            overlap_ratio=None,
            complexity=complexity_of(CodeChange(()))))
    return outcomes


@given(_outcome_lists())
def test_c09a_resolution_never_exceeds_application(outcomes):
    assert resolved_ratio(outcomes) <= applied_ratio(outcomes)


@given(st.lists(st.sampled_from(WORDS), min_size=1, max_size=12),
       st.sets(st.sampled_from(WORDS), min_size=1, max_size=5))
def test_c09b_recall_grows_with_prefix_depth(ranked, reference):
    values = [recall(ranked[:depth], reference)
              for depth in range(1, len(ranked) + 1)]
    assert values == sorted(values)
    assert all(0.0 <= v <= 100.0 for v in values)


@settings(max_examples=60)
@given(st.text(alphabet="ab\n", max_size=120),
       st.text(alphabet="ab\n", max_size=120))
def test_c09c_changed_lines_decompose_on_parsed_diffs(old, new):
    change = CodeChange((compute_diff(old, new, "f"),))
    parsed = parse_diff(render_change(change))
    indices = complexity_of(parsed)
    assert indices.changed_loc == indices.added_loc + indices.deleted_loc
    assert indices == complexity_of(change)


def test_c10_replay_runs_are_byte_identical(fixture_repo,
                                            fixture_instance_file, tmp_path,
                                            capsys):
    """Two back-to-back replay resolves and evaluations produce identical
    patch bytes and identical results files."""
    patches = []
    results = []
    for run in ("one", "two"):
        out_dir = tmp_path / run / "runs"
        code = main(["resolve", str(fixture_instance_file),
                     "--cassette", str(e2e.CASSETTE_PATH),
                     "--top-k", str(e2e.TOP_K),
                     "--meeting-rounds", str(e2e.MEETING_ROUNDS),
                     "--out-dir", str(out_dir)])
        assert code == 0
        patches.append((out_dir / f"{e2e.INSTANCE_ID}.patch").read_bytes())

        eval_out = tmp_path / run / "eval-out"
        code = main(["evaluate",
                     "--instances", str(fixture_instance_file.parent),
                     "--changes", str(out_dir),
                     "--out", str(eval_out)])
        assert code == 0
        results.append((eval_out / "results.csv").read_bytes())
    assert patches[0] == patches[1]
    assert results[0] == results[1]


# Every awkward line shape git and the diff model must agree on.
ADVERSARIAL_FILES = {
    "crlf.py": b"def widget():\r\n    return 1\r\n\r\nx = 2\r\n",
    "lone_cr.txt": b"widget one\rstill one\nwidget two\n",
    "no_newline.py": b"widget = 1\nlast = 2",
    "empty.py": b"",
    "form_feed.py": b"widget\n\x0c\ndef f():\n    pass\n",
    "unicode.py": "widget = 'h\u00e9llo \u2603'\n\u03c0 = 3.14\n".encode(),
}
_NASTY_LINES = ("\r", "\x00", "\u0085", "```", "```python",
                "diff --git a/x b/x", "@@ -1,2 +1,2 @@",
                "\\ No newline at end of file", "--- a/x", "+++ b/x",
                "\u00e9t\u00e9 \u2603", "\x0c", "")


class AdversarialBackend:
    """Answers drawn from the seed and the call's key alone, so threads
    arriving in any order see the same answers: P9 intervals out of range
    or reversed, P10 blocks with carriage returns, NUL, U+0085, code
    fences and lines that read like diff syntax."""

    mode = "live"
    network_calls = 0

    def __init__(self, seed: int):
        self.seed = seed

    def complete(self, key: str, template_id: str, rendered_prompt: str) -> str:
        rng = random.Random(f"{self.seed}:{key}")
        if template_id == "P9":
            pairs = [[rng.randint(-2, 12), rng.randint(-2, 12)]
                     for _ in range(rng.randint(0, 3))]
            return f"These lines.\n{json.dumps(pairs)}"
        if template_id == "P10":
            lines = [rng.choice(_NASTY_LINES) + rng.choice(("", " y = 1", "z"))
                     for _ in range(rng.randint(0, 4))]
            block = (rng.choice(("\n", "\r\n", "\r")).join(lines)
                     + rng.choice(("", "\n", "\r\n")))
            return f"```\n{block}\n```" if rng.random() < 0.2 else block
        if "Current phase: decision" in rendered_prompt:
            return f"DECISION: {rng.choice(('YES', 'NO'))}"
        if template_id == "P3":
            return "DECISION: YES"
        if template_id == "P7":
            return "[[0, 1], [2, 3, 4, 5]]"
        return "An answer."


@pytest.fixture(scope="module")
def adversarial_repo(tmp_path_factory):
    repo = tmp_path_factory.mktemp("adversarial") / "repo"
    repo.mkdir()
    for path, data in ADVERSARIAL_FILES.items():
        (repo / path).write_bytes(data)
    return repo, e2e.commit_all(repo), tmp_path_factory.mktemp("runs")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_c11_resolved_patch_applies_with_git_to_the_coders_content(
        adversarial_repo, seed):
    """Whatever the model answers, the patch a resolve writes applies with
    git at the base revision and leaves each changed file equal, byte for
    byte, to the coder's new content, and every other file as it was."""
    repo, sha, out_dir = adversarial_repo
    instance = instance_from_dict({
        "instance_id": "adversarial", "repo_path": str(repo),
        "base_revision": sha, "issue_text": "The widget breaks."})
    config = RunConfig(llm_mode="live", top_k=len(ADVERSARIAL_FILES),
                       meeting_rounds=1, out_dir=out_dir)
    outcome = resolve_instance(instance, config,
                               Gateway(AdversarialBackend(seed)))
    expected = dict(ADVERSARIAL_FILES)
    for result in outcome.task_results:
        if result.file_diff.hunks:
            expected[result.task.file_path] = result.new_content.encode()
    patch = outcome.patch_path.read_bytes()
    with tempfile.TemporaryDirectory() as tmp:
        clone = Path(tmp) / "clone"
        subprocess.run(["git", "clone", "-q", str(repo), str(clone)],
                       check=True)
        if patch:
            applied = subprocess.run(["git", "apply", "-"], cwd=clone,
                                     input=patch, capture_output=True)
            assert applied.returncode == 0, applied.stderr.decode()
        assert _tree_bytes(clone) == expected
