from __future__ import annotations

import os
import signal
import time
from pathlib import Path

import pytest

import _e2e_data as e2e
from conftest import scripted_gateway

from patchcrew.diffs import compute_diff, render_file_diff
from patchcrew.errors import DegenerateDataError, InstanceError
from patchcrew.evalkit.alignment import (format_distribution, score_alignment,
                                         score_distribution)
from patchcrew.evalkit.driver import (RESULTS_COLUMNS, EvaluationReport,
                                      InstanceEvaluation, analyze_results,
                                      evaluate_directory, evaluate_instance,
                                      format_analysis, headline,
                                      read_results_csv, render_summary,
                                      write_results_csv)
from patchcrew.evalkit.execution import run_tests
from patchcrew.evalkit.metrics import ComplexityIndices, InstanceOutcome
from patchcrew.errors import TransportError
from patchcrew.gitops import Workspace
from patchcrew.llm import API_KEY_ENV
from patchcrew.model import TestSpec, load_instance


GOOD_PATCH = render_file_diff(compute_diff(e2e.CALC_OLD, e2e.CALC_NEW, "calc.py"))
WRONG_PATCH = render_file_diff(compute_diff(
    e2e.CALC_OLD, e2e.CALC_OLD.replace("return a - b\n", "return a * b\n", 1),
    "calc.py"))
STALE_PATCH = GOOD_PATCH.replace(" def add(a, b):", " def addx(a, b):")


# --- command execution ----------------------------------------------------------

def test_run_tests_pass_and_fail(tmp_path):
    ws = Workspace(path=tmp_path, revision="0" * 40)
    spec = TestSpec(pass_to_pass=("true", "true"), fail_to_pass=("false",),
                    timeout_seconds=30)
    result = run_tests(ws, spec)
    assert result.t_old_passed
    assert not result.t_new_passed
    assert [r.passed for r in result.records] == [True, True, False]
    assert [r.command for r in result.records] == ["true", "true", "false"]


def test_run_tests_captures_stderr_and_runs_everything(tmp_path):
    ws = Workspace(path=tmp_path, revision="0" * 40)
    spec = TestSpec(
        pass_to_pass=("echo oops >&2; exit 3", "true"),
        fail_to_pass=(),
        timeout_seconds=30)
    result = run_tests(ws, spec)
    assert not result.t_old_passed
    assert result.t_new_passed
    assert len(result.records) == 2
    assert result.records[0].exit_code == 3
    assert "oops" in result.records[0].stderr_tail


def test_run_tests_times_out(tmp_path):
    ws = Workspace(path=tmp_path, revision="0" * 40)
    spec = TestSpec(pass_to_pass=("sleep 5",), fail_to_pass=(),
                    timeout_seconds=1)
    result = run_tests(ws, spec)
    assert not result.t_old_passed
    assert result.records[0].timed_out
    assert result.records[0].exit_code is None
    assert not result.records[0].passed


def _alive(pid: int) -> bool:
    """True while pid names a process that has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.fixture()
def child_pid_file(tmp_path):
    """A file a command writes its background child's pid to; the child
    is killed at teardown if it is still running."""
    pid_file = tmp_path / "child.pid"
    yield pid_file
    if pid_file.exists() and _alive(pid := int(pid_file.read_text())):
        os.kill(pid, signal.SIGKILL)


def test_timeout_kills_the_commands_children(tmp_path, child_pid_file):
    ws = Workspace(path=tmp_path, revision="0" * 40)
    spec = TestSpec(pass_to_pass=(f"sleep 5 & echo $! > {child_pid_file}; "
                                  "wait",),
                    fail_to_pass=(), timeout_seconds=1)
    assert run_tests(ws, spec).records[0].timed_out
    pid = int(child_pid_file.read_text())
    deadline = time.monotonic() + 2
    while _alive(pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not _alive(pid)


def test_timeout_does_not_wait_for_a_child_that_left_the_session(
        tmp_path, child_pid_file):
    ws = Workspace(path=tmp_path, revision="0" * 40)
    spec = TestSpec(pass_to_pass=("echo partial >&2; setsid sleep 4 & "
                                  f"echo $! > {child_pid_file}; sleep 5",),
                    fail_to_pass=(), timeout_seconds=1)
    started = time.monotonic()
    record = run_tests(ws, spec).records[0]
    assert time.monotonic() - started < 3.5
    assert record.timed_out
    assert record.stderr_tail == "partial\n"


def test_commands_do_not_see_the_api_key(tmp_path, monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "leaked")
    monkeypatch.setenv("PATCHCREW_PROBE", "kept")
    ws = Workspace(path=tmp_path, revision="0" * 40)
    spec = TestSpec(
        pass_to_pass=(f'echo "${API_KEY_ENV}" >&2; test -z "${API_KEY_ENV}"',
                      'test "$PATCHCREW_PROBE" = kept',
                      "python3 -c pass"),
        fail_to_pass=(), timeout_seconds=30)
    result = run_tests(ws, spec)
    assert "leaked" not in result.records[0].stderr_tail
    assert [r.passed for r in result.records] == [True, True, True]


def test_run_tests_runs_in_workspace_directory(tmp_path):
    (tmp_path / "flag.txt").write_text("here\n", encoding="utf-8")
    ws = Workspace(path=tmp_path, revision="0" * 40)
    spec = TestSpec(pass_to_pass=("test -f flag.txt",), fail_to_pass=(),
                    timeout_seconds=30)
    assert run_tests(ws, spec).t_old_passed


# --- single-instance evaluation ----------------------------------------------------

def _instance(fixture_instance_file):
    return load_instance(fixture_instance_file)


def test_evaluate_instance_without_change(fixture_instance_file):
    evaluation = evaluate_instance(_instance(fixture_instance_file), None,
                                   note="no patch file")
    o = evaluation.outcome
    assert not o.generated
    assert not o.applied
    assert not o.resolved
    assert o.overlap_ratio is None
    assert o.complexity == ComplexityIndices(0, 0, 0, 0, 0, 0, 0, 0)
    assert evaluation.notes == "no patch file"


def test_evaluate_instance_resolves_good_change(fixture_instance_file,
                                                tmp_path):
    from patchcrew.diffs import parse_diff
    change = parse_diff(GOOD_PATCH)
    evaluation = evaluate_instance(_instance(fixture_instance_file), change,
                                   reference=parse_diff(GOOD_PATCH),
                                   run_root=tmp_path)
    o = evaluation.outcome
    assert o.generated and o.applied and o.t_old_passed and o.t_new_passed
    assert o.resolved
    assert o.overlap_ratio == 1.0
    assert o.complexity.n_files == 1
    assert o.complexity.changed_loc == 2


def test_evaluate_instance_apply_failure_is_an_outcome(fixture_instance_file,
                                                       tmp_path):
    from patchcrew.diffs import parse_diff
    change = parse_diff(STALE_PATCH)
    evaluation = evaluate_instance(_instance(fixture_instance_file), change,
                                   run_root=tmp_path)
    o = evaluation.outcome
    assert o.generated
    assert not o.applied
    assert not o.resolved
    assert "calc.py" in evaluation.notes


# --- directory evaluation ------------------------------------------------------------

@pytest.fixture(scope="module")
def batch_eval(fixture_repo, tmp_path_factory):
    """Four instances over the toy repository: two fixed correctly, one
    patched wrongly (applies, fails the new checks), one with a stale
    patch that no longer applies. Applied 75.00, resolved 50.00."""
    repo, sha = fixture_repo
    root = tmp_path_factory.mktemp("batch")
    instances = root / "instances"
    changes = root / "changes"
    instances.mkdir()
    changes.mkdir()
    patches = {"good-a": GOOD_PATCH, "good-b": GOOD_PATCH,
               "wrong-c": WRONG_PATCH, "stale-d": STALE_PATCH}
    for iid, patch_text in patches.items():
        e2e.write_instance(instances / f"{iid}.json", repo, sha,
                           instance_id=iid)
        (changes / f"{iid}.patch").write_text(patch_text, encoding="utf-8")
    (instances / "good-a.ref.patch").write_text(GOOD_PATCH, encoding="utf-8")
    (instances / "wrong-c.ref.patch").write_text(GOOD_PATCH, encoding="utf-8")
    (changes / "stray.patch").write_text(GOOD_PATCH, encoding="utf-8")
    report = evaluate_directory(instances, changes, run_root=root)
    return report, root


def test_evaluate_directory_ratios(batch_eval):
    report, _ = batch_eval
    assert headline(report) == "Applied 75.00 / Resolved 50.00"
    assert report.generated_count() == 4
    by_id = {r.outcome.instance_id: r.outcome for r in report.rows}
    assert by_id["good-a"].resolved
    assert by_id["good-b"].resolved
    assert by_id["wrong-c"].applied and not by_id["wrong-c"].resolved
    assert not by_id["wrong-c"].t_new_passed
    assert by_id["wrong-c"].t_old_passed
    assert not by_id["stale-d"].applied


def test_evaluate_directory_reference_overlap(batch_eval):
    report, _ = batch_eval
    by_id = {r.outcome.instance_id: r.outcome for r in report.rows}
    assert by_id["good-a"].overlap_ratio == 1.0
    assert by_id["wrong-c"].overlap_ratio == 1.0
    assert by_id["good-b"].overlap_ratio is None


def test_evaluate_directory_warns_on_unmatched_patches(batch_eval):
    report, _ = batch_eval
    assert any("stray.patch" in w for w in report.warnings)


def test_evaluate_directory_requires_instances(tmp_path):
    (tmp_path / "changes").mkdir()
    with pytest.raises(InstanceError, match="no instance files"):
        evaluate_directory(tmp_path, tmp_path / "changes")


def test_evaluate_directory_missing_patch_counts_unresolved(fixture_repo,
                                                            tmp_path):
    repo, sha = fixture_repo
    instances = tmp_path / "instances"
    changes = tmp_path / "changes"
    instances.mkdir()
    changes.mkdir()
    e2e.write_instance(instances / "alone.json", repo, sha,
                       instance_id="alone")
    report = evaluate_directory(instances, changes, run_root=tmp_path)
    assert report.generated_count() == 0
    assert headline(report) == "Applied 0.00 / Resolved 0.00"
    assert report.rows[0].notes == "no patch file"


# --- results files ----------------------------------------------------------------------

def test_results_csv_round_trip(batch_eval, tmp_path):
    report, _ = batch_eval
    path = tmp_path / "out" / "results.csv"
    write_results_csv(report, path)
    rows = read_results_csv(path)
    assert len(rows) == 4
    assert list(rows[0]) == list(RESULTS_COLUMNS)
    by_id = {r["instance_id"]: r for r in rows}
    assert by_id["good-a"]["resolved"] == "true"
    assert by_id["good-a"]["overlap_ratio"] == "1.0"
    assert by_id["good-b"]["overlap_ratio"] == ""
    assert by_id["stale-d"]["applied"] == "false"
    assert by_id["good-a"]["changed_loc"] == "2"


def test_read_results_csv_rejects_other_files(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="missing columns"):
        read_results_csv(path)


def test_render_summary_content(batch_eval):
    report, _ = batch_eval
    text = render_summary(report)
    assert text.startswith("Applied 75.00 / Resolved 50.00\n")
    assert "Instances evaluated: 4" in text
    assert "Complexity of resolved changes:" in text
    assert "Complexity of applied-but-not-resolved changes:" in text
    assert "mean 1.0000" in text
    assert "warning: unmatched change file skipped: stray.patch" in text


# --- analysis ------------------------------------------------------------------------------

def _synthetic_report(n_easy: int, n_hard: int,
                      easy_resolved: int, hard_resolved: int,
                      all_resolved: bool = False) -> EvaluationReport:
    rows = []
    overlap_samples = [0.05, 0.45, 0.95, 1.0]
    i = 0
    for group, count, resolved_count in (("easy", n_easy, easy_resolved),
                                         ("hard", n_hard, hard_resolved)):
        n_files = 1 if group == "easy" else 4
        for j in range(count):
            resolved = all_resolved or j < resolved_count
            complexity = ComplexityIndices(
                n_files=n_files, n_functions=1, n_hunks=n_files,
                added_loc=n_files, deleted_loc=1, changed_loc=n_files + 1,
                change_start_index=1, change_end_index=5)
            outcome = InstanceOutcome(
                instance_id=f"{group}-{j}", generated=True, applied=True,
                t_old_passed=resolved, t_new_passed=resolved,
                overlap_ratio=overlap_samples[i % len(overlap_samples)],
                complexity=complexity)
            rows.append(InstanceEvaluation(outcome=outcome, change=None))
            i += 1
    return EvaluationReport(rows=rows, warnings=[])


def test_analyze_results_finds_planted_effect(tmp_path):
    report = _synthetic_report(n_easy=15, n_hard=15,
                               easy_resolved=13, hard_resolved=2)
    path = tmp_path / "results.csv"
    write_results_csv(report, path)
    result = analyze_results(path)
    assert result.n_rows == 30
    assert result.n_generated == 30
    by_label = {f.label: f for f in result.fits}

    files_fit = by_label["# Code Files"]
    assert files_fit.fit is not None and files_fit.fit.converged
    assert files_fit.fit.coefficients[1] < 0
    assert files_fit.significant

    constant = by_label["# Functions"]
    assert constant.fit is None
    assert "singular" in constant.error

    assert sum(count for _, _, count in result.histogram) == 30
    assert result.histogram[0][2] > 0
    assert result.histogram[9][2] > 0

    text = format_analysis(result)
    assert "# Code Files" in text
    assert " *" in text
    assert "n/a" in text
    assert "0.9-1.0" in text


def test_analyze_results_needs_ten_rows(tmp_path):
    report = _synthetic_report(n_easy=4, n_hard=4,
                               easy_resolved=3, hard_resolved=1)
    path = tmp_path / "results.csv"
    write_results_csv(report, path)
    with pytest.raises(ValueError, match="at least 10 rows"):
        analyze_results(path)


def test_analyze_results_rejects_single_class(tmp_path):
    report = _synthetic_report(n_easy=6, n_hard=6, easy_resolved=6,
                               hard_resolved=6, all_resolved=True)
    path = tmp_path / "results.csv"
    write_results_csv(report, path)
    with pytest.raises(DegenerateDataError, match="both resolved and"):
        analyze_results(path)


# --- alignment scoring -------------------------------------------------------------------

def test_score_alignment_parses_rubric_score():
    gw = scripted_gateway({"ALIGNMENT_SCORE": "justification\nSCORE: 4"})
    assert score_alignment(gw, "task", "diff text") == 4


def test_score_alignment_returns_none_when_unusable():
    gw = scripted_gateway({"ALIGNMENT_SCORE": "never says the magic word"})
    assert score_alignment(gw, "task", "diff text") is None

    def boom(_prompt):
        raise TransportError("down", attempts=3)

    assert score_alignment(scripted_gateway({"ALIGNMENT_SCORE": boom}),
                           "task", "diff") is None


def test_score_distribution_and_format():
    dist = score_distribution([5, 5, 4, None, 1, 5])
    assert dist == {1: 1, 2: 0, 3: 0, 4: 1, 5: 3}
    text = format_distribution(dist)
    lines = text.splitlines()
    assert lines[0] == "Score  Count"
    assert lines[1].split() == ["1", "1"]
    assert lines[5].split() == ["5", "3"]
