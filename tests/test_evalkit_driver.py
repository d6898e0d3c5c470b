from __future__ import annotations

import json
import logging
import os
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

import _e2e_data as e2e

from patchcrew.diffs import compute_diff, render_file_diff
from patchcrew.errors import DegenerateDataError, GitError, InstanceError
from patchcrew.evalkit import driver
from patchcrew.evalkit.driver import (RESULTS_COLUMNS, EvaluationReport,
                                      InstanceEvaluation, analyze_results,
                                      evaluate_directory, evaluate_instance,
                                      format_analysis, headline,
                                      read_results_csv, render_summary,
                                      write_results_csv)
from patchcrew.evalkit.execution import run_tests
from patchcrew.evalkit.metrics import ComplexityIndices, InstanceOutcome
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


def _group_members(group: int) -> list[int]:
    """The live processes (zombies aside) of a process group."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if fields[0] != "Z" and int(fields[2]) == group:
            members.append(int(stat.parent.name))
    return members


def test_a_finished_command_leaves_nothing_in_its_group(tmp_path,
                                                       child_pid_file):
    group_file = tmp_path / "group"
    ws = Workspace(path=tmp_path, revision="0" * 40)
    spec = TestSpec(pass_to_pass=(f"echo $$ > {group_file}; "
                                  "sleep 30 >/dev/null 2>&1 & "
                                  f"echo $! > {child_pid_file}",),
                    fail_to_pass=(), timeout_seconds=30)
    assert run_tests(ws, spec).t_old_passed
    group = int(group_file.read_text())
    deadline = time.monotonic() + 2
    while _group_members(group) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _group_members(group) == []


_NOISE = (
    "import sys\n"
    "def line(i):\n"
    "    return f'{i} \\u00e9\\u20ac\\U0001f600 ' + 'x' * 40 + '\\n'\n"
    "def main(n):\n"
    "    for start in range(0, n, 1000):\n"
    "        block = ''.join(map(line, range(start, start + 1000)))\n"
    "        sys.stdout.write(block)\n"
    "        sys.stderr.write(block)\n")


def test_command_output_keeps_only_the_stderr_tail(tmp_path):
    # about 20 MB to each stream, with characters of 2, 3 and 4 bytes
    n = 350_000
    (tmp_path / "noise.py").write_text(
        _NOISE + f"main({n})\n", encoding="utf-8")
    ws = Workspace(path=tmp_path, revision="0" * 40)
    spec = TestSpec(pass_to_pass=(f"{sys.executable} -X utf8 noise.py",),
                    fail_to_pass=(), timeout_seconds=60)
    tracemalloc.start()
    try:
        record = run_tests(ws, spec).records[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record.passed
    scope: dict = {}
    exec(_NOISE, scope)
    assert len(scope["line"](n - 1).encode("utf-8")) * n > 20_000_000
    expected = "".join(map(scope["line"], range(n - 100, n)))[-2000:]
    assert record.stderr_tail == expected
    assert peak < 1 << 20


def test_stderr_that_is_not_utf8_is_kept_with_replacements(tmp_path):
    ws = Workspace(path=tmp_path, revision="0" * 40)
    spec = TestSpec(pass_to_pass=("printf 'a\\377b\\r\\n' >&2; exit 4",),
                    fail_to_pass=(), timeout_seconds=30)
    record = run_tests(ws, spec).records[0]
    assert record.exit_code == 4
    assert record.stderr_tail == "a\ufffdb\r\n"


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


def test_commands_do_not_see_the_callers_git_variables(tmp_path, monkeypatch):
    # git exports GIT_DIR to the hooks it runs (githooks(5))
    checkout = tmp_path / "checkout"
    checkout.mkdir()
    (checkout / "f.txt").write_text("instance\n", encoding="utf-8")
    e2e.commit_all(checkout)
    other = tmp_path / "other"
    subprocess.run(["git", "init", "-q", str(other)], check=True)
    monkeypatch.setenv("GIT_DIR", str(other / ".git"))
    monkeypatch.setenv("GIT_WORK_TREE", str(other))
    ws = Workspace(path=checkout, revision="0" * 40)
    spec = TestSpec(pass_to_pass=(),
                    fail_to_pass=('test -z "$GIT_DIR$GIT_WORK_TREE"',
                                  "git ls-files --error-unmatch f.txt"),
                    timeout_seconds=30)
    result = run_tests(ws, spec)
    assert [r.passed for r in result.records] == [True, True]


@pytest.fixture()
def many_descriptors():
    """Hold open enough descriptors that the next ones are numbered past
    1023, which select() cannot watch; a soft limit of open files below
    that is raised for this process while they are held."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if hard != resource.RLIM_INFINITY and hard < 1100:
        pytest.skip(f"the hard limit of open files is {hard}")
    if soft != resource.RLIM_INFINITY and soft < 1100:
        resource.setrlimit(resource.RLIMIT_NOFILE, (1100, hard))
    held = []
    try:
        while not held or held[-1] < 1030:
            held.append(os.open(os.devnull, os.O_RDONLY))
        yield
    finally:
        for fd in held:
            os.close(fd)
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))


def test_run_tests_with_descriptors_past_1023_open(tmp_path,
                                                   many_descriptors):
    ws = Workspace(path=tmp_path, revision="0" * 40)
    spec = TestSpec(pass_to_pass=("echo ok >&2",), fail_to_pass=("sleep 5",),
                    timeout_seconds=1)
    result = run_tests(ws, spec)
    assert result.records[0].passed
    assert result.records[0].stderr_tail == "ok\n"
    assert result.records[1].timed_out


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
                                   b"", note="no patch file")
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
                                   GOOD_PATCH.encode(),
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
                                   STALE_PATCH.encode(), run_root=tmp_path)
    o = evaluation.outcome
    assert o.generated
    assert not o.applied
    assert not o.resolved
    # git's message, its lines joined
    assert evaluation.notes == ("error: patch failed: calc.py:1; "
                                "error: calc.py: patch does not apply")


def _evaluate_git_diff(tmp_path, old: bytes, new: bytes):
    """Evaluate, as one instance's generated change and as its reference,
    the ``git diff`` that turns the fixture's calc.py from old into new
    bytes. Returns the instance's row and calc.py as its kept workspace
    has it."""
    repo = tmp_path / "repo"
    e2e.build_fixture_repo(repo)
    (repo / "calc.py").write_bytes(old)
    sha = e2e.commit_all(repo, "calc.py as bytes")
    (repo / "calc.py").write_bytes(new)
    patch = subprocess.run(["git", "diff", "--no-color"], cwd=repo,
                           check=True, capture_output=True).stdout
    (repo / "calc.py").write_bytes(old)
    instances, changes = tmp_path / "instances", tmp_path / "changes"
    instances.mkdir()
    changes.mkdir()
    e2e.write_instance(instances / "bytes.json", repo, sha,
                       instance_id="bytes")
    (changes / "bytes.patch").write_bytes(patch)
    (instances / "bytes.ref.patch").write_bytes(patch)
    report = evaluate_directory(instances, changes, keep_workspaces=True,
                                run_root=tmp_path)
    [kept] = tmp_path.glob("ws-*/repo/calc.py")
    return report.rows[0], kept.read_bytes()


def test_a_git_diff_of_a_crlf_file_applies_byte_exactly(tmp_path):
    old = e2e.CALC_OLD.replace("\n", "\r\n").encode()
    new = e2e.CALC_NEW.replace("\n", "\r\n").encode()
    row, kept = _evaluate_git_diff(tmp_path, old, new)
    assert row.notes == ""
    assert row.outcome.applied and row.outcome.resolved
    assert kept == new


def test_a_latin1_patch_is_applied_and_its_reference_overlaps(tmp_path):
    head = b"# -*- coding: latin-1 -*-\n# caf\xe9\n"
    new = head + e2e.CALC_NEW.encode()
    row, kept = _evaluate_git_diff(tmp_path, head + e2e.CALC_OLD.encode(),
                                   new)
    assert row.outcome.applied and row.outcome.resolved
    assert row.outcome.overlap_ratio == 1.0
    assert kept == new


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


def test_an_unparseable_reference_patch_is_skipped_with_a_warning(
        batch_eval, tmp_path):
    report, root = batch_eval
    instances = tmp_path / "instances"
    shutil.copytree(root / "instances", instances)
    (instances / "good-b.ref.patch").write_text(
        "diff --git a/calc.py b/calc2.py\nsimilarity index 100%\n"
        "rename from calc.py\nrename to calc2.py\n", encoding="utf-8")
    renamed = evaluate_directory(instances, root / "changes",
                                 run_root=tmp_path)
    assert renamed.rows == report.rows
    assert renamed.warnings == [
        "unparseable reference patch skipped: good-b.ref.patch: "
        "line 2: renames are not supported", *report.warnings]


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
    assert ("\nWhy changes were not generated or not applied:\n"
            "alone: no patch file\n") in render_summary(report)


def _sleepy_instances(root: Path, repo, sha, sleeps, **fields):
    """Instances i0, i1, ... with the good patch, whose only check sleeps
    the given number of seconds; fields override the instance file's."""
    instances, changes = root / "instances", root / "changes"
    instances.mkdir()
    changes.mkdir()
    for i, seconds in enumerate(sleeps):
        data = e2e.instance_dict(repo, sha, instance_id=f"i{i}",
                                 fail_to_pass=[f"sleep {seconds}"])
        data.update(pass_to_pass=[], **fields.get(f"i{i}", {}))
        (instances / f"i{i}.json").write_text(json.dumps(data),
                                              encoding="utf-8")
        (changes / f"i{i}.patch").write_text(GOOD_PATCH, encoding="utf-8")
    return instances, changes


class _Tracked:
    """Counts the instances driver.evaluate_instance is evaluating at once,
    and records the order they finish in."""

    def __init__(self, monkeypatch):
        self.lock = threading.Lock()
        self.running = self.peak = 0
        self.finished: list[str] = []
        real = driver.evaluate_instance

        def evaluate_instance(instance, *args, **kwargs):
            with self.lock:
                self.running += 1
                self.peak = max(self.peak, self.running)
            try:
                return real(instance, *args, **kwargs)
            finally:
                with self.lock:
                    self.running -= 1
                    self.finished.append(instance.instance_id)

        monkeypatch.setattr(driver, "evaluate_instance", evaluate_instance)


def _cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def test_rows_keep_instance_file_order_when_later_ones_finish_first(
        fixture_repo, tmp_path, monkeypatch):
    repo, sha = fixture_repo
    instances, changes = _sleepy_instances(tmp_path, repo, sha,
                                           [0.6, 0.4, 0.2])
    _cpus(monkeypatch, 3)
    tracked = _Tracked(monkeypatch)
    report = evaluate_directory(instances, changes, run_root=tmp_path)
    assert tracked.finished == ["i2", "i1", "i0"]
    assert [r.outcome.instance_id for r in report.rows] == ["i0", "i1", "i2"]
    assert all(r.outcome.resolved for r in report.rows)


def test_no_more_instances_run_at_once_than_the_process_has_cpus(
        fixture_repo, tmp_path, monkeypatch):
    repo, sha = fixture_repo
    instances, changes = _sleepy_instances(tmp_path, repo, sha, [0.2] * 5)
    _cpus(monkeypatch, 2)
    tracked = _Tracked(monkeypatch)
    report = evaluate_directory(instances, changes, run_root=tmp_path)
    assert tracked.peak == 2
    assert headline(report) == "Applied 100.00 / Resolved 100.00"


def test_an_instance_error_is_raised_after_the_others_finish(
        fixture_repo, tmp_path, monkeypatch):
    repo, sha = fixture_repo
    run_root = tmp_path / "runs"
    run_root.mkdir()
    instances, changes = _sleepy_instances(
        tmp_path, repo, sha, [0.3] * 4,
        i1={"repo_path": str(tmp_path / "missing")})
    tracked = _Tracked(monkeypatch)
    with pytest.raises(GitError, match="missing is not a git repository"):
        evaluate_directory(instances, changes, run_root=run_root)
    assert sorted(tracked.finished) == ["i0", "i1", "i2", "i3"]
    assert list(run_root.glob("ws-*")) == []


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="needs at least 2 CPUs")
def test_two_instances_run_their_checks_side_by_side(fixture_repo, tmp_path):
    repo, sha = fixture_repo
    instances, changes = _sleepy_instances(tmp_path, repo, sha, [0.3, 0.3])
    started = time.monotonic()
    report = evaluate_directory(instances, changes, run_root=tmp_path)
    assert time.monotonic() - started < 0.6
    assert all(r.outcome.resolved for r in report.rows)


def test_concurrent_and_one_at_a_time_runs_write_the_same_files(
        batch_eval, tmp_path, monkeypatch):
    report, root = batch_eval
    _cpus(monkeypatch, 1)
    tracked = _Tracked(monkeypatch)
    one_at_a_time = evaluate_directory(root / "instances", root / "changes",
                                       run_root=tmp_path)
    assert tracked.peak == 1
    write_results_csv(report, tmp_path / "concurrent.csv")
    write_results_csv(one_at_a_time, tmp_path / "one_at_a_time.csv")
    assert (tmp_path / "concurrent.csv").read_bytes() \
        == (tmp_path / "one_at_a_time.csv").read_bytes()
    assert render_summary(report) == render_summary(one_at_a_time)


def test_each_failure_log_line_names_its_instance(fixture_repo, tmp_path,
                                                 monkeypatch, caplog):
    repo, sha = fixture_repo
    failing = {"fail_to_pass": ["sleep 0.3; exit 3"]}
    instances, changes = _sleepy_instances(tmp_path, repo, sha, [0, 0],
                                           i0=failing, i1=failing)
    _cpus(monkeypatch, 2)
    tracked = _Tracked(monkeypatch)
    caplog.set_level(logging.INFO, logger="patchcrew.evalkit.execution")
    evaluate_directory(instances, changes, run_root=tmp_path)
    assert tracked.peak == 2
    assert sorted(r.getMessage() for r in caplog.records) == [
        f"i{i}: fail_to_pass failed (sleep 0.3; exit 3): " for i in (0, 1)]


def test_summary_says_which_command_timed_out(fixture_repo, tmp_path):
    repo, sha = fixture_repo
    instances, changes = _sleepy_instances(
        tmp_path, repo, sha, [5], i0={"timeout_seconds": 1})
    report = evaluate_directory(instances, changes, run_root=tmp_path)
    [failed] = report.rows[0].failed_commands
    assert failed.timed_out
    assert report.rows[0].outcome.applied
    assert render_summary(report).endswith(
        "\nFailing commands of applied-but-not-resolved changes:\n"
        "i0: 'sleep 5' timed out\n")


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
    assert ("\nFailing commands of applied-but-not-resolved changes:\n"
            f"wrong-c: '{sys.executable} t_new.py' exited 1\n\n"
            "Why changes were not generated or not applied:\n"
            "stale-d: error: patch failed: calc.py:1; "
            "error: calc.py: patch does not apply\n") in text


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
            rows.append(InstanceEvaluation(outcome=outcome))
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
