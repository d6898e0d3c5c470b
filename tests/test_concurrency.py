"""Concurrent stages: their calls really overlap, and the report is the one
a run that made every call in turn would write.

The pipeline runs on a four-file repository through a scripted backend.
Every file carries a ``# file <path>`` tag on its first line, and the
scripted answers repeat it, so each call names exactly one file and the
answers do not depend on the order calls arrive in.
"""

from __future__ import annotations

import re
import threading
import time
from pathlib import Path

import pytest

import _e2e_data as e2e

from patchcrew.errors import TransportError
from patchcrew.llm import Gateway, ReplayBackend
from patchcrew.model import instance_from_dict
from patchcrew.runner import RunConfig, resolve_instance

N_FILES = 4
FILES = {f"mod_{i}.py": f"# file mod_{i}.py\n\ndef value_{i}():\n"
                        f"    return {i} - 1\n" for i in range(N_FILES)}
ISSUE = "Every value helper subtracts one; it must add one."
_TAG = re.compile(r"# file (mod_\d\.py)")


def _answer(template_id: str, prompt: str) -> str:
    if template_id.startswith("MEETING"):
        return "Agreed."
    (path,) = set(_TAG.findall(prompt))
    i = path[len("mod_")]
    return {
        "P2": f"Summary of # file {path}: one helper.",
        "P3": "It holds a helper the issue names.\nDECISION: YES",
        "P4": f"Make the helper in # file {path} add one.",
        "P5": f"Developer for # file {path}.",
        "P6": f"Developer for # file {path}, after the meeting.",
        "P8": f"QA engineer for # file {path}.",
        "P9": "Line 4 is wrong.\n[[4,4]]",
        "P10": f"    return {i} + 1\n",
        "P11": "Approved.\nDECISION: YES" if "phase: decision" in prompt
               else "The edit matches the task.",
    }[template_id]


class StageBackend:
    """Scripted answers. With ``reverse``, a call about mod_i sleeps
    longer the smaller i is, so of a stage's calls the last file's finish
    first. ``fail`` names (template id, path) calls that raise
    TransportError; a call about every file names mod_0.py. ``barrier``
    holds each call of the templates it names until ``parties`` of them
    are in flight together, or fails it after 10 s. ``plan`` is the work
    plan P7 answers."""

    mode = "live"
    network_calls = 0

    def __init__(self, *, reverse: bool = False, fail=(), barrier=(),
                 parties: int = N_FILES, plan: str = "[[0,1,2,3]]"):
        self.reverse = reverse
        self.fail = set(fail)
        self.barrier = barrier
        self.plan = plan
        self._gate = threading.Barrier(parties, timeout=10)

    def complete(self, key: str, template_id: str, prompt: str) -> str:
        if template_id in self.barrier:
            self._gate.wait()
        paths = set(_TAG.findall(prompt))
        if self.reverse and len(paths) == 1:
            time.sleep(0.02 * (N_FILES - int(min(paths)[len("mod_")])))
        if (template_id, min(paths, default="")) in self.fail:
            raise TransportError(f"{template_id} failed", attempts=3)
        if template_id == "P7":
            return f"The tasks are independent.\n{self.plan}"
        return _answer(template_id, prompt)


@pytest.fixture(scope="module")
def four_file_repo(tmp_path_factory):
    repo = tmp_path_factory.mktemp("four") / "repo"
    return repo, e2e.build_fixture_repo(repo, FILES)


def _resolve(repo_and_sha, out_dir: Path, backend) -> Path:
    repo, sha = repo_and_sha
    instance = instance_from_dict({
        "instance_id": "four", "repo_path": str(repo), "base_revision": sha,
        "issue_text": ISSUE})
    config = RunConfig(llm_mode="live", top_k=N_FILES, meeting_rounds=1,
                       out_dir=out_dir)
    outcome = resolve_instance(instance, config, Gateway(backend))
    return outcome.report_dir


def _tree(root: Path) -> dict[str, bytes]:
    """Every file under root except run.txt, which carries the wall time,
    plus the patch beside it."""
    files = {p.relative_to(root).as_posix(): p.read_bytes()
             for p in sorted(root.rglob("*")) if p.is_file()}
    del files["run.txt"]
    files["patch"] = root.with_suffix(".patch").read_bytes()
    return files


def _patched_files(report: Path) -> int:
    patch = report.with_suffix(".patch").read_text(encoding="utf-8")
    return patch.count("+    return")


# one template per concurrent stage: locate, team build, role refinement,
# and the coder's four tasks
@pytest.mark.parametrize("template_id", ["P2", "P4", "P6", "P8"])
def test_each_stage_has_its_calls_in_flight_together(four_file_repo, tmp_path,
                                                     template_id):
    report = _resolve(four_file_repo, tmp_path,
                      StageBackend(barrier=(template_id,)))
    assert _patched_files(report) == N_FILES


def test_qa_personas_are_in_flight_with_the_meeting(four_file_repo, tmp_path):
    # the meeting's opening waits until every task's P8 call has arrived
    report = _resolve(four_file_repo, tmp_path,
                      StageBackend(barrier=("MEETING_OPEN", "P8"),
                                   parties=N_FILES + 1))
    assert _patched_files(report) == N_FILES
    assert "qa role:\nQA engineer for # file mod_3.py.\n" in (
        report / "plan.txt").read_text(encoding="utf-8")


class AwaitingBackend(StageBackend):
    """Holds the P9 call about ``path`` until ``awaited`` exists, or fails
    it after 10 s."""

    def __init__(self, path: str, awaited: Path):
        super().__init__()
        self.path = path
        self.awaited = awaited

    def complete(self, key: str, template_id: str, prompt: str) -> str:
        if template_id == "P9" and f"# file {self.path}" in prompt:
            deadline = time.monotonic() + 10
            while not self.awaited.exists():
                if time.monotonic() > deadline:
                    raise TransportError(f"{self.awaited} never came",
                                         attempts=1)
                time.sleep(0.005)
        return super().complete(key, template_id, prompt)


def test_a_task_report_is_written_as_soon_as_the_task_is_done(
        four_file_repo, tmp_path):
    # task i is mod_i.py; task 1 starts only once task 0 is on disk
    backend = AwaitingBackend(
        "mod_1.py", tmp_path / "four" / "task_0" / "attempt_0" / "review.txt")
    report = _resolve(four_file_repo, tmp_path, backend)
    assert (report / "notes.txt").read_text(encoding="utf-8") == ""
    assert _patched_files(report) == N_FILES
    plan = (report / "plan.txt").read_text(encoding="utf-8")
    assert "task 0\nfile: mod_0.py\n" in plan
    assert "task 1\nfile: mod_1.py\n" in plan


def test_tasks_of_different_plan_stages_are_in_flight_together(
        four_file_repo, tmp_path):
    report = _resolve(four_file_repo, tmp_path,
                      StageBackend(plan="[[0],[1],[2],[3]]", barrier=("P9",)))
    plan = (report / "plan.txt").read_text(encoding="utf-8")
    assert "stage 4: tasks 3\n" in plan
    assert _patched_files(report) == N_FILES


def test_task_directories_follow_the_task_numbers_of_plan_txt(
        four_file_repo, tmp_path):
    report = _resolve(four_file_repo, tmp_path,
                      StageBackend(plan="[[3],[2],[1],[0]]"))
    plan = (report / "plan.txt").read_text(encoding="utf-8")
    assert "stage 1: tasks 3\n" in plan
    planned = dict(re.findall(r"^task (\d+)\nfile: (\S+)$", plan, re.M))
    assert len(planned) == N_FILES
    for i, path in planned.items():
        diff = (report / f"task_{i}" / "attempt_0" / "diff.patch").read_text(
            encoding="utf-8")
        assert diff.startswith(f"diff --git a/{path} b/{path}\n")


def test_work_plan_call_is_in_flight_with_role_refinement(four_file_repo,
                                                          tmp_path):
    report = _resolve(four_file_repo, tmp_path,
                      StageBackend(barrier=("P6", "P7"), parties=N_FILES + 1))
    assert _patched_files(report) == N_FILES


def test_fast_work_plan_failure_follows_slow_refinement_failures(
        four_file_repo, tmp_path):
    """All refinements and the plan call meet at a barrier; then the plan
    call fails at once and the refinements of mod_1 and mod_2 fail after
    a sleep. The notes still read as if refinement had run first."""
    fail = (("P6", "mod_1.py"), ("P6", "mod_2.py"), ("P7", "mod_0.py"))
    concurrent = _resolve(four_file_repo, tmp_path / "concurrent",
                          StageBackend(reverse=True, fail=fail,
                                       barrier=("P6", "P7"),
                                       parties=N_FILES + 1))
    notes = (concurrent / "notes.txt").read_text(encoding="utf-8")
    assert notes.splitlines() == [
        "plan: task 1: role refinement failed (P6 failed)",
        "plan: task 2: role refinement failed (P6 failed)",
        "plan: work-plan call failed (P7 failed)",
        "plan: unusable work-plan response, falling back to sequential "
        "singletons",
    ]
    with e2e.calls_in_turn():
        serial = _resolve(four_file_repo, tmp_path / "serial",
                          StageBackend(fail=fail))
    assert _tree(concurrent) == _tree(serial)


FAILURES = (("P3", "mod_1.py"), ("P3", "mod_2.py"), ("P6", "mod_2.py"),
            ("P6", "mod_1.py"), ("P9", "mod_1.py"), ("P8", "mod_2.py"))


def test_reversed_completion_writes_the_serial_report(four_file_repo, tmp_path):
    concurrent = _tree(_resolve(four_file_repo, tmp_path / "concurrent",
                                StageBackend(reverse=True, fail=FAILURES)))
    with e2e.calls_in_turn():
        serial = _tree(_resolve(four_file_repo, tmp_path / "serial",
                                StageBackend(fail=FAILURES)))
    assert concurrent == serial


def test_failures_mid_stage_keep_the_order_of_notes(four_file_repo, tmp_path):
    report = _resolve(four_file_repo, tmp_path,
                      StageBackend(reverse=True, fail=FAILURES))
    notes = (report / "notes.txt").read_text(encoding="utf-8").splitlines()
    assert notes == [
        "locate: mod_1.py: undetermined (P3 failed)",
        "locate: mod_2.py: undetermined (P3 failed)",
        "plan: task 1: role refinement failed (P6 failed)",
        "plan: task 2: role refinement failed (P6 failed)",
        "coder: mod_1.py: iteration 0 failed (P9 failed)",
        "coder: mod_1.py: no iteration produced a change",
        "coder: mod_2.py: QA spawn failed, review disabled (P8 failed)",
    ]


class ReversingReplay(ReplayBackend):
    """Replays the fixture cassette; of each template's calls, the first
    to arrive sleeps longest, so calls made together finish in reverse."""

    def __init__(self, cassette_path):
        super().__init__(cassette_path)
        self._lock = threading.Lock()
        self._arrivals: dict[str, int] = {}

    def complete(self, key: str, template_id: str, prompt: str) -> str:
        with self._lock:
            n = self._arrivals.get(template_id, 0)
            self._arrivals[template_id] = n + 1
        time.sleep(0.02 * max(0, e2e.TOP_K - 1 - n))
        return super().complete(key, template_id, prompt)


def test_reversed_completion_keeps_the_golden_report(fixture_repo, tmp_path):
    repo, sha = fixture_repo
    instance = instance_from_dict(e2e.instance_dict(repo, sha))
    config = RunConfig(llm_mode="replay", cassette_path=str(e2e.CASSETTE_PATH),
                       top_k=e2e.TOP_K, meeting_rounds=e2e.MEETING_ROUNDS,
                       out_dir=tmp_path)
    outcome = resolve_instance(
        instance, config, Gateway(ReversingReplay(e2e.CASSETTE_PATH)))
    expected = {p.relative_to(e2e.EXPECTED_REPORT_DIR).as_posix(): p.read_bytes()
                for p in sorted(e2e.EXPECTED_REPORT_DIR.rglob("*"))
                if p.is_file()}
    expected["patch"] = e2e.EXPECTED_PATCH_PATH.read_bytes()
    assert _tree(outcome.report_dir) == expected
