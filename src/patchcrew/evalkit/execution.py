"""Run an instance's verification commands inside a workspace.

Two command groups: ones that already passed before the change (they must
keep passing) and ones the change must newly make pass. A command passes
when it exits 0 within the timeout; timeouts and missing executables are
failures, not crashes.

Commands are untrusted. Each runs in a session of its own, so a timeout
kills every process it started, not only its shell, and none of them sees
the LLM API key.
"""

from __future__ import annotations

import logging
import os
import signal
import subprocess
from dataclasses import dataclass

from ..gitops import Workspace
from ..llm import API_KEY_ENV
from ..model import TestSpec

log = logging.getLogger(__name__)

_STDERR_TAIL = 2000
# how long output is still read after a timed-out command's group is killed
_DRAIN_SECONDS = 1


@dataclass(frozen=True)
class CommandResult:
    command: str
    exit_code: int | None  # None when the command timed out
    timed_out: bool
    stderr_tail: str

    @property
    def passed(self) -> bool:
        return self.exit_code == 0


@dataclass(frozen=True)
class TestRunResult:
    __test__ = False  # not a pytest class, despite the name

    t_old_passed: bool
    t_new_passed: bool
    records: tuple[CommandResult, ...]


def _run_command(command: str, cwd, timeout_seconds: int) -> CommandResult:
    env = {name: value for name, value in os.environ.items()
           if name != API_KEY_ENV}
    with subprocess.Popen(command, shell=True, cwd=str(cwd), env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            _, stderr = proc.communicate(timeout=timeout_seconds)
        except subprocess.TimeoutExpired:
            # the shell is not reaped yet, so its pid still names the group
            os.killpg(proc.pid, signal.SIGKILL)
            try:
                _, stderr = proc.communicate(timeout=_DRAIN_SECONDS)
            except subprocess.TimeoutExpired as exc:
                # a process that left the session still holds the pipes
                stderr = (exc.stderr or b"").decode("utf-8", errors="replace")
            return CommandResult(command, None, True, stderr[-_STDERR_TAIL:])
    return CommandResult(command, proc.returncode, False,
                         stderr[-_STDERR_TAIL:])


def run_tests(workspace: Workspace, test_spec: TestSpec) -> TestRunResult:
    """Execute both command groups in the workspace root. Every command
    runs even after a failure, so the records show the full picture."""
    records: list[CommandResult] = []
    old_ok = True
    for cmd in test_spec.pass_to_pass:
        result = _run_command(cmd, workspace.path, test_spec.timeout_seconds)
        records.append(result)
        old_ok = old_ok and result.passed
        if not result.passed:
            log.info("pass_to_pass failed (%s): %s", cmd, result.stderr_tail[-200:])
    new_ok = True
    for cmd in test_spec.fail_to_pass:
        result = _run_command(cmd, workspace.path, test_spec.timeout_seconds)
        records.append(result)
        new_ok = new_ok and result.passed
        if not result.passed:
            log.info("fail_to_pass failed (%s): %s", cmd, result.stderr_tail[-200:])
    return TestRunResult(t_old_passed=old_ok, t_new_passed=new_ok,
                         records=tuple(records))
