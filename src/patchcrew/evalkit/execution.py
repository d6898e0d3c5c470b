"""Run an instance's verification commands inside a workspace.

Two command groups: ones that already passed before the change (they must
keep passing) and ones the change must newly make pass. A command passes
when it exits 0 within the timeout; timeouts and missing executables are
failures, not crashes.

Commands are untrusted. Each runs in a session of its own, and once its
shell exits, or the timeout passes, every process left in its process
group is killed, so nothing it started outlives it; none of them sees the
LLM API key. Memory stays bounded whatever a command prints: stdout is
discarded, and stderr is read in chunks of which only the last
_STDERR_TAIL characters are kept (bytes that are not UTF-8 become U+FFFD).
Waiting for the shell without reaping it uses a pidfd, so commands run on
Linux 5.3 or later.
"""

from __future__ import annotations

import logging
import os
import select
import signal
import subprocess
import time
from dataclasses import dataclass

from ..gitops import Workspace
from ..llm import API_KEY_ENV
from ..model import TestSpec

log = logging.getLogger(__name__)

_STDERR_TAIL = 2000
# stderr bytes kept: the last _STDERR_TAIL characters take at most 4 bytes
# each, after up to 3 bytes of a character the cut split
_TAIL_BYTES = 4 * _STDERR_TAIL + 3
_CHUNK = 1 << 16
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


def _read_tail(pipe, tail: bytearray, deadline: float) -> bool:
    """Read the pipe in chunks until EOF (True) or the deadline (False),
    keeping only its last _TAIL_BYTES bytes in ``tail``."""
    fd = pipe.fileno()
    while (remaining := deadline - time.monotonic()) > 0:
        if select.select([fd], [], [], remaining)[0]:
            chunk = os.read(fd, _CHUNK)
            if not chunk:
                return True
            tail += chunk
            del tail[:-_TAIL_BYTES]
    return False


def _exits_by(proc: subprocess.Popen, deadline: float) -> bool:
    """Whether the process exits before the deadline; it is not reaped,
    so its pid keeps naming its process group."""
    pidfd = os.pidfd_open(proc.pid)
    try:
        return bool(select.select([pidfd], [], [],
                                  max(0.0, deadline - time.monotonic()))[0])
    finally:
        os.close(pidfd)


def _run_command(command: str, cwd, timeout_seconds: int) -> CommandResult:
    env = {name: value for name, value in os.environ.items()
           if name != API_KEY_ENV}
    deadline = time.monotonic() + timeout_seconds
    tail = bytearray()
    with subprocess.Popen(command, shell=True, cwd=str(cwd), env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        finished = (_read_tail(proc.stderr, tail, deadline)
                    and _exits_by(proc, deadline))
        # the group outlives the shell's exit while anything it started
        # runs; the shell is not reaped yet, so its pid still names it
        os.killpg(proc.pid, signal.SIGKILL)
        if not finished:
            # a process that left the session can still hold the pipe
            _read_tail(proc.stderr, tail, time.monotonic() + _DRAIN_SECONDS)
        proc.wait()
    stderr_tail = tail.decode("utf-8", errors="replace")[-_STDERR_TAIL:]
    return CommandResult(command, proc.returncode if finished else None,
                         not finished, stderr_tail)


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
