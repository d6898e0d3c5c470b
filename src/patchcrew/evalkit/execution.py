"""Run an instance's verification commands inside a workspace.

Two command groups: ones that already passed before the change (they must
keep passing) and ones the change must newly make pass. A command passes
when it exits 0 within the timeout; timeouts and missing executables are
failures, not crashes.

Commands are untrusted. Each runs in a session of its own, and once its
shell exits, or the timeout passes, every process left in its process
group is killed, so nothing it started outlives it; none of them sees the
LLM API key, or the caller's ``GIT_*`` variables, which would point an
instance's own git calls at the caller's repository. Memory stays bounded
whatever a command prints: stdout is discarded, and stderr is read in
chunks of which only the last _STDERR_TAIL characters are kept (bytes
that are not UTF-8 become U+FFFD).
Waiting for the shell without reaping it uses a pidfd, so commands run on
Linux 5.3 or later. Both waits use poll, not select, which cannot watch a
descriptor numbered 1024 or above.
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


def _ready_by(fd: int, deadline: float) -> bool:
    """Whether the descriptor becomes readable (or hangs up) before the
    deadline."""
    poller = select.poll()
    poller.register(fd, select.POLLIN)
    return bool(poller.poll(max(0.0, deadline - time.monotonic()) * 1000))


def _read_tail(pipe, tail: bytearray, deadline: float) -> bool:
    """Read the pipe in chunks until EOF (True) or the deadline (False),
    keeping only its last _TAIL_BYTES bytes in ``tail``."""
    fd = pipe.fileno()
    while deadline > time.monotonic():
        if _ready_by(fd, deadline):
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
        return _ready_by(pidfd, deadline)
    finally:
        os.close(pidfd)


def _run_command(command: str, cwd, timeout_seconds: int) -> CommandResult:
    env = {name: value for name, value in os.environ.items()
           if name != API_KEY_ENV and not name.startswith("GIT_")}
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


def run_tests(workspace: Workspace, test_spec: TestSpec, *,
              instance_id: str = "") -> TestRunResult:
    """Execute both command groups in the workspace root. Every command
    runs even after a failure, so the records show the full picture. Each
    failure is logged under the instance id, or the workspace path when
    none is given, so instances evaluated side by side can be told apart."""
    who = instance_id or str(workspace.path)
    records: list[CommandResult] = []
    passed: list[bool] = []
    for group, commands in (("pass_to_pass", test_spec.pass_to_pass),
                            ("fail_to_pass", test_spec.fail_to_pass)):
        ok = True
        for cmd in commands:
            result = _run_command(cmd, workspace.path,
                                  test_spec.timeout_seconds)
            records.append(result)
            if not result.passed:
                ok = False
                log.info("%s: %s failed (%s): %s", who, group, cmd,
                         result.stderr_tail[-200:])
        passed.append(ok)
    return TestRunResult(t_old_passed=passed[0], t_new_passed=passed[1],
                         records=tuple(records))
