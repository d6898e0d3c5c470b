"""Domain types shared across the pipeline.

Everything here is an immutable value object: construction validates, and
later stages derive new values with ``dataclasses.replace`` instead of
mutating. Instance files are flat JSON documents with a fixed schema (see
``load_instance``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Any

from .errors import InstanceError

MANAGER_ROLE = "Manager"

DEFAULT_TIMEOUT_SECONDS = 900


@dataclass(frozen=True)
class TestSpec:
    """Verification commands: ones that passed before the change and ones
    the change must newly make pass."""

    __test__ = False  # not a pytest class, despite the name

    pass_to_pass: tuple[str, ...] = ()
    fail_to_pass: tuple[str, ...] = ()
    timeout_seconds: int = DEFAULT_TIMEOUT_SECONDS

    def __post_init__(self):
        for cmd in self.pass_to_pass + self.fail_to_pass:
            if not cmd or not cmd.strip():
                raise ValueError("test command must be a non-empty string")
        if self.timeout_seconds < 1:
            raise ValueError("timeout_seconds must be >= 1")


@dataclass(frozen=True)
class IssueInstance:
    instance_id: str
    repo_path: str
    base_revision: str
    issue_text: str
    hints_text: str = ""
    oracle_files: tuple[str, ...] = ()
    test_spec: TestSpec = field(default_factory=TestSpec)

    def __post_init__(self):
        if not self.instance_id:
            raise ValueError("instance_id must be non-empty")
        if not self.repo_path:
            raise ValueError("repo_path must be non-empty")
        if not self.base_revision:
            raise ValueError("base_revision must be non-empty")
        # one task per file: each oracle path once, in one spelling
        seen: set[str] = set()
        for p in self.oracle_files:
            if not p or Path(p).is_absolute() or ".." in Path(p).parts:
                raise ValueError(f"oracle file path must be relative without '..': {p!r}")
            if PurePosixPath(p).as_posix() != p:
                raise ValueError(f"oracle file path must be in normal form "
                                 f"{PurePosixPath(p).as_posix()!r}: {p!r}")
            if p in seen:
                raise ValueError(f"oracle file path listed more than once: {p!r}")
            seen.add(p)


@dataclass(frozen=True)
class TaskAssignment:
    """One unit of work: a file, what to do to it, and who does it."""

    file_path: str
    task_text: str
    developer_role: str
    qa_role: str | None = None

    def __post_init__(self):
        if not self.file_path:
            raise ValueError("file_path must be non-empty")
        if not self.task_text.strip():
            raise ValueError("task_text must be non-empty")
        if not self.developer_role.strip():
            raise ValueError("developer_role must be non-empty")


@dataclass(frozen=True)
class MeetingTranscript:
    """Circular-speech record: the manager opens, developers speak in
    rounds, the manager summarizes."""

    turns: tuple[tuple[str, str], ...] = ()  # (speaker_role, utterance)
    summary: str = ""

    def __post_init__(self):
        if self.turns:
            if self.turns[0][0] != MANAGER_ROLE:
                raise ValueError("meeting must open with the manager")
            if self.turns[-1][0] != MANAGER_ROLE:
                raise ValueError("meeting must close with the manager")


@dataclass(frozen=True)
class WorkPlan:
    """The manager's staged schedule, as plan.txt reports it: tasks inside
    one group are declared independent. Groups partition the task indices
    0..n-1."""

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        flat = [i for g in self.groups for i in g]
        if sorted(flat) != list(range(len(flat))):
            raise ValueError("groups must cover task indices 0..n-1 exactly once")


@dataclass(frozen=True)
class ReviewOutcome:
    comment: str
    approved: bool

    def __post_init__(self):
        if not self.approved and not self.comment.strip():
            raise ValueError("a rejection must carry a non-empty comment")


_REQUIRED_FIELDS = ("instance_id", "repo_path", "base_revision", "issue_text")
_OPTIONAL_FIELDS = ("hints_text", "oracle_files", "pass_to_pass", "fail_to_pass",
                    "timeout_seconds")


def instance_from_dict(data: dict[str, Any], *, source: str = "<dict>") -> IssueInstance:
    if not isinstance(data, dict):
        raise InstanceError(f"{source}: instance document must be a JSON object")
    unknown = set(data) - set(_REQUIRED_FIELDS) - set(_OPTIONAL_FIELDS)
    if unknown:
        raise InstanceError(f"{source}: unknown fields: {', '.join(sorted(unknown))}",
                            field=sorted(unknown)[0])
    for name in _REQUIRED_FIELDS:
        if name not in data:
            raise InstanceError(f"{source}: missing required field {name!r}", field=name)
        if not isinstance(data[name], str):
            raise InstanceError(f"{source}: field {name!r} must be a string", field=name)

    hints = data.get("hints_text", "")
    if not isinstance(hints, str):
        raise InstanceError(f"{source}: field 'hints_text' must be a string",
                            field="hints_text")
    oracle = _string_list(data, "oracle_files", source)
    p2p = _string_list(data, "pass_to_pass", source)
    f2p = _string_list(data, "fail_to_pass", source)
    timeout = data.get("timeout_seconds", DEFAULT_TIMEOUT_SECONDS)
    if isinstance(timeout, bool) or not isinstance(timeout, int):
        raise InstanceError(f"{source}: field 'timeout_seconds' must be an integer",
                            field="timeout_seconds")
    try:
        spec = TestSpec(tuple(p2p), tuple(f2p), timeout)
        return IssueInstance(
            instance_id=data["instance_id"],
            repo_path=data["repo_path"],
            base_revision=data["base_revision"],
            issue_text=data["issue_text"],
            hints_text=hints,
            oracle_files=tuple(oracle),
            test_spec=spec,
        )
    except ValueError as exc:
        raise InstanceError(f"{source}: {exc}") from exc


def _string_list(data: dict[str, Any], name: str, source: str) -> list[str]:
    value = data.get(name, [])
    if not isinstance(value, list) or any(not isinstance(v, str) for v in value):
        raise InstanceError(f"{source}: field {name!r} must be a list of strings",
                            field=name)
    return value


def load_instance(path: str | Path) -> IssueInstance:
    """Read one instance file (flat JSON object, schema above)."""
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InstanceError(f"cannot read instance file {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"{path}: not valid JSON: {exc}") from exc
    return instance_from_dict(data, source=str(path))
