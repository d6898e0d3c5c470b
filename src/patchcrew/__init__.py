"""Multi-agent issue resolution over git repositories.

The pipeline turns an issue report plus a repository revision into a
unified diff: a custodian ranks and filters candidate files, a planner
assembles per-file tasks and roles through a kick-off meeting, and coder
agents edit line ranges under an iterative QA review loop.  Every LLM
call goes through a gateway that can replay recorded exchanges, so the
whole pipeline runs deterministically offline.
"""

from __future__ import annotations

from .coder import Coder, TaskResult
from .custodian import Custodian, EvolutionMemory, rank_files, tokenize
from .diffs import (CodeChange, FileDiff, Hunk, compute_diff, parse_diff,
                    render_change, render_file_diff)
from .errors import (CassetteMissError, DegenerateDataError, DiffParseError,
                     ExtractionError, GitError, InstanceError, PatchcrewError,
                     TemplateError, TransportError)
from .gitops import Workspace, apply_change, snapshot
from .intervals import LineIntervalSet
from .llm import (Gateway, LiveBackend, RecordBackend, ReplayBackend,
                  cassette_key, read_cassette)
from .model import (IssueInstance, TaskAssignment, TestSpec, WorkPlan,
                    instance_from_dict, load_instance)
from .planner import Planner
from .runner import RunConfig, RunOutcome, resolve_instance

__version__ = "0.1.0"

__all__ = [
    "CassetteMissError",
    "CodeChange",
    "Coder",
    "Custodian",
    "DegenerateDataError",
    "DiffParseError",
    "EvolutionMemory",
    "ExtractionError",
    "FileDiff",
    "Gateway",
    "GitError",
    "Hunk",
    "InstanceError",
    "IssueInstance",
    "LineIntervalSet",
    "LiveBackend",
    "PatchcrewError",
    "Planner",
    "RecordBackend",
    "ReplayBackend",
    "RunConfig",
    "RunOutcome",
    "TaskAssignment",
    "TaskResult",
    "TemplateError",
    "TestSpec",
    "TransportError",
    "WorkPlan",
    "Workspace",
    "apply_change",
    "cassette_key",
    "compute_diff",
    "instance_from_dict",
    "load_instance",
    "parse_diff",
    "rank_files",
    "read_cassette",
    "render_change",
    "render_file_diff",
    "resolve_instance",
    "snapshot",
    "tokenize",
    "__version__",
]
