"""End-to-end issue resolution: snapshot, locate, plan, code, report.

Independent LLM calls run concurrently (llm.map_concurrently): the
per-file summaries and relevance checks of locate, the per-file task and
role definitions, the role refinements after the meeting, and the tasks
of each plan.txt stage, one stage after another. The kick-off meeting
runs turn by turn, since each turn reads the transcript so far. Every
stage merges its results and notes in rank or task order, so the report
is the same as if every call had run in turn.

Artifacts per run, under ``<out_dir>/<instance_id>/``:
  meeting.txt   the kick-off transcript and summary
  plan.txt      tasks, roles, and the staged schedule
  task_<i>/attempt_<j>/{intervals.txt, old.txt, new.txt, diff.patch,
                        review.txt}
  notes.txt     degradations and warnings collected along the way
  run.txt       flags, mode, call counts, wall time (the one file that is
                not byte-stable between runs)

The generated patch itself lands at ``<out_dir>/<instance_id>.patch``.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

from .coder import Coder, TaskResult
from .custodian import (Custodian, EvolutionMemory, LocateResult,
                        load_memory, read_repo_files, save_memory)
from .diffs import CodeChange, render_change
from .gitops import Workspace, destroy, snapshot
from .llm import Gateway, LiveBackend, RecordBackend, ReplayBackend
from .model import IssueInstance
from .planner import Planner, render_transcript

log = logging.getLogger(__name__)

LLM_MODES = ("live", "replay", "record")


@dataclass
class RunConfig:
    llm_mode: str = "replay"
    cassette_path: str | None = None
    top_k: int = 10
    max_review_iters: int = 3
    meeting_rounds: int = 2
    memory_path: str | None = None
    keep_workspaces: bool = False
    use_oracle: bool = False
    qa_enabled: bool = True
    hints_enabled: bool = True
    out_dir: Path = field(default_factory=lambda: Path("runs"))

    def __post_init__(self):
        if self.llm_mode not in LLM_MODES:
            raise ValueError(f"llm_mode must be one of {LLM_MODES}")
        if self.llm_mode in ("replay", "record") and not self.cassette_path:
            raise ValueError(f"--llm-mode {self.llm_mode} requires a cassette path")
        self.out_dir = Path(self.out_dir)


def build_gateway(config: RunConfig) -> Gateway:
    if config.llm_mode == "replay":
        return Gateway(ReplayBackend(config.cassette_path))
    if config.llm_mode == "record":
        return Gateway(RecordBackend(LiveBackend(), config.cassette_path))
    return Gateway(LiveBackend())


@dataclass
class Located:
    """The locate stage's output: the base revision's files, the issue
    text with hints folded in, and the custodian that ranked them."""
    workspace: Workspace  # already removed unless keep_workspaces
    repo_files: dict[str, str]
    issue: str
    custodian: Custodian
    candidates: list[str]
    result: LocateResult | None  # None when oracle files bypassed ranking


def locate_files(instance: IssueInstance, config: RunConfig,
                 gateway: Gateway) -> Located:
    """Snapshot the base revision, read its files, and pick candidate files
    with the custodian (or take the oracle files). The checkout is removed
    once read, and the memory is saved once the custodian is done with it,
    since nothing later reads the one or changes the other."""
    workspace = snapshot(instance.repo_path, instance.base_revision)
    try:
        repo_files = read_repo_files(workspace.path)
    finally:
        if not config.keep_workspaces:
            destroy(workspace)

    memory = EvolutionMemory()
    if config.memory_path and Path(config.memory_path).exists():
        memory = load_memory(config.memory_path)
    custodian = Custodian(gateway, memory)

    issue = instance.issue_text
    if config.hints_enabled and instance.hints_text:
        issue = f"{issue}\n\nHints:\n{instance.hints_text}"

    result = None
    if config.use_oracle and instance.oracle_files:
        candidates = list(instance.oracle_files)
        log.info("oracle files supplied, custodian bypassed")
    else:
        result = custodian.locate(repo_files, issue, config.top_k)
        candidates = list(result.candidates)

    if config.memory_path:
        save_memory(custodian.memory, config.memory_path)
    return Located(workspace, repo_files, issue, custodian, candidates, result)


@dataclass
class RunOutcome:
    instance_id: str
    change: CodeChange
    patch_path: Path
    report_dir: Path
    task_results: list[TaskResult]
    notes: list[str]
    elapsed_seconds: float

    @property
    def produced_change(self) -> bool:
        return not self.change.is_empty()


def resolve_instance(instance: IssueInstance, config: RunConfig,
                     gateway: Gateway | None = None) -> RunOutcome:
    started = time.monotonic()
    gateway = gateway or build_gateway(config)
    located = locate_files(instance, config, gateway)
    repo_files, issue, custodian = (located.repo_files, located.issue,
                                    located.custodian)

    planner = Planner(gateway, meeting_rounds=config.meeting_rounds)
    coder = Coder(gateway, n_max=config.max_review_iters,
                  qa_enabled=config.qa_enabled)

    tasks = planner.build_team(located.candidates, repo_files, issue)
    task_results: list[TaskResult] = []
    if tasks:
        transcript = planner.kickoff_meeting(tasks, issue)
        tasks = planner.refine_roles(tasks, transcript)
        plan = planner.make_plan(transcript, tasks)
        summaries = {path: entry.summary
                     for path, entry in custodian.memory.entries.items()}
        change, task_results = coder.resolve_issue(tasks, plan, repo_files,
                                                   summaries)
    else:
        transcript = None
        plan = None
        change = CodeChange(())

    notes = custodian.notes + planner.notes + coder.notes
    report_dir = config.out_dir / instance.instance_id
    patch_path = config.out_dir / f"{instance.instance_id}.patch"
    elapsed = time.monotonic() - started
    workspace_note = (str(located.workspace.path) if config.keep_workspaces
                      else "")
    _write_report(report_dir, patch_path, instance, config, gateway,
                  custodian, transcript, plan, tasks, task_results,
                  change, notes, elapsed, workspace_note)
    return RunOutcome(instance_id=instance.instance_id, change=change,
                      patch_path=patch_path, report_dir=report_dir,
                      task_results=task_results, notes=notes,
                      elapsed_seconds=elapsed)


def _write_report(report_dir: Path, patch_path: Path, instance: IssueInstance,
                  config: RunConfig, gateway: Gateway, custodian: Custodian,
                  transcript, plan, tasks, task_results: list[TaskResult],
                  change: CodeChange, notes: list[str], elapsed: float,
                  workspace_note: str) -> None:
    report_dir.mkdir(parents=True, exist_ok=True)
    patch_path.parent.mkdir(parents=True, exist_ok=True)
    patch_path.write_text(render_change(change), encoding="utf-8")

    if transcript is not None:
        meeting = render_transcript(transcript.turns)
        (report_dir / "meeting.txt").write_text(
            f"{meeting}\n\n# summary\n{transcript.summary}\n", encoding="utf-8")

    lines = ["# work plan"]
    if plan is not None:
        lines.append(f"transcript: {plan.transcript_ref}")
        for n, group in enumerate(plan.groups, start=1):
            lines.append(f"stage {n}: tasks {', '.join(str(i) for i in group)}")
    else:
        lines.append("(no tasks)")
    lines.append("")
    lines.append("# tasks")
    for i, task in enumerate(tasks):
        lines += [f"task {i}", f"file: {task.file_path}", "description:",
                  task.task_text, "developer role:", task.developer_role,
                  "qa role:", task.qa_role or "(none)", ""]
    (report_dir / "plan.txt").write_text("\n".join(lines) + "\n",
                                         encoding="utf-8")

    for i, result in enumerate(task_results):
        for attempt in result.attempts:
            attempt_dir = report_dir / f"task_{i}" / f"attempt_{attempt.index}"
            attempt_dir.mkdir(parents=True, exist_ok=True)
            if attempt.intervals is None:
                intervals_text = f"(failed: {attempt.error})"
            elif attempt.intervals.is_empty():
                intervals_text = "(append at end of file)"
            else:
                intervals_text = " ".join(f"[{s},{e}]" for s, e
                                          in attempt.intervals.intervals)
            (attempt_dir / "intervals.txt").write_text(intervals_text + "\n",
                                                       encoding="utf-8")
            (attempt_dir / "old.txt").write_text(
                _parts_text(attempt.old_parts), encoding="utf-8")
            (attempt_dir / "new.txt").write_text(
                _parts_text(attempt.new_parts), encoding="utf-8")
            (attempt_dir / "diff.patch").write_text(attempt.diff_text,
                                                    encoding="utf-8")
            if attempt.review is not None:
                verdict = "yes" if attempt.review.approved else "no"
                review_text = f"approved: {verdict}\n\n{attempt.review.comment}\n"
            else:
                review_text = "(no review)\n"
            (attempt_dir / "review.txt").write_text(review_text,
                                                    encoding="utf-8")

    (report_dir / "notes.txt").write_text(
        "\n".join(notes) + "\n" if notes else "", encoding="utf-8")

    counts = " ".join(f"{tid}={n}" for tid, n
                      in sorted(gateway.call_counts.items()))
    run_lines = [
        f"instance: {instance.instance_id}",
        f"mode: {gateway.mode}",
        f"flags: top_k={config.top_k} max_review_iters={config.max_review_iters}"
        f" meeting_rounds={config.meeting_rounds}"
        f" oracle={str(config.use_oracle).lower()}"
        f" qa={str(config.qa_enabled).lower()}"
        f" hints={str(config.hints_enabled).lower()}",
        f"llm_calls: total={gateway.total_calls()} {counts}".rstrip(),
        f"bm25_calls: {custodian.bm25_calls}",
        f"network_calls: {gateway.network_calls}",
        f"wall_seconds: {elapsed:.2f}",
        f"workspace_kept: {workspace_note or '-'}",
    ]
    (report_dir / "run.txt").write_text("\n".join(run_lines) + "\n",
                                        encoding="utf-8")


def _parts_text(parts: tuple[str, ...]) -> str:
    if not parts:
        return ""
    blocks = []
    for n, part in enumerate(parts):
        blocks.append(f"--- part {n} ---\n{part}")
    return "".join(blocks)
