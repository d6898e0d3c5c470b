"""End-to-end issue resolution: locate, plan, code, report.

Locate lists the base revision's files with their blob ids
(gitops.list_repo_files), brings the custodian's term index up to that
listing by reading only the blobs it does not know, ranks from the
postings of the issue's own terms, and then reads the contents of the
top-k files for their summaries. The planner and the coder get the
candidate files' contents from that read. Every content comes
straight from the repository's object store (gitops.iter_repo_files and
gitops.read_repo_files), so a resolve makes no checkout. With a
memory path the index persists at ``<memory-path>.bm25`` (an inverted
file of packed binary postings, loaded in one read and saved in one
write, see custodian.TermIndex), rewritten only when the listing added
or dropped a blob; without one it lives for the run.

Independent LLM calls run concurrently (llm.map_concurrently): the
per-file summaries and relevance checks of locate, the per-file task and
role definitions, the role refinements after the meeting beside the
work-plan call, and then every task at once. Each task's QA persona
(P8) reads only its task text and its file, which neither the meeting
nor role refinement changes, so the kick-off meeting and the P8 calls
run side by side, each on a thread of its own. The meeting runs turn by
turn, since each turn reads the transcript so far.
Each task edits a file of its own, starting from the base revision, so
the plan.txt stages order no work; they are the manager's plan, reported
as written. Every stage merges its results and notes in rank or task
order, so the report is the same as if every call had run in turn.

Artifacts per run, under ``<out_dir>/<instance_id>/``, each file written
as soon as its content is final:
  meeting.txt   the kick-off transcript and summary, after the meeting
  plan.txt      the manager's staged schedule, then task i, its file and
                roles, for each i; after role refinement and the plan
  task_<i>/attempt_<j>/{intervals.txt, old.txt, new.txt, diff.patch,
                        review.txt}   the attempts of plan.txt's task i,
                written by task i's worker once the task is done
  notes.txt     degradations and warnings collected along the way
  run.txt       flags, mode, call counts, wall time (the one file that is
                not byte-stable between runs), written last: a report
                directory without one comes from a resolve that raised
                (or is still running); an earlier run's is removed first,
                with its meeting.txt and task_<i> directories

The generated patch itself lands at ``<out_dir>/<instance_id>.patch``.
"""

from __future__ import annotations

import logging
import shutil
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .coder import DEFAULT_MAX_REVIEW_ITERS, Coder, TaskResult
from .custodian import (Custodian, LocateResult, TermIndex, load_memory,
                        load_term_index, save_memory, save_term_index)
from .diffs import CodeChange, render_change
from .gitops import iter_repo_files, list_repo_files, read_repo_files
from .llm import (Gateway, LiveBackend, RecordBackend, ReplayBackend,
                  map_concurrently)
from .model import IssueInstance
from .planner import DEFAULT_MEETING_ROUNDS, Planner, render_transcript

log = logging.getLogger(__name__)

LLM_MODES = ("live", "replay", "record")


@dataclass
class RunConfig:
    llm_mode: str = "replay"
    cassette_path: str | None = None
    top_k: int = 10
    max_review_iters: int = DEFAULT_MAX_REVIEW_ITERS
    meeting_rounds: int = DEFAULT_MEETING_ROUNDS
    memory_path: str | None = None
    use_oracle: bool = False
    qa_enabled: bool = True
    hints_enabled: bool = True
    out_dir: Path = field(default_factory=lambda: Path("runs"))

    def __post_init__(self):
        if self.llm_mode not in LLM_MODES:
            raise ValueError(f"llm_mode must be one of {LLM_MODES}")
        if self.llm_mode in ("replay", "record") and not self.cassette_path:
            raise ValueError(f"--llm-mode {self.llm_mode} requires a cassette path")
        for flag, value in (("--top-k", self.top_k),
                            ("--max-review-iters", self.max_review_iters),
                            ("--meeting-rounds", self.meeting_rounds)):
            if value < 1:
                raise ValueError(f"{flag} must be >= 1, not {value}")
        self.out_dir = Path(self.out_dir)


def build_gateway(config: RunConfig) -> Gateway:
    if config.llm_mode == "replay":
        return Gateway(ReplayBackend(config.cassette_path))
    if config.llm_mode == "record":
        return Gateway(RecordBackend(LiveBackend(), config.cassette_path))
    return Gateway(LiveBackend())


@dataclass
class Located:
    """The locate stage's output: the candidate files and their contents,
    the issue text with hints folded in, and the custodian that ranked
    them."""
    files: dict[str, str]  # each candidate that is UTF-8 text at the base
    issue: str
    custodian: Custodian
    candidates: list[str]
    result: LocateResult | None  # None when oracle files bypassed ranking


def locate_files(instance: IssueInstance, config: RunConfig,
                 gateway: Gateway) -> Located:
    """List the base revision's files, and pick candidate files with the
    custodian (or take the oracle files). Contents come from the object
    store, and only where needed: the blobs the term index does not know
    yet, streamed and counted one blob's text at a time, then the top-k
    files the custodian summarizes, which hands on the candidates' texts
    (the index keeps no text, so one it has just counted is read again),
    so no checkout is made. The memory and the index are saved once the
    custodian is done with them, since nothing later changes them; the
    index only when this listing added or dropped a blob."""
    repo = instance.repo_path
    listing = list_repo_files(repo, instance.base_revision)

    def read(paths: list[str]) -> dict[str, str]:
        return read_repo_files(repo, {path: listing[path] for path in paths})

    memory = (load_memory(config.memory_path) if config.memory_path
              and Path(config.memory_path).exists() else {})
    custodian = Custodian(gateway, memory)

    issue = instance.issue_text
    if config.hints_enabled and instance.hints_text:
        issue = f"{issue}\n\nHints:\n{instance.hints_text}"

    result = None
    if config.use_oracle and instance.oracle_files:
        candidates = list(instance.oracle_files)
        files = read([path for path in candidates if path in listing])
        log.info("oracle files supplied, custodian bypassed")
    else:
        index_path = (Path(f"{config.memory_path}.bm25")
                      if config.memory_path else None)
        index = (load_term_index(index_path)
                 if index_path and index_path.exists() else TermIndex())

        changed = index.update(
            listing, lambda blobs: iter_repo_files(repo, blobs))
        result = custodian.locate(index.documents(listing), issue,
                                  config.top_k, read)
        candidates, files = list(result.candidates), result.files
        if index_path and changed:
            save_term_index(index, index_path)

    if config.memory_path:
        save_memory(custodian.memory, config.memory_path)
    return Located(files, issue, custodian, candidates, result)


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
    files, issue, custodian = located.files, located.issue, located.custodian

    planner = Planner(gateway, meeting_rounds=config.meeting_rounds)
    coder = Coder(gateway, n_max=config.max_review_iters,
                  qa_enabled=config.qa_enabled)
    report_dir = config.out_dir / instance.instance_id
    patch_path = config.out_dir / f"{instance.instance_id}.patch"

    tasks = planner.build_team(located.candidates, files, issue)
    report_dir.mkdir(parents=True, exist_ok=True)
    # run.txt marks a finished resolve, so an earlier run's must not stay,
    # nor its meeting and attempts, which this run may not rewrite
    (report_dir / "run.txt").unlink(missing_ok=True)
    (report_dir / "meeting.txt").unlink(missing_ok=True)
    for stale in report_dir.glob("task_*"):
        if stale.is_dir():
            shutil.rmtree(stale)
    task_results: list[TaskResult] = []
    if tasks:
        transcript, *tasks = map_concurrently(lambda unit: unit(), [
            partial(planner.kickoff_meeting, tasks, issue),
            *(partial(coder.assign_qa, task, original_files=files)
              for task in tasks)], workers=len(tasks) + 1)
        _write_meeting(report_dir, transcript)
        tasks, plan = planner.refine_and_plan(tasks, transcript)
        _write_plan(report_dir, plan, tasks)
        # only a summary of the version at hand: an oracle run summarizes
        # nothing, and a failed summary call leaves the old entry
        change, task_results = coder.resolve_issue(
            tasks, files, custodian.summaries_of(files),
            on_result=partial(_write_task, report_dir))
    else:
        _write_plan(report_dir, None, tasks)
        change = CodeChange(())

    notes = custodian.notes + planner.notes + coder.notes
    patch_path.write_text(render_change(change), encoding="utf-8")
    (report_dir / "notes.txt").write_text(
        "\n".join(notes) + "\n" if notes else "", encoding="utf-8")
    elapsed = time.monotonic() - started
    _write_run(report_dir, instance, config, gateway,
               located.result is not None, elapsed)
    return RunOutcome(instance_id=instance.instance_id, change=change,
                      patch_path=patch_path, report_dir=report_dir,
                      task_results=task_results, notes=notes,
                      elapsed_seconds=elapsed)


def _write_meeting(report_dir: Path, transcript) -> None:
    meeting = render_transcript(transcript.turns)
    (report_dir / "meeting.txt").write_text(
        f"{meeting}\n\n# summary\n{transcript.summary}\n", encoding="utf-8")


def _write_plan(report_dir: Path, plan, tasks) -> None:
    lines = ["# work plan"]
    if plan is not None:
        lines.append("transcript: meeting.txt")
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


def _write_task(report_dir: Path, i: int, result: TaskResult) -> None:
    for j, attempt in enumerate(result.attempts):
        attempt_dir = report_dir / f"task_{i}" / f"attempt_{j}"
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
        (attempt_dir / "review.txt").write_text(review_text, encoding="utf-8")


def _write_run(report_dir: Path, instance: IssueInstance, config: RunConfig,
               gateway: Gateway, ranked: bool, elapsed: float) -> None:
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
        f"bm25_calls: {int(ranked)}",
        f"network_calls: {gateway.network_calls}",
        f"wall_seconds: {elapsed:.2f}",
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
