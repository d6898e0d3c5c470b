"""Developer and QA agents: turn one task into a reviewed file diff.

Per iteration the developer is asked which line ranges must change, the
file is split into retained and editable parts, each editable part is
rewritten, and the resulting diff goes to the QA engineer for a comment
and then an approve/reject decision. A rejection folds the review comment
into the task text for the next iteration. The loop runs at most n_max
iterations and the final iteration's diff ships even without approval.
Each iteration leaves one AttemptRecord, and the TaskResult reads its
iteration count, approval and failure off those records.

Every iteration rewrites the original file, not the previous attempt;
only the task text accumulates review feedback. resolve_issue gives each
file one task, and runs all the tasks concurrently; no work plan orders
them. A task's QA persona reads only the task text and the file, so
assign_qa can give it one early, beside other work (the runner does so
during the kick-off meeting); resolve_issue then runs the task on the
coder that spawned its QA engineer.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable

from . import prompts
from .diffs import (CodeChange, FileDiff, compute_diff, keyed_lines,
                    render_file_diff)
from .errors import LLM_TROUBLE
from .intervals import LineIntervalSet, normalize
from .llm import Gateway, map_concurrently
from .model import ReviewOutcome, TaskAssignment

log = logging.getLogger(__name__)

DEFAULT_MAX_REVIEW_ITERS = 3
WHOLE_FILE_CONTEXT_LINES = 400
CONTEXT_WINDOW_LINES = 40

_FENCE_OPEN = re.compile(r"^```[\w+-]*\s*$")


def number_lines(content: str) -> str:
    lines = [k[:-1] if k.endswith("\n") else k for k in keyed_lines(content)]
    return "\n".join(f"{i}: {line}" for i, line in enumerate(lines, start=1))


def strip_code_fences(text: str) -> str:
    """Remove one outer markdown fence pair if the response is wrapped in
    one; otherwise return the text unchanged."""
    lines = text.split("\n")
    start, end = 0, len(lines)
    while start < end and not lines[start].strip():
        start += 1
    while end > start and not lines[end - 1].strip():
        end -= 1
    if end - start >= 2 and _FENCE_OPEN.match(lines[start]) \
            and lines[end - 1].strip() == "```":
        inner = lines[start + 1:end - 1]
        return "\n".join(inner) + ("\n" if inner else "")
    return text


def split_file(content: str, intervals: LineIntervalSet) -> tuple[list[str], list[str]]:
    """Split into alternating retained and editable texts.

    Returns (retained, editable) with len(retained) == len(editable) + 1;
    the original file is retained[0] + editable[0] + retained[1] + ... in
    order. An empty interval set returns ([content], []).
    """
    lines = keyed_lines(content)
    norm = normalize(intervals)
    if norm.intervals and norm.intervals[-1][1] > len(lines):
        raise ValueError(f"interval {norm.intervals[-1]} exceeds "
                         f"{len(lines)} lines; clamp first")
    retained: list[str] = []
    editable: list[str] = []
    cursor = 0
    for start, end in norm.intervals:
        retained.append("".join(lines[cursor:start - 1]))
        editable.append("".join(lines[start - 1:end]))
        cursor = end
    retained.append("".join(lines[cursor:]))
    return retained, editable


def substitute(retained: list[str], new_parts: list[str]) -> str:
    """Reassemble a file from retained texts and replacement blocks.

    A non-empty block gains a trailing newline when any content follows
    it, so replacements cannot merge with the next retained line; a block
    at end of file keeps its own trailing-newline state.
    """
    if len(retained) != len(new_parts) + 1:
        raise ValueError("substitute needs len(retained) == len(new_parts) + 1")
    out: list[str] = []
    for i, block in enumerate(new_parts):
        out.append(retained[i])
        if block and not block.endswith("\n"):
            followed = any(new_parts[j] for j in range(i + 1, len(new_parts))) \
                or any(retained[j] for j in range(i + 1, len(retained)))
            if followed:
                block += "\n"
        out.append(block)
    out.append(retained[-1])
    return "".join(out)


def append_block(content: str, block: str) -> str:
    """Append-mode edit: the block lands after the last line."""
    if block == "":
        return content
    if content and not content.endswith("\n"):
        content += "\n"
    return content + block


@dataclass(frozen=True)
class AttemptRecord:
    intervals: LineIntervalSet | None  # None: the iteration made no diff
    old_parts: tuple[str, ...]
    new_parts: tuple[str, ...]
    diff_text: str
    review: ReviewOutcome | None
    error: str = ""


@dataclass(frozen=True)
class TaskResult:
    task: TaskAssignment
    file_diff: FileDiff
    new_content: str
    attempts: tuple[AttemptRecord, ...]

    @property
    def iterations(self) -> int:
        return len(self.attempts)

    @property
    def approved(self) -> bool:
        return any(a.review is not None and a.review.approved
                   for a in self.attempts)

    @property
    def failed(self) -> bool:
        """No iteration produced a diff."""
        return all(a.intervals is None for a in self.attempts)


class Coder:
    def __init__(self, gateway: Gateway, *,
                 n_max: int = DEFAULT_MAX_REVIEW_ITERS,
                 qa_enabled: bool = True):
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        self.gateway = gateway
        self.n_max = n_max
        self.qa_enabled = qa_enabled
        self.notes: list[str] = []
        # task file path -> the coder that spawned its QA engineer
        self._workers: dict[str, Coder] = {}

    def _worker(self) -> Coder:
        return Coder(self.gateway, n_max=self.n_max, qa_enabled=self.qa_enabled)

    def assign_qa(self, task: TaskAssignment,
                  original_files: dict[str, str]) -> TaskAssignment:
        """spawn_qa for the task's file on a coder of the task's own, which
        resolve_issue later runs the task on, so a failed spawn's note leads
        that task's notes. Tasks on different files may be given their QA
        engineers at once, from several threads."""
        worker = self._workers[task.file_path] = self._worker()
        return worker.spawn_qa(task, original_files.get(task.file_path, ""))

    def spawn_qa(self, task: TaskAssignment, file_content: str) -> TaskAssignment:
        """Attach a QA persona to the task; on failure the task proceeds
        without a review loop."""
        if not self.qa_enabled:
            return task
        try:
            qa_role = self.gateway.complete_structured(
                prompts.QA_ROLE,
                {"task": task.task_text, "file_content": file_content},
                "plain_text")
            return replace(task, qa_role=qa_role)
        except LLM_TROUBLE as exc:
            self.notes.append(f"coder: {task.file_path}: QA spawn failed, "
                              f"review disabled ({exc})")
            log.warning("QA spawn failed for %s: %s", task.file_path, exc)
            return task

    def locate_lines(self, file_content: str, task_text: str, *,
                     role: str, path: str) -> LineIntervalSet:
        """Ask which 1-based line ranges must change. The result is
        normalized and clamped to the file; empty means append at end."""
        if file_content == "":
            raise ValueError("locate_lines needs non-empty content")
        intervals = self.gateway.complete_structured(
            prompts.LINE_INTERVALS,
            {"role": role, "path": path, "task": task_text,
             "numbered_content": number_lines(file_content)},
            "interval_list")
        return normalize(intervals).clamped(len(keyed_lines(file_content)))

    def generate_replacement(self, *, role: str, path: str, task_text: str,
                             context: str, old_parts: list[str]) -> list[str]:
        """One replacement block per editable part. An empty or
        whitespace-only response deletes the part."""
        blocks: list[str] = []
        for segment in old_parts:
            text = self.gateway.complete(
                prompts.REPLACEMENT_CODE,
                {"role": role, "path": path, "task": task_text,
                 "context": context, "segment": segment})
            blocks.append("" if not text.strip() else strip_code_fences(text))
        return blocks

    def _context_for(self, content: str, intervals: LineIntervalSet,
                     summary: str) -> str:
        lines = keyed_lines(content)
        if len(lines) <= WHOLE_FILE_CONTEXT_LINES:
            return content
        pieces: list[str] = []
        if summary:
            pieces.append(f"(file summary)\n{summary}")
        spans = intervals.intervals or ((len(lines), len(lines)),)
        for start, end in spans:
            lo = max(1, start - CONTEXT_WINDOW_LINES)
            hi = min(len(lines), end + CONTEXT_WINDOW_LINES)
            pieces.append(f"(lines {lo}-{hi})\n" + "".join(lines[lo - 1:hi]))
        return "\n...\n".join(pieces)

    def execute_task(self, task: TaskAssignment, file_content: str, *,
                     is_new_file: bool = False,
                     summary: str = "") -> TaskResult:
        """Run the revision loop. Returns the approved diff, or the last
        produced diff on loop exhaustion, or an empty diff when no
        iteration produced one."""
        path = task.file_path
        work_text = task.task_text
        attempts: list[AttemptRecord] = []
        shipped = (FileDiff(path, path, ()), file_content)

        for j in range(self.n_max):
            review, error = None, ""
            try:
                if file_content == "" or is_new_file:
                    intervals = LineIntervalSet(())
                else:
                    intervals = self.locate_lines(file_content, work_text,
                                                  role=task.developer_role,
                                                  path=path)
                retained, old_parts = split_file(file_content, intervals)
                blocks = self.generate_replacement(
                    role=task.developer_role, path=path, task_text=work_text,
                    context=self._context_for(file_content, intervals, summary),
                    old_parts=old_parts or [""])
            except LLM_TROUBLE as exc:
                intervals, old_parts, blocks, diff_text = None, [], [], ""
                error = str(exc)
                self.notes.append(f"coder: {path}: iteration {j} failed ({exc})")
                log.warning("iteration %d on %s failed: %s", j, path, exc)
            else:
                new_content = (substitute(retained, blocks) if old_parts
                               else append_block(file_content, blocks[0]))
                file_diff = compute_diff(file_content, new_content, path)
                if is_new_file and file_diff.hunks:
                    file_diff = replace(file_diff, is_new_file=True)
                shipped = (file_diff, new_content)
                diff_text = render_file_diff(file_diff)
                if task.qa_role is not None:
                    try:
                        review = self._review(task.qa_role, work_text,
                                              diff_text)
                    except LLM_TROUBLE as exc:
                        error = str(exc)
                        self.notes.append(
                            f"coder: {path}: review failed on iteration {j}, "
                            f"shipping unreviewed ({exc})")
            attempts.append(AttemptRecord(intervals, tuple(old_parts),
                                          tuple(blocks), diff_text, review,
                                          error))
            if error or review is None or review.approved:
                break
            work_text = f"{work_text}\n\nReview comment:\n{review.comment}"

        result = TaskResult(task, *shipped, tuple(attempts))
        if result.failed:
            self.notes.append(f"coder: {path}: no iteration produced a change")
        return result

    def resolve_issue(self, tasks: list[TaskAssignment],
                      original_files: dict[str, str],
                      summaries: dict[str, str] | None = None,
                      on_result: Callable[[int, TaskResult], None] | None = None,
                      ) -> tuple[CodeChange, list[TaskResult]]:
        """Execute every task and merge the results.

        Each task edits a file of its own: two tasks naming one path raise
        ValueError. So every task starts from its file's original content,
        nothing passes from one task to another, and all the tasks run
        concurrently, each with a coder of its own (the one assign_qa gave
        it, if any), so its notes stay apart from other workers'. A task
        runs with the QA role it carries: assign_qa the tasks first for a
        review loop. Task i's worker calls ``on_result(i, result)`` as soon
        as the task is done. Results and notes are merged in task order, as
        if the tasks had run one by one. The change holds the diff of each
        task that changed its file (a failed task has none), sorted by path.
        """
        shared = sorted(path for path, n in Counter(
            task.file_path for task in tasks).items() if n > 1)
        if shared:
            raise ValueError(f"tasks share a file: {', '.join(shared)}")
        summaries = summaries or {}

        def run(numbered: tuple[int, TaskAssignment]
                ) -> tuple[TaskResult, list[str]]:
            i, task = numbered
            path = task.file_path
            worker = self._workers.pop(path, None) or self._worker()
            result = worker.execute_task(
                task, original_files.get(path, ""),
                is_new_file=path not in original_files,
                summary=summaries.get(path, ""))
            if on_result is not None:
                on_result(i, result)
            return result, worker.notes

        results: list[TaskResult] = []
        for result, notes in map_concurrently(run, enumerate(tasks)):
            results.append(result)
            self.notes += notes
        diffs = sorted((r.file_diff for r in results if r.file_diff.hunks),
                       key=lambda fd: fd.path)
        return CodeChange(tuple(diffs)), results

    def _review(self, qa_role: str, task_text: str,
                diff_text: str) -> ReviewOutcome:
        comment = self.gateway.complete_structured(
            prompts.REVIEW,
            {"qa_role": qa_role, "task": task_text, "diff": diff_text,
             "comment": "", "phase": "comment"},
            "plain_text")
        decision = self.gateway.complete_structured(
            prompts.REVIEW,
            {"qa_role": qa_role, "task": task_text, "diff": diff_text,
             "comment": comment, "phase": "decision"},
            "boolean_decision")
        return ReviewOutcome(comment=comment, approved=decision)
