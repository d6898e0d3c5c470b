"""Manager agent: build per-file tasks and roles, hold the kick-off
meeting, and emit an execution schedule.

Task and role calls for different files, and the role refinements after
the meeting, run concurrently (llm.map_concurrently); notes keep task order.
The meeting is a circular speech: the manager opens, each developer speaks
once per round in task order, the manager summarizes. Its turns run one at
a time, since each reads the transcript so far. The schedule asked of
the model is a JSON list of lists of task indices; whatever comes back is
repaired into a real partition (unknown or repeated indices dropped,
missing indices appended as final singleton stages), because a plan that
skips or duplicates tasks is not executable.
"""

from __future__ import annotations

import json
import logging
from dataclasses import replace

from . import prompts
from .errors import LLM_TROUBLE
from .llm import MAX_TASKS, Gateway, last_nonempty_line, map_concurrently
from .model import MANAGER_ROLE, MeetingTranscript, TaskAssignment, WorkPlan

log = logging.getLogger(__name__)

DEFAULT_MEETING_ROUNDS = 2
NO_STATEMENT = "(no statement)"


def render_transcript(transcript_turns: list[tuple[str, str]] | tuple) -> str:
    parts = [f"[{speaker}]\n{utterance}" for speaker, utterance in transcript_turns]
    return "\n\n".join(parts)


def format_task_list(tasks: list[TaskAssignment]) -> str:
    return "\n".join(f"{i}: {t.file_path}: {t.task_text.splitlines()[0]}"
                     for i, t in enumerate(tasks))


def parse_plan_groups(response_text: str) -> list[list[int]] | None:
    """Read the final non-empty line as a JSON list of lists of ints.
    Returns None when it is anything else."""
    try:
        data = json.loads(last_nonempty_line(response_text))
    except json.JSONDecodeError:
        return None
    if not isinstance(data, list):
        return None
    groups: list[list[int]] = []
    for item in data:
        if not isinstance(item, list):
            return None
        for v in item:
            if isinstance(v, bool) or not isinstance(v, int):
                return None
        groups.append(list(item))
    return groups


def repair_groups(groups: list[list[int]], n_tasks: int) -> tuple[tuple[int, ...], ...]:
    """Make the groups a partition of 0..n_tasks-1: drop unknown and
    repeated indices, drop empty stages, append missing indices as final
    singleton stages."""
    seen: set[int] = set()
    repaired: list[tuple[int, ...]] = []
    for group in groups:
        kept: list[int] = []
        for i in group:
            if 0 <= i < n_tasks and i not in seen:
                kept.append(i)
                seen.add(i)
        if kept:
            repaired.append(tuple(kept))
    for i in range(n_tasks):
        if i not in seen:
            repaired.append((i,))
    return tuple(repaired)


class Planner:
    def __init__(self, gateway: Gateway, *,
                 meeting_rounds: int = DEFAULT_MEETING_ROUNDS,
                 max_tasks: int = MAX_TASKS):
        if meeting_rounds < 1:
            raise ValueError("meeting_rounds must be >= 1")
        self.gateway = gateway
        self.meeting_rounds = meeting_rounds
        self.max_tasks = max_tasks
        self.notes: list[str] = []

    def define_task(self, file_path: str, file_content: str,
                    issue_text: str) -> str:
        text, _ = self.gateway.complete_structured(
            prompts.TASK_DEFINITION,
            {"issue": issue_text, "path": file_path, "file_content": file_content},
            "plain_text")
        return text

    def define_role(self, task_text: str, issue_text: str) -> str:
        text, _ = self.gateway.complete_structured(
            prompts.DEVELOPER_ROLE,
            {"issue": issue_text, "task": task_text},
            "plain_text")
        return text

    def build_team(self, candidate_paths: list[str], repo_files: dict[str, str],
                   issue_text: str) -> list[TaskAssignment]:
        """One task + one developer role per candidate file, the files
        side by side. A file whose task or role call fails is skipped with
        a note; the rest proceed."""
        if len(candidate_paths) > self.max_tasks:
            dropped = candidate_paths[self.max_tasks:]
            self.notes.append(
                f"plan: task cap {self.max_tasks} reached, dropped "
                f"{len(dropped)} lowest-ranked files: {', '.join(dropped)}")
            log.warning("task cap reached, dropping %d files", len(dropped))
            candidate_paths = candidate_paths[:self.max_tasks]

        def define(path: str) -> TaskAssignment | Exception:
            try:
                task_text = self.define_task(path, repo_files.get(path, ""),
                                             issue_text)
                role_text = self.define_role(task_text, issue_text)
            except LLM_TROUBLE as exc:
                return exc
            return TaskAssignment(file_path=path, task_text=task_text,
                                  developer_role=role_text)

        tasks: list[TaskAssignment] = []
        for path, outcome in zip(candidate_paths,
                                 map_concurrently(define, candidate_paths)):
            if isinstance(outcome, Exception):
                self.notes.append(f"plan: {path}: task definition failed "
                                  f"({outcome})")
                log.warning("skipping %s: %s", path, outcome)
            else:
                tasks.append(outcome)
        return tasks

    def kickoff_meeting(self, tasks: list[TaskAssignment],
                        issue_text: str) -> MeetingTranscript:
        """Manager opening, `meeting_rounds` rounds of one turn per
        developer in task order, manager summary. A failed turn is recorded
        as a placeholder and the meeting continues."""
        if not tasks:
            raise ValueError("kickoff_meeting needs at least one task")
        task_list = format_task_list(tasks)
        turns: list[tuple[str, str]] = []
        opening = self._turn(prompts.MEETING_OPEN,
                             {"issue": issue_text, "task_list": task_list},
                             speaker=MANAGER_ROLE)
        turns.append((MANAGER_ROLE, opening))
        for _ in range(self.meeting_rounds):
            for i, task in enumerate(tasks):
                speaker = f"Developer {i}"
                statement = self._turn(
                    prompts.MEETING_TURN,
                    {"role": task.developer_role, "task": task.task_text,
                     "transcript": render_transcript(turns)},
                    speaker=speaker)
                turns.append((speaker, statement))
        summary = self._turn(prompts.MEETING_SUMMARY,
                             {"transcript": render_transcript(turns)},
                             speaker=MANAGER_ROLE)
        turns.append((MANAGER_ROLE, summary))
        return MeetingTranscript(turns=tuple(turns), summary=summary)

    def _turn(self, template_id: str, variables: dict[str, str],
              speaker: str) -> str:
        try:
            text, _ = self.gateway.complete_structured(template_id, variables,
                                                       "plain_text")
            return text
        except LLM_TROUBLE as exc:
            self.notes.append(f"meeting: {speaker}: turn failed ({exc})")
            log.warning("meeting turn by %s failed: %s", speaker, exc)
            return NO_STATEMENT

    def refine_roles(self, tasks: list[TaskAssignment],
                     transcript: MeetingTranscript) -> list[TaskAssignment]:
        """Rewrite each developer role in the light of the meeting, the
        tasks side by side; a failed rewrite keeps the original role.
        Pairing is positional."""
        rendered = render_transcript(transcript.turns)

        def refine(task: TaskAssignment) -> TaskAssignment | Exception:
            try:
                role, _ = self.gateway.complete_structured(
                    prompts.ROLE_REFINEMENT,
                    {"role": task.developer_role, "transcript": rendered},
                    "plain_text")
            except LLM_TROUBLE as exc:
                return exc
            return replace(task, developer_role=role)

        refined: list[TaskAssignment] = []
        for i, (task, outcome) in enumerate(
                zip(tasks, map_concurrently(refine, tasks))):
            if isinstance(outcome, Exception):
                self.notes.append(f"plan: task {i}: role refinement failed "
                                  f"({outcome})")
                outcome = task
            refined.append(outcome)
        return refined

    def make_plan(self, transcript: MeetingTranscript,
                  tasks: list[TaskAssignment]) -> WorkPlan:
        """Ask for a dependency ordering and repair it into a partition.
        An unusable response degrades to fully serialized singletons."""
        n = len(tasks)
        try:
            response, _ = self.gateway.complete_structured(
                prompts.WORK_PLAN,
                {"task_list": format_task_list(tasks),
                 "transcript": render_transcript(transcript.turns)},
                "plain_text")
            groups = parse_plan_groups(response)
        except LLM_TROUBLE as exc:
            self.notes.append(f"plan: work-plan call failed ({exc})")
            groups = None
        if groups is None:
            self.notes.append("plan: unusable work-plan response, "
                              "falling back to sequential singletons")
            groups = [[i] for i in range(n)]
        return WorkPlan(groups=repair_groups(groups, n),
                        transcript_ref="meeting.txt")
