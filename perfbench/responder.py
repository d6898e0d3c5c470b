"""Scripted LLM stand-in for recording cassettes, and the backend wrapper
timed runs replay through.

The responder answers from a script the input generator wrote: which files
each issue targets, which line of each file changes and to what, which
tasks QA rejects once, and which decisions first come back malformed. It
recognises a call only by its template id and by tags that the generated
inputs and its own earlier answers carry, never by template wording:

    {issue:ID}        in each issue text
    {file:PATH}       on the first line of each generated file
    {task:ID@PATH}    in task texts (P4 answers)
    {role:ID@PATH}    in developer role cards (P5 and P6 answers)
    {qa:ID@PATH}      in QA role cards (P8 answers)

Meeting statements, summaries' update lines, commit messages and review
comments carry no tag, so a transcript never makes a prompt ambiguous.

The QA agent is the one stateful part. The coder asks for a comment and
then a decision on each attempt; the responder follows that alternation per
task, and treats a prompt that extends the previous one as the gateway's
format-reminder retry of the same phase.
"""

from __future__ import annotations

import re
import time
from collections import Counter
from dataclasses import dataclass, field

TAG = re.compile(r"\{(issue|file|task|role|qa):([^{}\s]+)\}")


@dataclass(frozen=True)
class Edit:
    """Replace 1-based line ``line_no`` (text ``old``) of ``path`` with
    ``new``. Both texts include their newline."""

    path: str
    line_no: int
    old: str
    new: str
    qa_rejects_first: bool = False
    malformed_first_decision: bool = False


@dataclass(frozen=True)
class IssueScript:
    issue_id: str
    edits: tuple[Edit, ...]  # one per target file, in plan-task order
    stage_width: int = 1

    def edit_for(self, path: str) -> Edit:
        for edit in self.edits:
            if edit.path == path:
                return edit
        raise KeyError(f"{self.issue_id}: no scripted edit for {path}")


def _filler(prefix: str, n_words: int) -> str:
    words = ("the", "change", "keeps", "callers", "stable", "and", "covers",
             "each", "branch", "of", "this", "module", "with", "care")
    return prefix + " " + " ".join(words[i % len(words)] for i in range(n_words))


class ScriptedResponder:
    """Backend protocol: ``complete(key, template_id, rendered_prompt)``."""

    def __init__(self, scripts: dict[str, IssueScript]):
        self.scripts = scripts
        self._review_state: dict[str, tuple[str, str]] = {}  # task -> (phase, prompt)
        self._rejected: set[str] = set()
        self._malformed: set[str] = set()

    def complete(self, key: str, template_id: str, rendered_prompt: str) -> str:
        tags: dict[str, list[str]] = {}
        for kind, value in TAG.findall(rendered_prompt):
            tags.setdefault(kind, []).append(value)
        answer = getattr(self, f"_answer_{template_id.lower()}")
        return answer(tags, rendered_prompt)

    # -- helpers -----------------------------------------------------------

    def _one(self, tags: dict[str, list[str]], kind: str) -> str:
        values = set(tags.get(kind, ()))
        if len(values) != 1:
            raise ValueError(f"expected one {kind} tag, found {sorted(values)}")
        return values.pop()

    def _task(self, tags) -> tuple[IssueScript, Edit, str]:
        task = self._one(tags, "task")
        issue_id, path = task.split("@", 1)
        script = self.scripts[issue_id]
        return script, script.edit_for(path), task

    # -- one method per template id ----------------------------------------

    def _answer_p1(self, tags, prompt):
        return _filler("Adjusts one helper line;", 14)

    def _answer_p2(self, tags, prompt):
        path = self._one(tags, "file")
        return _filler(f"{{file:{path}}} Summary: defines small numeric helpers;", 30)

    def _answer_p3(self, tags, prompt):
        script = self.scripts[self._one(tags, "issue")]
        path = self._one(tags, "file")
        relevant = any(e.path == path for e in script.edits)
        return (_filler("The summary was weighed against the issue;", 10)
                + "\nDECISION: " + ("YES" if relevant else "NO"))

    def _answer_p4(self, tags, prompt):
        script = self.scripts[self._one(tags, "issue")]
        path = self._one(tags, "file")
        edit = script.edit_for(path)
        return (f"{{task:{script.issue_id}@{path}}} Fix line {edit.line_no} of "
                f"{path}. " + _filler("Make the computation correct;", 12))

    def _answer_p5(self, tags, prompt):
        return _filler(f"{{role:{self._one(tags, 'task')}}} Careful Python "
                       f"developer;", 28)

    def _answer_p6(self, tags, prompt):
        return _filler(f"{{role:{self._one(tags, 'role')}}} Refined after the "
                       f"meeting;", 28)

    def _answer_meeting_open(self, tags, prompt):
        return _filler("Goal: resolve the issue with per-file tasks;", 24)

    def _answer_meeting_turn(self, tags, prompt):
        return _filler("I confirm my task and see no blocking dependency;", 30)

    def _answer_meeting_summary(self, tags, prompt):
        return _filler("Agreed: every task proceeds as planned;", 30)

    def _answer_p7(self, tags, prompt):
        issue_ids = {t.split("@", 1)[0] for t in tags.get("task", ())}
        if len(issue_ids) != 1:
            raise ValueError(f"work plan prompt names issues {sorted(issue_ids)}")
        script = self.scripts[issue_ids.pop()]
        n, w = len(script.edits), script.stage_width
        groups = [list(range(i, min(i + w, n))) for i in range(0, n, w)]
        return "Stages follow the agreed order.\n" + str(groups).replace(" ", "")

    def _answer_p8(self, tags, prompt):
        return _filler(f"{{qa:{self._one(tags, 'task')}}} QA engineer who checks "
                       f"arithmetic;", 20)

    def _answer_p9(self, tags, prompt):
        _, edit, _ = self._task(tags)
        return f"Only one line must change.\n[[{edit.line_no},{edit.line_no}]]"

    def _answer_p10(self, tags, prompt):
        _, edit, _ = self._task(tags)
        if edit.old not in prompt:
            raise ValueError(f"segment for {edit.path} not in prompt")
        return edit.new

    def _answer_p11(self, tags, prompt):
        _, edit, task = self._task(tags)
        phase, last_prompt = self._review_state.get(task, ("decision", ""))
        retry = bool(last_prompt) and prompt.startswith(last_prompt) \
            and len(prompt) > len(last_prompt)
        if not retry:
            phase = "comment" if phase == "decision" else "decision"
        self._review_state[task] = (phase, prompt)
        reject = edit.qa_rejects_first and task not in self._rejected
        if phase == "comment":
            if reject:
                return _filler("The edited line needs a second look;", 16)
            return _filler("The edit matches the task;", 16)
        if edit.malformed_first_decision and task not in self._malformed:
            self._malformed.add(task)
            return "I lean towards accepting this change."
        if reject:
            self._rejected.add(task)
            return "Not yet.\nDECISION: NO"
        return "Approved.\nDECISION: YES"


@dataclass
class CallStats:
    calls: Counter = field(default_factory=Counter)  # template id -> calls
    prompt_words: Counter = field(default_factory=Counter)
    completion_words: int = 0

    def snapshot(self) -> tuple:
        return (tuple(sorted(self.calls.items())),
                tuple(sorted(self.prompt_words.items())),
                self.completion_words)


class MeteredBackend:
    """Counts calls and whitespace words per template, and sleeps for a
    modelled latency: ``per_call_s + per_prompt_word_s * prompt words +
    per_completion_word_s * completion words``. The model depends only on
    the texts, so the same exchange always waits the same time."""

    def __init__(self, inner, *, per_call_s: float = 0.0,
                 per_prompt_word_s: float = 0.0,
                 per_completion_word_s: float = 0.0):
        self.inner = inner
        self.mode = inner.mode
        self.per_call_s = per_call_s
        self.per_prompt_word_s = per_prompt_word_s
        self.per_completion_word_s = per_completion_word_s
        self.stats = CallStats()

    def complete(self, key: str, template_id: str, rendered_prompt: str) -> str:
        response = self.inner.complete(key, template_id, rendered_prompt)
        prompt_words = len(rendered_prompt.split())
        completion_words = len(response.split())
        self.stats.calls[template_id] += 1
        self.stats.prompt_words[template_id] += prompt_words
        self.stats.completion_words += completion_words
        delay = (self.per_call_s + self.per_prompt_word_s * prompt_words
                 + self.per_completion_word_s * completion_words)
        if delay > 0:
            time.sleep(delay)
        return response
