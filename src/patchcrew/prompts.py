"""Prompt templates and rendering.

Placeholders use ``<<name>>``. Template ids are part of the wire contract
(cassette keys embed them); the wording of the bodies is editable without
breaking replay as long as recorded cassettes are regenerated, because keys
hash only the variables, not the body text.

Structured-output markers are fixed so responses stay machine-parseable and
cassettes stay hand-writable:
  - decisions end with a final line ``DECISION: YES`` or ``DECISION: NO``
  - line ranges end with a JSON list of pairs, e.g. ``[[12,20],[44,44]]``
    (``[]`` means append at end of file)
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .errors import TemplateError

_PLACEHOLDER = re.compile(r"<<([a-z_]+)>>")

# template ids
COMMIT_MESSAGE = "P1"
FILE_SUMMARY = "P2"
RELEVANCE_DECISION = "P3"
TASK_DEFINITION = "P4"
DEVELOPER_ROLE = "P5"
ROLE_REFINEMENT = "P6"
WORK_PLAN = "P7"
QA_ROLE = "P8"
LINE_INTERVALS = "P9"
REPLACEMENT_CODE = "P10"
REVIEW = "P11"
MEETING_OPEN = "MEETING_OPEN"
MEETING_TURN = "MEETING_TURN"
MEETING_SUMMARY = "MEETING_SUMMARY"


@dataclass(frozen=True)
class PromptTemplate:
    template_id: str
    body: str

    @cached_property
    def required_vars(self) -> tuple[str, ...]:
        """The body's placeholder names, in order of first use."""
        return tuple(dict.fromkeys(_PLACEHOLDER.findall(self.body)))


_TEMPLATES: dict[str, PromptTemplate] = {}


def _define(template_id: str, body: str) -> None:
    _TEMPLATES[template_id] = PromptTemplate(template_id, body.strip() + "\n")


def get_template(template_id: str) -> PromptTemplate:
    try:
        return _TEMPLATES[template_id]
    except KeyError:
        raise TemplateError(f"unknown template id: {template_id}") from None


def render(template_id: str, variables: dict[str, str]) -> str:
    """Substitute all placeholders. The variable set must match the
    body's placeholder names exactly; values must be strings."""
    tpl = get_template(template_id)
    required = set(tpl.required_vars)
    supplied = set(variables)
    missing = sorted(required - supplied)
    if missing:
        raise TemplateError(f"missing variable: {missing[0]}"
                            if len(missing) == 1
                            else f"missing variables: {', '.join(missing)}")
    extra = sorted(supplied - required)
    if extra:
        raise TemplateError(f"unexpected variables for {template_id}: "
                            f"{', '.join(extra)}")
    for name, value in variables.items():
        if not isinstance(value, str):
            raise TemplateError(f"variable {name!r} must be a string")
    # one pass over the body, so an inserted value is never searched again
    return _PLACEHOLDER.sub(lambda m: variables[m.group(1)], tpl.body)


_define(COMMIT_MESSAGE, """
You are a repository custodian who writes precise commit messages.

Here is a unified diff of a recent change to one file:

<<diff>>

Write a one-paragraph commit message describing what changed and why it
matters. Respond with the message text only.
""")

_define(FILE_SUMMARY, """
You are a repository custodian who memorizes a codebase.

Summarize the following file so that a colleague could judge from the
summary alone whether the file is relevant to a future bug report or
feature request. Cover the file's purpose, its key definitions, and
anything unusual.

File: <<path>>

<<content>>

Respond with the summary text only.
""")

_define(RELEVANCE_DECISION, """
You are a repository custodian deciding which files the development team
should examine for an issue.

Issue:
<<issue>>

Summary of a candidate file:
<<summary>>

Is this file relevant to resolving the issue? Explain briefly, then answer
on the final line with exactly one of:

DECISION: YES
DECISION: NO
""")

_define(TASK_DEFINITION, """
You are an engineering manager decomposing an issue into per-file tasks.

Issue:
<<issue>>

Target file <<path>>:

<<file_content>>

State the single task a developer must perform on this file to help
resolve the issue. Respond with the task description only.
""")

_define(DEVELOPER_ROLE, """
You are an engineering manager describing the ideal developer for a task.

Issue:
<<issue>>

Task:
<<task>>

Write a short role card for the developer who should take this task:
expertise, responsibilities, working style. Respond with the role card
only.
""")

_define(ROLE_REFINEMENT, """
You are an engineering manager updating a role card after the kick-off
meeting.

Current role card:
<<role>>

Meeting transcript:
<<transcript>>

Rewrite the role card so it reflects what the meeting agreed. Keep it a
role description. Respond with the revised role card only.
""")

_define(WORK_PLAN, """
You are an engineering manager ordering tasks after the kick-off meeting.

Tasks (index: file: description):
<<task_list>>

Meeting transcript:
<<transcript>>

Group the task indices into execution stages: tasks within one stage are
independent of each other; stages run strictly in order. Respond on the
final line with the stages as a JSON list of lists of task indices, for
example [[0,2],[1]].
""")

_define(QA_ROLE, """
You are an engineering manager assigning a reviewer.

A developer is starting this task:
<<task>>

Content of the target file:

<<file_content>>

Describe the quality-assurance engineer best suited to review this work:
their expertise and what they should scrutinize. Respond with the QA role
description only.
""")

_define(LINE_INTERVALS, """
<<role>>

Your task on file <<path>>:
<<task>>

The current file content, with 1-based line numbers:

<<numbered_content>>

Which line ranges must change to complete the task? Respond on the final
line with a JSON list of [start, end] pairs, 1-based and inclusive, for
example [[12,20],[44,44]]. Respond with [] if code should only be appended
at the end of the file.
""")

_define(REPLACEMENT_CODE, """
<<role>>

Your task on file <<path>>:
<<task>>

File context:

<<context>>

You are rewriting one region of the file. The region currently reads:

<<segment>>

Write the text that replaces exactly this region. Respond with raw code
only: no fences, no commentary. An empty response deletes the region.
""")

_define(REVIEW, """
You are the quality-assurance engineer described by this role card:

<<qa_role>>

Task under review:
<<task>>

Proposed change (unified diff):

<<diff>>

Review comment so far (empty if none yet):
<<comment>>

Current phase: <<phase>>

If the phase is "comment": write a concise review of the change covering
correctness, fit to the task, and risks. Respond with the review text only.

If the phase is "decision": weigh the review comment above and answer on
the final line with exactly one of:

DECISION: YES
DECISION: NO
""")

_define(MEETING_OPEN, """
You are the engineering manager opening a kick-off meeting.

Issue under discussion:
<<issue>>

Planned tasks (index: file: description):
<<task_list>>

Open the meeting: state the goal and what each developer should confirm or
object to. Respond with your statement only.
""")

_define(MEETING_TURN, """
You are a developer in a kick-off meeting, described by this role card:

<<role>>

Your assigned task:
<<task>>

Meeting so far:
<<transcript>>

Give your statement: confirm the task is reasonable, raise dependencies on
other tasks, or object with reasons. Respond with your statement only.
""")

_define(MEETING_SUMMARY, """
You are the engineering manager closing a kick-off meeting.

Meeting so far:
<<transcript>>

Summarize the results: agreed tasks, dependencies raised, and open
concerns. Respond with the summary only.
""")
