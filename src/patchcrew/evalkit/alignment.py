"""Rubric-based alignment scoring between a task description and a change."""

from __future__ import annotations

import logging
from collections import Counter

from .. import prompts
from ..errors import LLM_TROUBLE
from ..llm import Gateway

log = logging.getLogger(__name__)


def score_alignment(gateway: Gateway, task_text: str,
                    change_text: str) -> int | None:
    """1..5 rubric score, or None when the response stays unparseable
    after the format-reminder retry (such instances are excluded from the
    distribution rather than guessed)."""
    try:
        return gateway.complete_structured(
            prompts.ALIGNMENT_SCORE,
            {"task": task_text, "diff": change_text},
            "score_1_to_5")
    except LLM_TROUBLE as exc:
        log.warning("alignment score unavailable: %s", exc)
        return None


def score_distribution(scores: list[int | None]) -> dict[int, int]:
    """Histogram over 1..5; None entries are dropped."""
    counts = Counter(s for s in scores if s is not None)
    return {value: counts.get(value, 0) for value in range(1, 6)}


def format_distribution(distribution: dict[int, int]) -> str:
    lines = ["Score  Count"]
    for value in range(1, 6):
        lines.append(f"{value:>5}  {distribution.get(value, 0)}")
    return "\n".join(lines)
