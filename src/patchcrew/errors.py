"""Exception types shared across the pipeline."""

from __future__ import annotations


class PatchcrewError(Exception):
    """Base class for all errors raised by this package."""


class InstanceError(PatchcrewError):
    """An instance file is missing, malformed, or fails validation.

    ``field`` names the offending field when known.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class TemplateError(PatchcrewError):
    """Unknown template id, missing/extra variable, or bad template body."""


class ExtractionError(PatchcrewError):
    """A model response could not be parsed into the requested structure.

    Carries the raw response text so the caller can retry or report.
    """

    def __init__(self, message: str, raw_text: str):
        super().__init__(message)
        self.raw_text = raw_text


class TransportError(PatchcrewError):
    """Live backend failed after all retry attempts (or cannot start)."""

    def __init__(self, message: str, attempts: int = 0):
        super().__init__(message)
        self.attempts = attempts


class RateLimitError(TransportError):
    """The API refused a call under its rate limit (HTTP 429).
    ``retry_after`` is the wait in seconds the server asked for, or None."""

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class CassetteMissError(PatchcrewError):
    """Replay mode has no record for the requested key. Never falls back to live."""

    def __init__(self, key: str):
        super().__init__(f"replay cassette has no record for key {key}")
        self.key = key


class DiffParseError(PatchcrewError):
    """Unified diff text is malformed. ``line_number`` is 1-based."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class GitError(PatchcrewError):
    """A git invocation failed (unresolvable revision, clone failure, ...)."""


class DegenerateDataError(PatchcrewError):
    """An analysis has nothing to say: single-class labels or no usable rows."""


# What a degrading stage catches from an LLM call. CassetteMissError is left
# out on purpose: a replay miss is a configuration error and must propagate
# rather than be recorded as a degradation.
LLM_TROUBLE = (TransportError, ExtractionError)
