"""Chat-completion access with deterministic record/replay.

A cassette is a JSONL file: one object per exchange with fields ``key``,
``template_id``, ``rendered_prompt``, ``response_text``. The key is

    template_id + ":" + sha256(canonical_json(variables))[:16]

where canonical_json sorts keys, uses compact separators, and escapes
non-ASCII, making keys stable across platforms and dict insertion orders.
Keys hash the variables, not the rendered text, so template wording can evolve
without invalidating recordings; cassettes are small enough to hand-write.

Replay is fail-closed: a missing key raises CassetteMissError naming the
key. It never falls back to the network.

Backends and the gateway are safe to call from several threads at once:
map_concurrently runs a stage's independent calls side by side.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import threading
import time
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterable, TypeVar

from . import prompts
from .errors import (CassetteMissError, ExtractionError, RateLimitError,
                     TransportError)
from .intervals import LineIntervalSet

log = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")

API_KEY_ENV = "MAGIS_API_KEY"
API_URL_ENV = "MAGIS_API_URL"
DEFAULT_API_URL = "https://api.openai.com/v1/chat/completions"
DEFAULT_MODEL = "gpt-4"
RETRY_ATTEMPTS = 3
BACKOFF_START_SECONDS = 1.0
# A rate-limited call (HTTP 429) does not use up one of RETRY_ATTEMPTS: it
# is retried up to this many times, each after the wait the server asks
# for (at most MAX_RETRY_AFTER_SECONDS), or after the backoff without one.
RATE_LIMIT_RETRIES = 8
MAX_RETRY_AFTER_SECONDS = 60.0
# The most tasks a plan holds, and so the most calls map_concurrently
# makes at once.
MAX_TASKS = 16

SCHEMA_KINDS = ("boolean_decision", "interval_list", "plain_text", "score_1_to_5")

_FORMAT_REMINDERS = {
    "boolean_decision": 'Format reminder: end your answer with a final line '
                        'reading exactly "DECISION: YES" or "DECISION: NO".',
    "interval_list": "Format reminder: end your answer with a final line "
                     "holding only a JSON list of [start, end] pairs, for "
                     "example [[12,20]], or [] to append at end of file.",
    "score_1_to_5": 'Format reminder: end your answer with a final line '
                    'reading exactly "SCORE: N" for an integer N from 1 to 5.',
    "plain_text": "Format reminder: respond with non-empty text.",
}


def canonical_vars(variables: dict[str, str]) -> str:
    return json.dumps(variables, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def cassette_key(template_id: str, variables: dict[str, str]) -> str:
    digest = hashlib.sha256(canonical_vars(variables).encode("ascii")).hexdigest()
    return f"{template_id}:{digest[:16]}"


def map_concurrently(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """fn over items on up to MAX_TASKS threads, results in input order.
    Every call runs to its end; then the first exception, in input order,
    is re-raised, so a CassetteMissError still stops the run."""
    # imported here, not at module level: the import costs about 0.25 MB
    # of resident memory, which runs that make no LLM calls need not pay
    from concurrent.futures import ThreadPoolExecutor

    items = list(items)
    if len(items) < 2:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(len(items), MAX_TASKS)) as pool:
        futures = [pool.submit(fn, item) for item in items]
    return [future.result() for future in futures]


@dataclass(frozen=True)
class ChatExchange:
    template_id: str
    rendered_prompt: str
    response_text: str


def read_cassette(path: str | Path) -> dict[str, dict[str, str]]:
    """Load a cassette file into key -> record. Later duplicates win.
    Reads one line at a time, so the whole file text is never held."""
    records: dict[str, dict[str, str]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: bad cassette record: "
                                 f"{exc}") from exc
            missing = ({"key", "template_id", "rendered_prompt", "response_text"}
                       - set(obj))
            if missing:
                raise ValueError(f"{path}:{lineno}: cassette record missing "
                                 f"{', '.join(sorted(missing))}")
            records[obj["key"]] = obj
    return records


class ReplayBackend:
    """Serves recorded responses only. Pure and offline. Keeps only
    key -> response text; the recorded prompts are not needed to replay."""

    mode = "replay"
    network_calls = 0

    def __init__(self, cassette_path: str | Path):
        self.cassette_path = Path(cassette_path)
        self._responses = {key: record["response_text"] for key, record
                           in read_cassette(cassette_path).items()}

    def complete(self, key: str, template_id: str, rendered_prompt: str) -> str:
        try:
            return self._responses[key]
        except KeyError:
            raise CassetteMissError(key) from None


class RecordBackend:
    """Delegates to an inner backend and appends each exchange to the
    cassette. Already-recorded keys are not re-appended. A lock keeps
    concurrent appends whole: a long record takes several writes."""

    mode = "record"

    def __init__(self, inner, cassette_path: str | Path):
        self.inner = inner
        self.cassette_path = Path(cassette_path)
        self._lock = threading.Lock()
        self._seen: set[str] = set()
        if self.cassette_path.exists():
            self._seen = set(read_cassette(self.cassette_path))

    @property
    def network_calls(self) -> int:
        return getattr(self.inner, "network_calls", 0)

    def complete(self, key: str, template_id: str, rendered_prompt: str) -> str:
        response = self.inner.complete(key, template_id, rendered_prompt)
        record = {"key": key, "template_id": template_id,
                  "rendered_prompt": rendered_prompt, "response_text": response}
        with self._lock:
            if key not in self._seen:
                self.cassette_path.parent.mkdir(parents=True, exist_ok=True)
                with self.cassette_path.open("a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record, ensure_ascii=True) + "\n")
                self._seen.add(key)
        return response


def retry_after_seconds(value: str | None) -> float | None:
    """The wait a Retry-After header asks for, in seconds: delta-seconds
    or an HTTP date. None when the header is absent or unreadable."""
    if value is None:
        return None
    value = value.strip()
    if re.fullmatch(r"\d+(\.\d+)?", value):
        return float(value)
    # imported here: it loads the socket module, about 1 MB of resident
    # memory that runs which never see a 429 need not pay
    import email.utils

    try:
        when = email.utils.parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    if when.tzinfo is None:
        when = when.replace(tzinfo=timezone.utc)
    return max(0.0, (when - datetime.now(timezone.utc)).total_seconds())


class LiveBackend:
    """Talks to a chat-completion HTTP API. Retries transport failures
    with exponential backoff (3 attempts: 0s, 1s, 2s waits). A rate-limited
    call (RateLimitError) pauses every call of this backend until the wait
    the server asked for is over, so threads do not keep sending into the
    limit, and is retried up to RATE_LIMIT_RETRIES times."""

    mode = "live"

    def __init__(self, api_key: str | None = None, *,
                 api_url: str | None = None,
                 model: str = DEFAULT_MODEL,
                 transport: Callable[[str], str] | None = None,
                 sleeper: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic,
                 timeout: float = 120.0):
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self.api_url = api_url or os.environ.get(API_URL_ENV, DEFAULT_API_URL)
        self.model = model
        self.timeout = timeout
        self._transport = transport or self._http_transport
        self._sleeper = sleeper
        self._clock = clock
        self._lock = threading.Lock()
        self._resume_at = 0.0  # no call is sent before this clock reading
        self.network_calls = 0
        if transport is None and not self.api_key:
            raise TransportError(f"{API_KEY_ENV} is not set")

    def complete(self, key: str, template_id: str, rendered_prompt: str) -> str:
        delay = BACKOFF_START_SECONDS
        failures = rate_limited = 0
        while True:
            with self._lock:
                pause = self._resume_at - self._clock()
            if pause > 0:
                self._sleeper(pause)
            with self._lock:
                self.network_calls += 1
            try:
                return self._transport(rendered_prompt)
            except RateLimitError as exc:
                rate_limited += 1
                log.warning("llm call rate limited (%d/%d): %s", rate_limited,
                            RATE_LIMIT_RETRIES, exc)
                if rate_limited > RATE_LIMIT_RETRIES:
                    raise TransportError(
                        f"llm call still rate limited after {rate_limited} "
                        f"attempts: {exc}",
                        attempts=failures + rate_limited) from exc
                wait = delay if exc.retry_after is None else exc.retry_after
                with self._lock:
                    self._resume_at = max(
                        self._resume_at,
                        self._clock() + min(wait, MAX_RETRY_AFTER_SECONDS))
            except Exception as exc:  # noqa: BLE001 - transport errors vary by stack
                failures += 1
                log.warning("llm attempt %d/%d failed: %s", failures,
                            RETRY_ATTEMPTS, exc)
                if failures == RETRY_ATTEMPTS:
                    raise TransportError(
                        f"llm call failed after {RETRY_ATTEMPTS} attempts: "
                        f"{exc}", attempts=failures + rate_limited) from exc
                self._sleeper(delay)
            delay *= 2

    def _http_transport(self, rendered_prompt: str) -> str:
        import requests

        resp = requests.post(
            self.api_url,
            headers={"Authorization": f"Bearer {self.api_key}"},
            json={"model": self.model,
                  "messages": [{"role": "user", "content": rendered_prompt}]},
            timeout=self.timeout,
        )
        if resp.status_code == 429:
            raise RateLimitError(
                f"HTTP 429 from {self.api_url}",
                retry_after_seconds(resp.headers.get("Retry-After")))
        resp.raise_for_status()
        return resp.json()["choices"][0]["message"]["content"]


def last_nonempty_line(text: str) -> str:
    """The last line holding non-whitespace, stripped; "" when there is none."""
    for line in reversed(text.split("\n")):
        if line.strip():
            return line.strip()
    return ""


def extract_structured(response_text: str, schema_kind: str) -> Any:
    """Parse a response into a typed value. Raises ExtractionError with the
    raw text attached when the response does not carry the expected marker."""
    if schema_kind not in SCHEMA_KINDS:
        raise ValueError(f"unknown schema kind: {schema_kind}")

    if schema_kind == "plain_text":
        text = response_text.strip()
        if not text:
            raise ExtractionError("empty response", response_text)
        return text

    line = last_nonempty_line(response_text)
    if schema_kind == "boolean_decision":
        m = re.fullmatch(r"DECISION:\s*(YES|NO)", line, re.IGNORECASE)
        if not m:
            raise ExtractionError("final line is not a DECISION marker",
                                  response_text)
        return m.group(1).upper() == "YES"

    if schema_kind == "score_1_to_5":
        m = re.fullmatch(r"SCORE:\s*([1-5])", line)
        if not m:
            raise ExtractionError("final line is not a SCORE marker",
                                  response_text)
        return int(m.group(1))

    # interval_list
    try:
        data = json.loads(line)
    except json.JSONDecodeError:
        raise ExtractionError("final line is not a JSON interval list",
                              response_text) from None
    if not isinstance(data, list):
        raise ExtractionError("interval list must be a JSON list", response_text)
    pairs: list[tuple[int, int]] = []
    for item in data:
        if (not isinstance(item, list) or len(item) != 2
                or any(isinstance(v, bool) or not isinstance(v, int) for v in item)):
            raise ExtractionError(f"bad interval entry: {item!r}", response_text)
        pairs.append((item[0], item[1]))
    try:
        return LineIntervalSet(tuple(pairs))
    except ValueError as exc:
        raise ExtractionError(f"invalid interval: {exc}", response_text) from exc


class Gateway:
    """One backend, call accounting, and structured completion with a
    single format-reminder retry."""

    def __init__(self, backend):
        self.backend = backend
        self._lock = threading.Lock()
        self.call_counts: Counter[str] = Counter()

    @property
    def mode(self) -> str:
        return self.backend.mode

    @property
    def network_calls(self) -> int:
        return getattr(self.backend, "network_calls", 0)

    def total_calls(self) -> int:
        return sum(self.call_counts.values())

    def complete(self, template_id: str, variables: dict[str, str]) -> ChatExchange:
        rendered = prompts.render(template_id, variables)
        key = cassette_key(template_id, variables)
        return self._invoke(key, template_id, rendered)

    def complete_structured(self, template_id: str, variables: dict[str, str],
                            schema_kind: str) -> tuple[Any, ChatExchange]:
        """Complete and parse; on a parse failure, retry once with a format
        reminder appended (the retry has its own cassette key), then raise."""
        exchange = self.complete(template_id, variables)
        try:
            return extract_structured(exchange.response_text, schema_kind), exchange
        except ExtractionError:
            log.info("extraction failed for %s, retrying with format reminder",
                     template_id)
        retry_key = cassette_key(template_id,
                                 {**variables, "format_reminder": "1"})
        retry_prompt = (exchange.rendered_prompt + "\n"
                        + _FORMAT_REMINDERS[schema_kind] + "\n")
        retry = self._invoke(retry_key, template_id, retry_prompt)
        return extract_structured(retry.response_text, schema_kind), retry

    def _invoke(self, key: str, template_id: str, rendered: str) -> ChatExchange:
        with self._lock:
            self.call_counts[template_id] += 1
        response = self.backend.complete(key, template_id, rendered)
        return ChatExchange(template_id, rendered, response)
