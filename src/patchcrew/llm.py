"""Chat-completion access with deterministic record/replay.

A cassette is a JSONL file: one object per exchange with fields ``key``,
``template_id``, ``rendered_prompt``, ``response_text``. The key is

    template_id + ":" + sha256(canonical_json(variables))[:16]

where canonical_json sorts keys, uses compact separators, and escapes
non-ASCII, making keys stable across platforms and dict insertion orders.
Keys hash the variables, not the rendered text, so template wording can evolve
without invalidating recordings; cassettes are small enough to hand-write.

Replay is the record backend with no live backend behind it, so it is
fail-closed: a missing key raises CassetteMissError naming the key, and
nothing is written. It never falls back to the network.

Backends and the gateway are safe to call from several threads at once:
map_concurrently runs a stage's independent calls side by side.
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
import time
import weakref
from collections import Counter
from contextvars import copy_context
from pathlib import Path
from typing import Any, Callable, Iterable, TypeVar
from urllib.parse import urlsplit

from . import prompts
from .errors import (CassetteMissError, ExtractionError, RateLimitError,
                     TransportError)
from .intervals import LineIntervalSet

# SHA-256 from CPython's builtin module, imported the way random.py imports
# its seed hash: hashlib would map OpenSSL's libcrypto, about 3.5 MB of
# resident memory, where the builtin module costs about 0.03 MB. The digests
# are the same; hashlib serves only a build with neither builtin.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

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
# The most tasks a plan holds (one per file; the team build drops the
# lowest-ranked files beyond it), and so the most calls map_concurrently
# makes at once unless told otherwise.
MAX_TASKS = 16

# The schema kinds extract_structured parses, each with the reminder a
# format retry appends to its prompt.
_FORMAT_REMINDERS = {
    "boolean_decision": 'Format reminder: end your answer with a final line '
                        'reading exactly "DECISION: YES" or "DECISION: NO".',
    "interval_list": "Format reminder: end your answer with a final line "
                     "holding only a JSON list of [start, end] pairs, for "
                     "example [[12,20]], or [] to append at end of file.",
    "plain_text": "Format reminder: respond with non-empty text.",
}


def canonical_vars(variables: dict[str, str]) -> str:
    return json.dumps(variables, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def sha256_hex(data: bytes) -> str:
    """The SHA-256 digest of data, in hex."""
    return _sha256(data).hexdigest()


def cassette_key(template_id: str, variables: dict[str, str]) -> str:
    digest = sha256_hex(canonical_vars(variables).encode("ascii"))
    return f"{template_id}:{digest[:16]}"


def map_concurrently(fn: Callable[[T], R], items: Iterable[T],
                     workers: int = MAX_TASKS) -> list[R]:
    """fn over items on up to ``workers`` threads, results in input order.
    Each item runs in a copy of the caller's contextvars context, made when
    the call starts, so it sees the caller's context variables and its own
    sets reach neither the caller nor the other items. Every call runs to
    its end; then the first exception, in input order, is re-raised, so a
    CassetteMissError still stops the run."""
    # imported here, not at module level: the import costs about 0.06 MB
    # of resident memory, which runs that never call this need not pay
    from concurrent.futures import ThreadPoolExecutor

    items = list(items)
    if len(items) < 2:
        return [copy_context().run(fn, item) for item in items]
    with ThreadPoolExecutor(max_workers=min(len(items), workers)) as pool:
        futures = [pool.submit(copy_context().run, fn, item) for item in items]
    return [future.result() for future in futures]


_RECORD_FIELDS = ("key", "template_id", "rendered_prompt", "response_text")


def read_cassette(path: str | Path) -> dict[str, dict[str, str]]:
    """Load a cassette file into key -> record. Later duplicates win.
    Reads one line at a time, so the whole file text is never held. A
    last line that no newline ends and that is not JSON is a record torn
    by a recorder stopped while it appended; it is skipped with a warning,
    so its key misses. Any other bad line is an error naming it."""
    records: dict[str, dict[str, str]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                if not line.endswith("\n"):
                    log.warning("%s:%d: skipped a torn cassette record: %s",
                                path, lineno, exc)
                    break
                raise ValueError(f"{path}:{lineno}: bad cassette record: "
                                 f"{exc}") from exc
            if not isinstance(obj, dict):
                raise ValueError(f"{path}:{lineno}: cassette record is not "
                                 f"a JSON object")
            missing = set(_RECORD_FIELDS) - set(obj)
            if missing:
                raise ValueError(f"{path}:{lineno}: cassette record missing "
                                 f"{', '.join(sorted(missing))}")
            not_text = sorted(field for field in _RECORD_FIELDS
                              if not isinstance(obj[field], str))
            if not_text:
                raise ValueError(f"{path}:{lineno}: cassette record has a "
                                 f"non-string {', '.join(not_text)}")
            records[obj["key"]] = obj
    return records


def _end_with_a_whole_record(path: Path) -> None:
    """Cut a torn last record (see read_cassette) off a cassette, or end a
    whole last record that no newline ends with one, so that what is
    appended next starts a line of its own."""
    with path.open("rb+") as fh:
        start = 0  # where the last line starts
        for line in fh:
            if not line.endswith(b"\n"):
                break
            start += len(line)
        else:
            return
        try:
            json.loads(line)
        except ValueError:
            fh.truncate(start)
        else:
            fh.seek(0, os.SEEK_END)
            fh.write(b"\n")


class RecordBackend:
    """Reads through its cassette: a key the cassette already holds, or
    one this backend has already answered, is answered from memory, and
    only a miss calls the inner backend and appends the exchange to the
    cassette. So a recorded run gets the answers its replay will. Keeps
    only key -> response text; the recorded prompts are not needed to
    answer. Each key has a lock, held while the key is asked of the inner
    backend, so calls with one key made at once make one inner call, and
    if it fails, the next caller asks again. The cassette is opened for
    appending once, on the first miss, and closed when the backend is
    dropped; a lock keeps concurrent appends whole (a long record takes
    several writes), and each is flushed before its call returns. Before
    the first append, a torn last record is cut off the cassette."""

    mode = "record"

    def __init__(self, inner, cassette_path: str | Path):
        self.inner = inner
        self.cassette_path = Path(cassette_path)
        self._lock = threading.Lock()
        self._key_locks: dict[str, threading.Lock] = {}
        self._answers: dict[str, str] = {}
        self._out = None  # the cassette's append handle, from the first miss
        if inner is None or self.cassette_path.exists():
            self._answers = {key: record["response_text"] for key, record
                             in read_cassette(self.cassette_path).items()}

    @property
    def network_calls(self) -> int:
        return getattr(self.inner, "network_calls", 0)

    def complete(self, key: str, template_id: str, rendered_prompt: str) -> str:
        if key in self._answers:  # answers are only ever added
            return self._answers[key]
        if self.inner is None:
            raise CassetteMissError(key)
        with self._lock:
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        with key_lock:
            if key not in self._answers:
                response = self.inner.complete(key, template_id,
                                               rendered_prompt)
                record = {"key": key, "template_id": template_id,
                          "rendered_prompt": rendered_prompt,
                          "response_text": response}
                with self._lock:
                    if self._out is None:
                        self.cassette_path.parent.mkdir(parents=True,
                                                        exist_ok=True)
                        if self.cassette_path.exists():
                            _end_with_a_whole_record(self.cassette_path)
                        self._out = self.cassette_path.open(
                            "a", encoding="utf-8")
                        weakref.finalize(self, self._out.close)
                    self._out.write(json.dumps(record, ensure_ascii=True)
                                    + "\n")
                    self._out.flush()
                    self._answers[key] = response
        return self._answers[key]


class ReplayBackend(RecordBackend):
    """A record backend with no inner backend: serves recorded responses
    only, pure and offline. The cassette must exist; a miss raises
    CassetteMissError and writes nothing."""

    mode = "replay"

    def __init__(self, cassette_path: str | Path):
        super().__init__(None, cassette_path)


def retry_after_seconds(value: str | None) -> float | None:
    """The wait a Retry-After header asks for, in seconds: delta-seconds
    or an HTTP date. None when the header is absent or unreadable."""
    if value is None:
        return None
    value = value.strip()
    if re.fullmatch(r"\d+(\.\d+)?", value):
        return float(value)
    # imported here: they load the socket and datetime modules, about 0.9 MB
    # of resident memory that runs which never see a 429 need not pay
    import email.utils
    from datetime import datetime, timezone

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
        self.api_url = (api_url if api_url is not None
                        else os.environ.get(API_URL_ENV, DEFAULT_API_URL))
        self.model = model
        self.timeout = timeout
        self._transport = transport or self._http_transport
        self._sleeper = sleeper
        self._clock = clock
        self._lock = threading.Lock()
        self._resume_at = 0.0  # no call is sent before this clock reading
        self.network_calls = 0
        if transport is None:
            if not self.api_key:
                raise TransportError(f"{API_KEY_ENV} is not set")
            # urllib would also open file: and ftp: URLs
            try:
                url = urlsplit(self.api_url)
                usable = url.scheme in ("http", "https") and url.hostname
            except ValueError:  # a malformed netloc, such as "[bad"
                usable = False
            if not usable:
                raise TransportError(f"{API_URL_ENV} must be an http or "
                                     f"https URL with a host, not "
                                     f"{self.api_url!r}")

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
        # imported here: urllib.request loads http.client and ssl, about
        # 6.7 MB of resident memory that a replayed run need not pay
        import urllib.error
        import urllib.request

        body = {"model": self.model,
                "messages": [{"role": "user", "content": rendered_prompt}]}
        request = urllib.request.Request(
            self.api_url, data=json.dumps(body).encode("ascii"),
            headers={"Content-Type": "application/json"})
        # not forwarded when the server redirects, to its host or another
        request.add_unredirected_header("Authorization",
                                        f"Bearer {self.api_key}")
        # a new opener reads http_proxy, https_proxy and no_proxy on every
        # call; urlopen's process-wide one reads them once
        try:
            with urllib.request.build_opener().open(
                    request, timeout=self.timeout) as resp:
                reply = json.load(resp)
        except urllib.error.HTTPError as exc:
            exc.close()  # it holds the socket
            if exc.code == 429:
                raise RateLimitError(
                    f"HTTP 429 from {self.api_url}",
                    retry_after_seconds(exc.headers.get("Retry-After"))) from None
            raise
        content = reply["choices"][0]["message"]["content"]
        if not isinstance(content, str):
            # the API sends null for a refusal or a tool call
            raise ValueError(f"reply content is {type(content).__name__}, "
                             f"not text")
        return content


def last_nonempty_line(text: str) -> str:
    """The last line holding non-whitespace, stripped; "" when there is none."""
    for line in reversed(text.split("\n")):
        if line.strip():
            return line.strip()
    return ""


def extract_structured(response_text: str, schema_kind: str) -> Any:
    """Parse a response into a typed value. Raises ExtractionError with the
    raw text attached when the response does not carry the expected marker."""
    if schema_kind not in _FORMAT_REMINDERS:
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

    def complete(self, template_id: str, variables: dict[str, str]) -> str:
        """The response text to the rendered template."""
        rendered = prompts.render(template_id, variables)
        key = cassette_key(template_id, variables)
        return self._invoke(key, template_id, rendered)

    def complete_structured(self, template_id: str, variables: dict[str, str],
                            schema_kind: str) -> Any:
        """Complete and parse; on a parse failure, retry once with a format
        reminder appended (the retry has its own cassette key), then raise."""
        response = self.complete(template_id, variables)
        try:
            return extract_structured(response, schema_kind)
        except ExtractionError:
            log.info("extraction failed for %s, retrying with format reminder",
                     template_id)
        retry_key = cassette_key(template_id,
                                 {**variables, "format_reminder": "1"})
        retry_prompt = (prompts.render(template_id, variables) + "\n"
                        + _FORMAT_REMINDERS[schema_kind] + "\n")
        return extract_structured(
            self._invoke(retry_key, template_id, retry_prompt), schema_kind)

    def _invoke(self, key: str, template_id: str, rendered: str) -> str:
        with self._lock:
            self.call_counts[template_id] += 1
        return self.backend.complete(key, template_id, rendered)
