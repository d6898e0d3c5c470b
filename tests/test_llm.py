from __future__ import annotations

import contextvars
import gc
import hashlib
import json
import socket
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import ScriptedBackend, chat_reply, scripted_gateway

from patchcrew.errors import (CassetteMissError, ExtractionError,
                              RateLimitError, TransportError)
from patchcrew.intervals import LineIntervalSet
from patchcrew.llm import (MAX_TASKS, RATE_LIMIT_RETRIES, Gateway, LiveBackend,
                           RecordBackend, ReplayBackend, canonical_vars,
                           cassette_key, extract_structured,
                           map_concurrently, read_cassette,
                           retry_after_seconds, sha256_hex)


# --- keys ------------------------------------------------------------------

def test_canonical_vars_is_order_insensitive_and_ascii():
    a = canonical_vars({"b": "2", "a": "1"})
    b = canonical_vars({"a": "1", "b": "2"})
    assert a == b == '{"a":"1","b":"2"}'
    assert canonical_vars({"s": "café"}) == '{"s":"caf\\u00e9"}'


def test_cassette_key_shape_and_stability():
    key = cassette_key("P3", {"issue": "x", "summary": "y"})
    tid, _, digest = key.partition(":")
    assert tid == "P3"
    assert len(digest) == 16
    assert key == cassette_key("P3", {"summary": "y", "issue": "x"})
    assert key != cassette_key("P3", {"issue": "x", "summary": "z"})
    assert key != cassette_key("P2", {"issue": "x", "summary": "y"})


# arbitrary bytes, and repeated chunks that reach past 64 KiB
_HASHED = st.binary(max_size=300) | st.builds(
    bytes.__mul__, st.binary(min_size=1, max_size=64),
    st.integers(min_value=1, max_value=3000))


@given(_HASHED)
@example(b"")
@example(bytes(range(256)) * 300)  # 76,800 bytes
def test_sha256_hex_agrees_with_hashlib(data):
    assert sha256_hex(data) == hashlib.sha256(data).hexdigest()


# --- cassette files ---------------------------------------------------------

def _write_cassette(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records),
                    encoding="utf-8")


def _record(key, response="ok", template_id="P1"):
    return {"key": key, "template_id": template_id,
            "rendered_prompt": "p", "response_text": response}


def test_read_cassette_duplicates_later_wins(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_cassette(path, [_record("k1", "first"), _record("k1", "second")])
    records = read_cassette(path)
    assert records["k1"]["response_text"] == "second"


def test_read_cassette_rejects_bad_json_with_line_number(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"key": "k"}\nnot json\n', encoding="utf-8")
    with pytest.raises(ValueError, match=":1: cassette record missing"):
        read_cassette(path)
    path.write_text(json.dumps(_record("k")) + "\nnot json\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=":2: bad cassette record"):
        read_cassette(path)
    path.write_text(json.dumps(_record("k")) + "\n5\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":2: cassette record is not a JSON "
                                         "object"):
        read_cassette(path)


@pytest.mark.parametrize("field", ["key", "template_id", "rendered_prompt",
                                   "response_text"])
def test_read_cassette_rejects_a_field_that_is_not_a_string(tmp_path, field):
    # a chat API replies with null content to a refusal or a tool call
    path = tmp_path / "c.jsonl"
    _write_cassette(path, [_record("k1"), {**_record("k2"), field: None}])
    with pytest.raises(ValueError,
                       match=f"c.jsonl:2: cassette record has a non-string "
                             f"{field}$"):
        read_cassette(path)


def test_replay_backend_serves_and_fails_closed(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_cassette(path, [_record("P1:abc", "answer")])
    before = path.read_bytes()
    backend = ReplayBackend(path)
    assert backend.complete("P1:abc", "P1", "prompt") == "answer"
    with pytest.raises(CassetteMissError) as info:
        backend.complete("P1:missing", "P1", "prompt")
    assert "P1:missing" in str(info.value)
    assert info.value.key == "P1:missing"
    assert path.read_bytes() == before
    with pytest.raises(FileNotFoundError):
        ReplayBackend(tmp_path / "absent.jsonl")
    assert not (tmp_path / "absent.jsonl").exists()


def test_record_backend_appends_each_key_once(tmp_path):
    path = tmp_path / "sub" / "c.jsonl"
    inner = ScriptedBackend({"P1": "resp"})
    backend = RecordBackend(inner, path)
    backend.complete("P1:k1", "P1", "prompt one")
    backend.complete("P1:k1", "P1", "prompt one")
    backend.complete("P1:k2", "P1", "prompt two")
    records = read_cassette(path)
    assert set(records) == {"P1:k1", "P1:k2"}
    assert records["P1:k1"]["rendered_prompt"] == "prompt one"


def test_record_backend_opens_its_cassette_once_and_closes_it(
        tmp_path, monkeypatch):
    path = tmp_path / "sub" / "c.jsonl"
    opened = []
    real_open = Path.open

    def counting_open(self, *args, **kwargs):
        handle = real_open(self, *args, **kwargs)
        if self == path and args[:1] == ("a",):
            opened.append(handle)
        return handle

    monkeypatch.setattr(Path, "open", counting_open)
    backend = RecordBackend(ScriptedBackend({"P1": "resp"}), path)
    for n in range(5):
        backend.complete(f"P1:k{n}", "P1", f"prompt {n}")
        # each record is on disk when its call returns
        assert len(path.read_text("utf-8").splitlines()) == n + 1
    assert len(opened) == 1
    del backend
    gc.collect()
    assert opened[0].closed


def test_record_backend_skips_keys_already_on_disk(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_cassette(path, [_record("P1:k1", "old")])
    backend = RecordBackend(ScriptedBackend({"P1": "new"}), path)
    backend.complete("P1:k1", "P1", "p")
    assert read_cassette(path)["P1:k1"]["response_text"] == "old"


class CountingBackend:
    """Answers ``answer <n>`` on its n-th call (from 0); with ``fail_first``
    the first call raises TransportError instead."""

    mode = "live"

    def __init__(self, delay: float = 0.0, fail_first: bool = False):
        self.delay = delay
        self.fail_first = fail_first
        self.network_calls = 0
        self._lock = threading.Lock()

    def complete(self, key: str, template_id: str, rendered_prompt: str) -> str:
        with self._lock:
            n = self.network_calls
            self.network_calls += 1
        time.sleep(self.delay)
        if self.fail_first and n == 0:
            raise TransportError("first call fails", attempts=1)
        return f"answer {n}"


def test_record_backend_answers_a_repeated_key_from_memory(tmp_path):
    path = tmp_path / "c.jsonl"
    inner = CountingBackend()
    backend = RecordBackend(inner, path)
    answers = [backend.complete("P1:k", "P1", "p") for _ in range(2)]
    assert answers == ["answer 0", "answer 0"]
    assert inner.network_calls == backend.network_calls == 1
    replay = ReplayBackend(path)
    assert [replay.complete("P1:k", "P1", "p") for _ in range(2)] == answers


def test_a_second_record_run_calls_only_for_new_keys(tmp_path):
    path = tmp_path / "c.jsonl"
    RecordBackend(CountingBackend(), path).complete("P1:k", "P1", "p")
    inner = CountingBackend()
    again = RecordBackend(inner, path)
    assert again.complete("P1:k", "P1", "p") == "answer 0"
    assert inner.network_calls == again.network_calls == 0
    assert again.complete("P1:new", "P1", "q") == "answer 0"
    assert inner.network_calls == 1
    assert {key: r["response_text"] for key, r in read_cassette(path).items()
            } == {"P1:k": "answer 0", "P1:new": "answer 0"}


def _torn_cassette(path: Path) -> None:
    """One whole record of 20 kB, P1:whole, then the first half of a
    second, P1:torn, as a recorder stopped while appending leaves them."""
    whole = json.dumps(_record("P1:whole", "x" * 20_000)) + "\n"
    torn = json.dumps(_record("P1:torn", "y" * 20_000)) + "\n"
    path.write_text(whole + torn[:len(torn) // 2], encoding="utf-8")


def test_a_record_run_over_a_torn_cassette_asks_only_the_torn_key(
        tmp_path, caplog):
    path = tmp_path / "c.jsonl"
    _torn_cassette(path)
    inner = CountingBackend()
    backend = RecordBackend(inner, path)
    assert "c.jsonl:2: skipped a torn cassette record" in caplog.text
    assert backend.complete("P1:whole", "P1", "p") == "x" * 20_000
    assert inner.network_calls == 0
    assert backend.complete("P1:torn", "P1", "p") == "answer 0"
    assert inner.network_calls == 1
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert [json.loads(line)["key"] for line in text.splitlines()] \
        == ["P1:whole", "P1:torn"]


def test_replay_over_a_torn_cassette_misses_the_torn_key(tmp_path):
    path = tmp_path / "c.jsonl"
    _torn_cassette(path)
    before = path.read_bytes()
    backend = ReplayBackend(path)
    assert backend.complete("P1:whole", "P1", "p") == "x" * 20_000
    with pytest.raises(CassetteMissError):
        backend.complete("P1:torn", "P1", "p")
    assert path.read_bytes() == before


def test_a_whole_last_record_without_a_newline_loads(tmp_path):
    # as a hand-written cassette often ends; a record run appends after it
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(_record("P1:a", "first")) + "\n"
                    + json.dumps(_record("P1:b", "second")), encoding="utf-8")
    assert {key: r["response_text"] for key, r in read_cassette(path).items()
            } == {"P1:a": "first", "P1:b": "second"}
    backend = RecordBackend(CountingBackend(), path)
    assert backend.complete("P1:b", "P1", "p") == "second"
    assert backend.complete("P1:c", "P1", "p") == "answer 0"
    assert [json.loads(line)["key"] for line in path.read_text(
        encoding="utf-8").splitlines()] == ["P1:a", "P1:b", "P1:c"]


def test_record_backend_asks_again_when_the_first_call_fails(tmp_path):
    inner = CountingBackend(delay=0.05, fail_first=True)
    backend = RecordBackend(inner, tmp_path / "c.jsonl")

    def ask(_):
        try:
            return backend.complete("P1:k", "P1", "p")
        except TransportError:
            return "failed"

    answers = map_concurrently(ask, range(4))
    assert sorted(answers) == ["answer 1"] * 3 + ["failed"]
    assert inner.network_calls == 2


def _run_threads(n_threads: int, work) -> None:
    """work(thread_index) on n_threads threads started together, under a
    short switch interval; every thread must finish within 60 s."""
    start = threading.Barrier(n_threads, timeout=30)
    errors: list[BaseException] = []

    def body(t: int) -> None:
        try:
            start.wait()
            work(t)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=body, args=(t,))
                   for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def test_record_backend_concurrent_appends_stay_whole(tmp_path):
    # records over 16 KB take more than one write each; every thread
    # records every key, in its own order
    path = tmp_path / "c.jsonl"
    backend = RecordBackend(ScriptedBackend({"P1": "r" * 20_000}), path)
    keys = [f"P1:k{i}" for i in range(32)]

    def record(t: int) -> None:
        for key in keys[4 * t:] + keys[:4 * t]:
            backend.complete(key, "P1", f"{key} " + "p" * 20_000)

    _run_threads(8, record)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert sorted(json.loads(line)["key"] for line in lines) == sorted(keys)
    records = read_cassette(path)
    assert all(records[key]["rendered_prompt"].startswith(f"{key} ")
               for key in keys)


def test_record_backend_makes_one_call_per_key_asked_at_once(tmp_path):
    # every thread asks every key, in its own order
    inner = CountingBackend(delay=0.001)
    backend = RecordBackend(inner, tmp_path / "c.jsonl")
    keys = [f"P1:k{i}" for i in range(8)]
    answers: list[dict[str, str]] = [{} for _ in range(8)]

    def ask(t: int) -> None:
        for key in keys[t:] + keys[:t]:
            answers[t][key] = backend.complete(key, "P1", key)

    _run_threads(8, ask)
    assert inner.network_calls == len(keys)
    assert all(seen == answers[0] for seen in answers)
    assert sorted(answers[0].values()) == sorted(
        f"answer {n}" for n in range(len(keys)))
    assert {key: r["response_text"] for key, r in read_cassette(
        tmp_path / "c.jsonl").items()} == answers[0]


def test_call_counters_lose_no_update_across_threads():
    gateway = Gateway(LiveBackend(transport=lambda prompt: "ok",
                                  sleeper=lambda s: None))

    def call(t: int) -> None:
        for n in range(200):
            gateway.complete("P1", {"diff": f"{t}-{n}"})

    _run_threads(8, call)
    assert gateway.call_counts == {"P1": 1600}
    assert gateway.network_calls == 1600


def test_map_concurrently_keeps_input_order():
    # later items finish first
    out = map_concurrently(lambda i: time.sleep(0.01 * (4 - i)) or i * i,
                           range(5))
    assert out == [0, 1, 4, 9, 16]
    assert map_concurrently(lambda i: i, []) == []


def test_map_concurrently_reraises_the_first_failure_after_all_finish():
    finished: list[int] = []

    def work(i: int) -> int:
        time.sleep(0.01 * (4 - i))
        finished.append(i)
        if i in (1, 3):
            raise CassetteMissError(f"P1:{i}")
        return i

    with pytest.raises(CassetteMissError) as info:
        map_concurrently(work, range(5))
    assert info.value.key == "P1:1"
    assert sorted(finished) == [0, 1, 2, 3, 4]


_VAR = contextvars.ContextVar("_VAR", default="unset")


@pytest.mark.parametrize("n_items,workers", [(1, MAX_TASKS), (4, MAX_TASKS),
                                             (3, 1)],
                         ids=["inline", "threads", "one-thread"])
def test_map_concurrently_runs_each_item_in_a_copy_of_the_callers_context(
        n_items, workers):
    def work(i: int) -> tuple[str, str]:
        seen = _VAR.get()
        _VAR.set(f"item {i}")
        time.sleep(0.01)  # the other items set theirs meanwhile
        return seen, _VAR.get()

    token = _VAR.set("caller")
    try:
        out = map_concurrently(work, range(n_items), workers=workers)
        assert _VAR.get() == "caller"
    finally:
        _VAR.reset(token)
    assert out == [("caller", f"item {i}") for i in range(n_items)]


def test_map_concurrently_caps_its_threads():
    lock = threading.Lock()
    running, peak = [0], [0]

    def work(i: int) -> None:
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        time.sleep(0.02)
        with lock:
            running[0] -= 1

    map_concurrently(work, range(2 * MAX_TASKS))
    assert 1 < peak[0] <= MAX_TASKS


def test_map_concurrently_takes_a_worker_limit():
    lock = threading.Lock()
    running, peak = [0], [0]

    def work(i: int) -> int:
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        time.sleep(0.02)
        with lock:
            running[0] -= 1
        return i

    assert map_concurrently(work, range(9), workers=3) == list(range(9))
    assert peak[0] == 3


# --- live backend retries ---------------------------------------------------

class FlakyTransport:
    def __init__(self, failures: int, response: str = "done"):
        self.failures = failures
        self.calls = 0
        self.response = response

    def __call__(self, rendered_prompt: str) -> str:
        self.calls += 1
        if self.calls <= self.failures:
            raise ConnectionError(f"boom {self.calls}")
        return self.response


def test_live_backend_retries_with_backoff():
    sleeps: list[float] = []
    transport = FlakyTransport(failures=2)
    backend = LiveBackend(transport=transport, sleeper=sleeps.append)
    assert backend.complete("k", "P1", "p") == "done"
    assert transport.calls == 3
    assert backend.network_calls == 3
    assert sleeps == [1.0, 2.0]


def test_live_backend_gives_up_after_three_attempts():
    sleeps: list[float] = []
    backend = LiveBackend(transport=FlakyTransport(failures=99),
                          sleeper=sleeps.append)
    with pytest.raises(TransportError) as info:
        backend.complete("k", "P1", "p")
    assert info.value.attempts == 3
    assert sleeps == [1.0, 2.0]
    assert backend.network_calls == 3


class FakeClock:
    """A clock that only moves when the backend sleeps."""

    def __init__(self):
        self.now = 0.0
        self.sleeps: list[float] = []

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


def test_live_backend_waits_as_long_as_a_429_asks():
    answers = iter([RateLimitError("HTTP 429", retry_after=7.0), "done"])

    def transport(prompt):
        answer = next(answers)
        if isinstance(answer, Exception):
            raise answer
        return answer

    clock = FakeClock()
    backend = LiveBackend(transport=transport, sleeper=clock.sleep,
                          clock=lambda: clock.now)
    assert backend.complete("k", "P1", "p") == "done"
    assert clock.sleeps == [7.0]
    assert backend.network_calls == 2


def test_live_backend_gives_up_on_a_lasting_rate_limit():
    def refuse(prompt):
        raise RateLimitError("HTTP 429")

    clock = FakeClock()
    backend = LiveBackend(transport=refuse, sleeper=clock.sleep,
                          clock=lambda: clock.now)
    with pytest.raises(TransportError, match="still rate limited") as info:
        backend.complete("k", "P1", "p")
    # without Retry-After the backoff doubles, capped at 60 s per wait
    assert clock.sleeps == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 60.0, 60.0]
    assert info.value.attempts == RATE_LIMIT_RETRIES + 1


class CappedTransport:
    """Answers at most ``limit`` calls at once, like an API's concurrency
    limit; a call beyond it gets HTTP 429 with a Retry-After of ``wait``."""

    def __init__(self, limit: int = 4, wait: float = 0.1, hold: float = 0.01):
        self.limit, self.wait, self.hold = limit, wait, hold
        self._lock = threading.Lock()
        self.in_flight = 0
        self.refused = 0

    def __call__(self, prompt: str) -> str:
        with self._lock:
            if self.in_flight >= self.limit:
                self.refused += 1
                raise RateLimitError("HTTP 429", retry_after=self.wait)
            self.in_flight += 1
        try:
            time.sleep(self.hold)
            return f"answer to {prompt}"
        finally:
            with self._lock:
                self.in_flight -= 1


def test_live_backend_rides_out_429s_under_a_full_stage():
    transport = CappedTransport()
    sleeps: list[float] = []

    def sleep(seconds):
        sleeps.append(seconds)
        time.sleep(seconds)

    backend = LiveBackend(transport=transport, sleeper=sleep)
    prompts_ = [f"p{i}" for i in range(MAX_TASKS)]
    answers = map_concurrently(
        lambda p: backend.complete(p, "P1", p), prompts_)
    assert answers == [f"answer to {p}" for p in prompts_]
    assert transport.refused > 0
    # each refused call waited out the server's pause, not the backoff
    assert sleeps and all(0 < s <= transport.wait for s in sleeps)
    assert backend.network_calls == MAX_TASKS + transport.refused


def _backend(server, **kwargs) -> LiveBackend:
    return LiveBackend("sk-test", api_url=server.url + "/v1/chat", **kwargs)


def test_http_transport_sends_the_prompt_and_the_key(loopback):
    server = loopback(lambda *seen: chat_reply("hi"))
    backend = _backend(server, model="m")
    assert backend.complete("k", "P1", "fix the naïve add") == "hi"
    [(requestline, headers, body)] = server.seen
    assert requestline == "POST /v1/chat HTTP/1.1"
    assert headers["Authorization"] == "Bearer sk-test"
    assert headers["Content-Type"] == "application/json"
    assert json.loads(body) == {
        "model": "m",
        "messages": [{"role": "user", "content": "fix the naïve add"}]}


def test_http_transport_turns_429_into_a_rate_limit(loopback):
    replies = iter([(429, {"Retry-After": "2"}, b""), chat_reply("hi")])
    server = loopback(lambda *seen: next(replies))
    clock = FakeClock()
    backend = _backend(server, sleeper=clock.sleep, clock=lambda: clock.now)
    assert backend.complete("k", "P1", "p") == "hi"
    assert clock.sleeps == [2.0]
    assert len(server.seen) == backend.network_calls == 2


@pytest.mark.parametrize("reply", [
    (500, {}, b"overloaded"),
    chat_reply(None),  # what the API sends for a refusal or a tool call
    chat_reply(["a", "list"]),
    (200, {}, b"not json"),
    (200, {}, b'{"choices": []}'),
], ids=["server-error", "null-content", "list-content", "not-json",
        "no-choices"])
def test_http_transport_retries_a_failed_reply(loopback, reply):
    server = loopback(lambda *seen: reply)
    sleeps: list[float] = []
    backend = _backend(server, sleeper=sleeps.append)
    with pytest.raises(TransportError) as info:
        backend.complete("k", "P1", "p")
    assert info.value.attempts == 3
    assert sleeps == [1.0, 2.0]
    assert len(server.seen) == 3


def test_http_transport_times_out_on_a_silent_server(no_proxy_env):
    # accepts connections into its backlog and never answers
    with socket.create_server(("127.0.0.1", 0)) as silent:
        sleeps: list[float] = []
        backend = LiveBackend(
            "sk-test", api_url=f"http://127.0.0.1:{silent.getsockname()[1]}/",
            timeout=0.2, sleeper=sleeps.append)
        started = time.monotonic()
        with pytest.raises(TransportError, match="timed out"):
            backend.complete("k", "P1", "p")
    assert sleeps == [1.0, 2.0]
    assert time.monotonic() - started < 10


def test_http_transport_sends_no_key_after_a_redirect(loopback):
    other = loopback(lambda *seen: chat_reply("moved"))
    server = loopback(
        lambda *seen: (302, {"Location": other.url + "/elsewhere"}, b""))
    assert _backend(server).complete("k", "P1", "p") == "moved"
    [(_, first_headers, _)] = server.seen
    [(requestline, headers, _)] = other.seen
    assert first_headers["Authorization"] == "Bearer sk-test"
    assert requestline == "GET /elsewhere HTTP/1.1"
    assert "Authorization" not in headers


def test_http_transport_reads_the_proxy_variables_on_every_call(
        loopback, monkeypatch):
    server = loopback(lambda *seen: chat_reply("direct"))
    proxy = loopback(lambda *seen: chat_reply("proxied"))
    backend = _backend(server)
    monkeypatch.setenv("http_proxy", proxy.url)
    assert backend.complete("k", "P1", "p") == "proxied"
    [(requestline, _, _)] = proxy.seen
    assert requestline == f"POST {server.url}/v1/chat HTTP/1.1"
    assert server.seen == []
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    assert backend.complete("k", "P1", "p") == "direct"
    assert len(server.seen) == len(proxy.seen) == 1


@pytest.mark.parametrize("url", ["file:///etc/hostname", "", "https://",
                                 "http://[bad"])
def test_live_backend_refuses_a_url_that_is_not_http(url):
    with pytest.raises(TransportError, match="MAGIS_API_URL"):
        LiveBackend("sk-test", api_url=url)


def test_retry_after_seconds(monkeypatch):
    assert retry_after_seconds("120") == 120.0
    assert retry_after_seconds(" 1.5 ") == 1.5
    assert retry_after_seconds(None) is None
    assert retry_after_seconds("soon") is None
    assert retry_after_seconds("Wed, 21 Oct 2015 07:28:00 GMT") == 0.0
    later = time.time() + 90
    assert 80 < retry_after_seconds(time.strftime(
        "%a, %d %b %Y %H:%M:%S GMT", time.gmtime(later))) <= 90
    # "-0000" gives a datetime with no time zone: it is UTC, not the
    # local time, which here is five hours behind
    monkeypatch.setenv("TZ", "EST+05")
    time.tzset()
    try:
        assert 80 < retry_after_seconds(time.strftime(
            "%a, %d %b %Y %H:%M:%S -0000", time.gmtime(later))) <= 90
    finally:
        monkeypatch.undo()
        time.tzset()


def test_live_backend_requires_api_key(monkeypatch):
    monkeypatch.delenv("MAGIS_API_KEY", raising=False)
    with pytest.raises(TransportError, match="MAGIS_API_KEY"):
        LiveBackend()


# --- structured extraction ---------------------------------------------------

def test_extract_plain_text():
    assert extract_structured("  hello  ", "plain_text") == "hello"
    with pytest.raises(ExtractionError) as info:
        extract_structured("   \n ", "plain_text")
    assert info.value.raw_text == "   \n "


@pytest.mark.parametrize("text,expected", [
    ("reasoning...\nDECISION: YES", True),
    ("DECISION: no", False),
    ("decision: Yes\n\n", True),
])
def test_extract_decision(text, expected):
    assert extract_structured(text, "boolean_decision") is expected


def test_extract_decision_rejects_noise():
    with pytest.raises(ExtractionError):
        extract_structured("I think DECISION: YES maybe", "boolean_decision")
    with pytest.raises(ExtractionError):
        extract_structured("DECISION: PROBABLY", "boolean_decision")


def test_extract_interval_list():
    got = extract_structured("the fix spans\n[[3,5],[9,9]]", "interval_list")
    assert got == LineIntervalSet.of((3, 5), (9, 9))
    assert extract_structured("[]", "interval_list") == LineIntervalSet(())


@pytest.mark.parametrize("line", [
    "[[1]]", "[[1,2,3]]", "[[true,2]]", "[1,2]", "{}", "[[2,1]]", "[[0,3]]",
])
def test_extract_interval_list_rejects_malformed(line):
    with pytest.raises(ExtractionError):
        extract_structured(line, "interval_list")


def test_extract_unknown_kind():
    with pytest.raises(ValueError, match="unknown schema kind"):
        extract_structured("x", "haiku")


# --- gateway ------------------------------------------------------------------

def test_gateway_counts_calls_per_template():
    gw = scripted_gateway({"P1": "one", "P2": "two"})
    gw.complete("P1", {"diff": "d"})
    gw.complete("P1", {"diff": "e"})
    gw.complete("P2", {"path": "p", "content": "c"})
    assert gw.call_counts == {"P1": 2, "P2": 1}
    assert gw.total_calls() == 3


def test_structured_retry_uses_distinct_key_and_reminder(tmp_path):
    variables = {"issue": "x", "summary": "y"}
    from patchcrew.prompts import render
    rendered = render("P3", variables)
    path = tmp_path / "c.jsonl"
    _write_cassette(path, [
        {"key": cassette_key("P3", variables), "template_id": "P3",
         "rendered_prompt": rendered, "response_text": "no marker here"},
        {"key": cassette_key("P3", {**variables, "format_reminder": "1"}),
         "template_id": "P3", "rendered_prompt": rendered,
         "response_text": "DECISION: NO"},
    ])
    prompts_seen: list[str] = []

    class PromptRecordingReplay(ReplayBackend):
        def complete(self, key, template_id, rendered_prompt):
            prompts_seen.append(rendered_prompt)
            return super().complete(key, template_id, rendered_prompt)

    gw = Gateway(PromptRecordingReplay(path))
    value = gw.complete_structured("P3", variables, "boolean_decision")
    assert value is False
    assert prompts_seen[0] == rendered
    assert prompts_seen[1].startswith(rendered)
    assert "Format reminder" in prompts_seen[1]
    assert gw.call_counts["P3"] == 2


def test_structured_retry_failure_propagates():
    gw = scripted_gateway({"P3": "never a marker"})
    with pytest.raises(ExtractionError):
        gw.complete_structured("P3", {"issue": "x", "summary": "y"},
                               "boolean_decision")
    assert gw.call_counts["P3"] == 2


def test_structured_retry_miss_raises_cassette_miss(tmp_path):
    variables = {"issue": "x", "summary": "y"}
    from patchcrew.prompts import render
    path = tmp_path / "c.jsonl"
    _write_cassette(path, [
        {"key": cassette_key("P3", variables), "template_id": "P3",
         "rendered_prompt": render("P3", variables),
         "response_text": "no marker"},
    ])
    gw = Gateway(ReplayBackend(path))
    with pytest.raises(CassetteMissError):
        gw.complete_structured("P3", variables, "boolean_decision")


def test_no_retry_when_first_response_parses():
    gw = scripted_gateway({"P3": "fine\nDECISION: YES"})
    value = gw.complete_structured("P3", {"issue": "i", "summary": "s"},
                                   "boolean_decision")
    assert value is True
    assert gw.call_counts["P3"] == 1
