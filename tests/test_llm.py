from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from conftest import ScriptedBackend, scripted_gateway

from patchcrew.errors import (CassetteMissError, ExtractionError,
                              RateLimitError, TransportError)
from patchcrew.intervals import LineIntervalSet
from patchcrew.llm import (MAX_TASKS, RATE_LIMIT_RETRIES, Gateway, LiveBackend,
                           RecordBackend, ReplayBackend, canonical_vars,
                           cassette_key, extract_structured, map_concurrently,
                           read_cassette, retry_after_seconds)


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


def test_replay_backend_serves_and_fails_closed(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_cassette(path, [_record("P1:abc", "answer")])
    backend = ReplayBackend(path)
    assert backend.complete("P1:abc", "P1", "prompt") == "answer"
    with pytest.raises(CassetteMissError) as info:
        backend.complete("P1:missing", "P1", "prompt")
    assert "P1:missing" in str(info.value)
    assert info.value.key == "P1:missing"


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


def test_record_backend_skips_keys_already_on_disk(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_cassette(path, [_record("P1:k1", "old")])
    backend = RecordBackend(ScriptedBackend({"P1": "new"}), path)
    backend.complete("P1:k1", "P1", "p")
    assert read_cassette(path)["P1:k1"]["response_text"] == "old"


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


class FakeResponse:
    def __init__(self, status_code: int, headers=None, body=None):
        self.status_code = status_code
        self.headers = headers or {}
        self._body = body

    def raise_for_status(self):
        if self.status_code >= 400:
            raise ConnectionError(f"HTTP {self.status_code}")

    def json(self):
        return self._body


def test_http_transport_turns_429_into_a_rate_limit(monkeypatch):
    requests = pytest.importorskip("requests")
    replies = iter([
        FakeResponse(429, {"Retry-After": "3"}),
        FakeResponse(200, body={"choices": [{"message": {"content": "hi"}}]}),
    ])
    monkeypatch.setattr(requests, "post", lambda *a, **kw: next(replies))
    clock = FakeClock()
    backend = LiveBackend("key", sleeper=clock.sleep, clock=lambda: clock.now)
    assert backend.complete("k", "P1", "p") == "hi"
    assert clock.sleeps == [3.0]


def test_retry_after_seconds():
    assert retry_after_seconds("120") == 120.0
    assert retry_after_seconds(" 1.5 ") == 1.5
    assert retry_after_seconds(None) is None
    assert retry_after_seconds("soon") is None
    assert retry_after_seconds("Wed, 21 Oct 2015 07:28:00 GMT") == 0.0
    later = time.strftime("%a, %d %b %Y %H:%M:%S GMT",
                          time.gmtime(time.time() + 90))
    assert 80 < retry_after_seconds(later) <= 90


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


def test_extract_score():
    assert extract_structured("blah\nSCORE: 4", "score_1_to_5") == 4
    with pytest.raises(ExtractionError):
        extract_structured("SCORE: 6", "score_1_to_5")
    with pytest.raises(ExtractionError):
        extract_structured("SCORE: 0", "score_1_to_5")


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
    gw = Gateway(ReplayBackend(path))
    value, exchange = gw.complete_structured("P3", variables,
                                             "boolean_decision")
    assert value is False
    assert "Format reminder" in exchange.rendered_prompt
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
    value, _ = gw.complete_structured("P3", {"issue": "i", "summary": "s"},
                                      "boolean_decision")
    assert value is True
    assert gw.call_counts["P3"] == 1
