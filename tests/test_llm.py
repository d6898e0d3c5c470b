from __future__ import annotations

import json

import pytest

from conftest import ScriptedBackend, scripted_gateway

from patchcrew.errors import (CassetteMissError, ExtractionError,
                              TransportError)
from patchcrew.intervals import LineIntervalSet
from patchcrew.llm import (Gateway, LiveBackend, RecordBackend, ReplayBackend,
                           canonical_vars, cassette_key, extract_structured,
                           read_cassette)


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
