from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import bm25_scores_brute
from conftest import ScriptedBackend, scripted_gateway

from patchcrew.custodian import (MAX_LINEAGE_UPDATES, Custodian,
                                 EvolutionMemory, MemoryEntry, content_hash,
                                 load_memory, rank_files, read_repo_files,
                                 save_memory, tokenize)
from patchcrew.errors import CassetteMissError, TransportError
from patchcrew.llm import Gateway, ReplayBackend


# --- tokenizer ---------------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("getUserName", ["get", "user", "name"]),
    ("snake_case_name", ["snake", "case", "name"]),
    ("HTTP2Server", ["http2", "server"]),
    ("parseHTTPResponse", ["parse", "httpresponse"]),
    ("add add add", ["add", "add", "add"]),
    ("a b c x", []),
    ("src/pkg/mod.py", ["src", "pkg", "mod", "py"]),
    ("", []),
])
def test_tokenize(text, expected):
    assert tokenize(text) == expected


# --- ranking -----------------------------------------------------------------

def test_rank_files_rejects_degenerate_input():
    with pytest.raises(ValueError, match="at least one file"):
        rank_files({}, "issue")
    with pytest.raises(ValueError, match="non-empty issue"):
        rank_files({"a.py": "code"}, "   ")


def test_rank_files_prefers_matching_content():
    files = {
        "auth.py": "def login(user):\n    check_password(user)\n",
        "math_utils.py": "def square(n):\n    return n * n\n",
    }
    ranked = rank_files(files, "login fails when check_password raises")
    assert ranked[0].path == "auth.py"
    assert ranked[0].rank == 1
    assert ranked[1].rank == 2
    assert ranked[0].bm25_score > ranked[1].bm25_score


def test_rank_files_scores_path_tokens():
    files = {
        "billing/invoice.py": "def run():\n    pass\n",
        "core/engine.py": "def run():\n    pass\n",
    }
    ranked = rank_files(files, "invoice totals are wrong")
    assert ranked[0].path == "billing/invoice.py"


def test_rank_files_breaks_ties_by_path():
    files = {"b.py": "same text", "a.py": "same text", "c.py": "same text"}
    ranked = rank_files(files, "same text")
    assert [rf.path for rf in ranked] == ["a.py", "b.py", "c.py"]
    assert len({rf.bm25_score for rf in ranked}) == 1


def _random_corpus(rng: random.Random, n_files: int) -> dict[str, str]:
    vocab = ["alpha", "beta", "gamma", "delta", "parse", "cache", "token",
             "index", "user", "login", "retry", "flush", "queue", "worker"]
    files = {}
    for i in range(n_files):
        words = rng.choices(vocab, k=rng.randint(3, 40))
        files[f"src/mod_{i:02d}.py"] = " ".join(words)
    return files


def test_rank_files_matches_brute_force_oracle():
    rng = random.Random(411)
    for _ in range(25):
        files = _random_corpus(rng, rng.randint(2, 12))
        issue = " ".join(rng.choices(
            ["alpha", "beta", "cache", "login", "missing", "flush"],
            k=rng.randint(2, 8)))
        expected = bm25_scores_brute(files, issue)
        ranked = rank_files(files, issue)
        assert {rf.path for rf in ranked} == set(files)
        for rf in ranked:
            assert rf.bm25_score == pytest.approx(expected[rf.path], abs=1e-9)
        order = [rf.bm25_score for rf in ranked]
        assert order == sorted(order, reverse=True)


_FEW_WORDS = st.sampled_from(["alpha", "beta", "gamma", "parse"])


@settings(max_examples=200, deadline=None)
@given(docs=st.lists(st.lists(_FEW_WORDS, max_size=30), min_size=1,
                     max_size=8),
       copies=st.lists(st.integers(0, 7), max_size=4),
       query=st.lists(_FEW_WORDS, min_size=1, max_size=8))
def test_rank_files_scores_equal_the_oracle_exactly(docs, copies, query):
    # few words, so terms repeat within a document and within the query,
    # plus byte-identical copies of some documents
    files = {f"m{i}.py": " ".join(words) for i, words in enumerate(docs)}
    for n, i in enumerate(copies):
        files[f"copy{n}.py"] = files[f"m{i % len(docs)}.py"]
    expected = bm25_scores_brute(files, " ".join(query))
    ranked = rank_files(files, " ".join(query))
    assert {rf.path: rf.bm25_score for rf in ranked} == expected


# --- memory entries ----------------------------------------------------------

def test_content_hash_is_stable_and_discriminating():
    assert content_hash("abc") == content_hash("abc")
    assert content_hash("abc") != content_hash("abd")
    assert re.fullmatch(r"[0-9a-f]{64}", content_hash(""))


def test_memory_entry_validation():
    h = content_hash("v1")
    MemoryEntry(content_hash=h, summary="s", lineage=((h, ""),), content="v1")
    with pytest.raises(ValueError, match="distinct"):
        MemoryEntry(content_hash=h, summary="s",
                    lineage=((h, ""), (h, "again")), content="v1")
    with pytest.raises(ValueError, match="newest lineage hash"):
        MemoryEntry(content_hash=h, summary="s",
                    lineage=((content_hash("v0"), ""),), content="v1")


# --- summarize_file branches --------------------------------------------------

SMALL_OLD = "\n".join(f"def f{i}():\n    return {i}\n" for i in range(12))
SMALL_NEW = SMALL_OLD.replace("return 3", "return 30")


def test_summarize_fresh_then_cached():
    gw = scripted_gateway({"P2": "module summary"})
    custodian = Custodian(gw)
    assert custodian.summarize_file("m.py", SMALL_OLD) == "module summary"
    assert gw.call_counts == {"P2": 1}
    assert custodian.summarize_file("m.py", SMALL_OLD) == "module summary"
    assert gw.call_counts == {"P2": 1}
    entry = custodian.memory.get("m.py")
    assert entry.lineage == ((content_hash(SMALL_OLD), ""),)
    assert entry.content == SMALL_OLD


def test_summarize_small_edit_extends_summary():
    gw = scripted_gateway({"P2": "base summary", "P1": "bump f3 result"})
    custodian = Custodian(gw)
    custodian.summarize_file("m.py", SMALL_OLD)
    summary = custodian.summarize_file("m.py", SMALL_NEW)
    assert summary == "base summary\nUPDATE: bump f3 result"
    assert gw.call_counts == {"P2": 1, "P1": 1}
    entry = custodian.memory.get("m.py")
    assert entry.content_hash == content_hash(SMALL_NEW)
    assert len(entry.lineage) == 2
    assert entry.lineage[1] == (content_hash(SMALL_NEW), "bump f3 result")
    assert entry.content == SMALL_NEW


def test_summarize_large_edit_starts_fresh():
    gw = scripted_gateway({"P2": ["first", "second"], "P1": "unused"})
    custodian = Custodian(gw)
    custodian.summarize_file("m.py", "a\nb\n")
    summary = custodian.summarize_file("m.py", "x\ny\n")
    assert summary == "second"
    assert gw.call_counts == {"P2": 2}
    assert len(custodian.memory.get("m.py").lineage) == 1


def test_summarize_rebuilds_after_update_cap():
    versions = [f"content version {i}\n" + SMALL_OLD
                for i in range(MAX_LINEAGE_UPDATES + 1)]
    lineage = tuple((content_hash(v), f"msg {i}")
                    for i, v in enumerate(versions))
    entry = MemoryEntry(content_hash=content_hash(versions[-1]),
                        summary="long lived", lineage=lineage,
                        content=versions[-1])
    memory = EvolutionMemory()
    memory.put("m.py", entry)
    gw = scripted_gateway({"P2": "rebuilt", "P1": "unused"})
    custodian = Custodian(gw, memory)
    newest = versions[-1].replace("version", "revision")
    assert custodian.summarize_file("m.py", newest) == "rebuilt"
    assert gw.call_counts == {"P2": 1}
    assert len(memory.get("m.py").lineage) == 1


def test_summarize_leaves_memory_alone_on_llm_failure():
    def boom(_prompt):
        raise TransportError("down", attempts=3)

    custodian = Custodian(scripted_gateway({"P2": boom}))
    with pytest.raises(TransportError):
        custodian.summarize_file("m.py", SMALL_OLD)
    assert custodian.memory.get("m.py") is None

    gw = scripted_gateway({"P2": "base", "P1": boom})
    custodian = Custodian(gw)
    custodian.summarize_file("m.py", SMALL_OLD)
    before = custodian.memory.get("m.py")
    with pytest.raises(TransportError):
        custodian.summarize_file("m.py", SMALL_NEW)
    assert custodian.memory.get("m.py") is before


# --- persistence ---------------------------------------------------------------

def test_memory_round_trip(tmp_path):
    memory = EvolutionMemory()
    h1, h2 = content_hash("one"), content_hash("two")
    memory.put("a.py", MemoryEntry(h1, "summary a", ((h1, ""),), "one"))
    memory.put("b.py", MemoryEntry(
        h2, "summary b\nUPDATE: tweak", ((h1, ""), (h2, "tweak")), "two"))
    path = tmp_path / "memory.jsonl"
    save_memory(memory, path)
    first_line = path.read_text(encoding="utf-8").splitlines()[0]
    assert first_line == "evolution-memory-v1"
    loaded = load_memory(path)
    assert loaded.entries == memory.entries


def test_load_memory_rejects_wrong_version(tmp_path):
    path = tmp_path / "memory.jsonl"
    path.write_text("something-else\n", encoding="utf-8")
    with pytest.raises(ValueError, match="evolution-memory-v1"):
        load_memory(path)


def test_load_memory_reports_bad_record_line(tmp_path):
    path = tmp_path / "memory.jsonl"
    path.write_text("evolution-memory-v1\n{\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":2: bad memory record"):
        load_memory(path)


# --- repository walking ---------------------------------------------------------

def test_read_repo_files_skips_git_binaries_and_symlinks(tmp_path):
    (tmp_path / ".git").mkdir()
    (tmp_path / ".git" / "config").write_text("[core]\n", encoding="utf-8")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("beta\n", encoding="utf-8")
    (tmp_path / "a.py").write_text("alpha\n", encoding="utf-8")
    (tmp_path / "blob.bin").write_bytes(b"\xff\xfe\x00junk")
    (tmp_path / "link.py").symlink_to(tmp_path / "a.py")
    files = read_repo_files(tmp_path)
    assert list(files) == ["a.py", "pkg/b.py"]
    assert files["pkg/b.py"] == "beta\n"


# --- locate --------------------------------------------------------------------

LOCATE_FILES = {
    "auth.py": "def login(user):\n    return user.password\n",
    "billing.py": "def charge(card):\n    return card.total\n",
    "docs.md": "notes about the login flow and billing edge cases\n",
}


def _summary_by_path(prompt: str) -> str:
    for line in prompt.splitlines():
        if line.startswith("File: "):
            return f"summary of {line.removeprefix('File: ')}"
    raise AssertionError("no path line in summary prompt")


def _yes_for_auth(prompt: str) -> str:
    if "summary of auth.py" in prompt:
        return "DECISION: YES"
    return "DECISION: NO"


def test_locate_requires_positive_k():
    custodian = Custodian(scripted_gateway({}))
    with pytest.raises(ValueError, match=">= 1"):
        custodian.locate(LOCATE_FILES, "login broken", 0)


def test_locate_filters_on_relevance():
    gw = scripted_gateway({"P2": _summary_by_path, "P3": _yes_for_auth})
    custodian = Custodian(gw)
    result = custodian.locate(LOCATE_FILES, "login rejects valid passwords", 2)
    assert custodian.bm25_calls == 1
    assert len(result.ranked) == len(LOCATE_FILES)
    assert len(result.examined) == 2
    assert result.candidates == ("auth.py",)
    assert result.undetermined == ()
    assert set(result.examined) <= set(LOCATE_FILES)


def test_locate_keeps_file_when_relevance_call_fails():
    def flaky(prompt: str) -> str:
        if "summary of auth.py" in prompt:
            raise TransportError("offline", attempts=3)
        return "DECISION: NO"

    gw = scripted_gateway({"P2": _summary_by_path, "P3": flaky})
    custodian = Custodian(gw)
    result = custodian.locate(LOCATE_FILES, "login rejects valid passwords", 2)
    assert "auth.py" in result.candidates
    assert result.undetermined == ("auth.py",)
    assert any("undetermined" in note for note in custodian.notes)


def test_locate_keeps_file_when_relevance_is_unparseable():
    gw = scripted_gateway({"P2": _summary_by_path, "P3": "no marker at all"})
    custodian = Custodian(gw)
    result = custodian.locate(LOCATE_FILES, "login rejects valid passwords", 1)
    assert result.candidates == result.examined
    assert result.undetermined == result.examined


def test_locate_propagates_cassette_misses(tmp_path):
    cassette = tmp_path / "empty.jsonl"
    cassette.write_text("", encoding="utf-8")
    custodian = Custodian(Gateway(ReplayBackend(cassette)))
    with pytest.raises(CassetteMissError):
        custodian.locate(LOCATE_FILES, "login rejects valid passwords", 1)
