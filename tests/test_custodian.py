from __future__ import annotations

import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _e2e_data as e2e
from _oracles import bm25_scores_brute, tokenize_two_pass
from conftest import blob_id, documents, reader, scripted_gateway

from patchcrew.custodian import (MAX_LINEAGE_UPDATES, Custodian,
                                 EvolutionMemory, MemoryEntry, TermIndex,
                                 content_hash, load_memory, load_term_index,
                                 rank_files, save_memory, save_term_index,
                                 tokenize)
from patchcrew.errors import CassetteMissError, TransportError
from patchcrew.gitops import list_repo_files, read_repo_files
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


_TOKEN_TEXT = st.text(
    alphabet=st.sampled_from(list("aZ09_-./ \n\tHTTPServer1Bxyz")
                             + ["\u00e9", "\u00c9", "\u00df", "\u0130",
                                "\u212a", "\u4e2d", "\U0001f600"])
    | st.characters(),
    max_size=60)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_TOKEN_TEXT, st.sampled_from(
    ["HTTPServer", "a1B", "camelCaseName", "x2Y3z", "ÉcoleNormale",
     "naïveBayes", "ABc", "1A", "snake_case2Name"])))
def test_tokenize_matches_two_pass_split(text):
    assert tokenize(text) == tokenize_two_pass(text)


# --- ranking -----------------------------------------------------------------

def test_rank_files_rejects_degenerate_input():
    with pytest.raises(ValueError, match="at least one file"):
        rank_files(documents({}), "issue")
    with pytest.raises(ValueError, match="non-empty issue"):
        rank_files(documents({"a.py": "code"}), "   ")


def test_rank_files_prefers_matching_content():
    files = {
        "auth.py": "def login(user):\n    check_password(user)\n",
        "math_utils.py": "def square(n):\n    return n * n\n",
    }
    ranked = rank_files(documents(files),
                        "login fails when check_password raises")
    assert ranked[0].path == "auth.py"
    assert ranked[0].rank == 1
    assert ranked[1].rank == 2
    assert ranked[0].bm25_score > ranked[1].bm25_score


def test_rank_files_scores_path_tokens():
    files = {
        "billing/invoice.py": "def run():\n    pass\n",
        "core/engine.py": "def run():\n    pass\n",
    }
    ranked = rank_files(documents(files), "invoice totals are wrong")
    assert ranked[0].path == "billing/invoice.py"


def test_rank_files_breaks_ties_by_path():
    files = {"b.py": "same text", "a.py": "same text", "c.py": "same text"}
    ranked = rank_files(documents(files), "same text")
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
        ranked = rank_files(documents(files), issue)
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
    ranked = rank_files(documents(files), " ".join(query))
    assert {rf.path: rf.bm25_score for rf in ranked} == expected


# --- term index ----------------------------------------------------------------

_STEP = st.lists(st.tuples(
    st.sampled_from(["a.py", "b.py", "pkg/c.py", "pkg/d.py", "e.bin"]),
    st.one_of(st.none(),  # delete the file
              st.lists(_FEW_WORDS, max_size=12).map(" ".join),
              st.sampled_from(["a.py", "b.py", "pkg/c.py"]))),  # copy it
    min_size=1, max_size=4)


BINARY = "\ufffd"


def _ranking(documents, query: str) -> list[tuple[str, float]]:
    return [(rf.path, rf.bm25_score) for rf in rank_files(documents, query)]


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(_STEP, min_size=1, max_size=8),
       query=st.lists(_FEW_WORDS, min_size=1, max_size=6))
def test_term_index_across_revisions_ranks_like_the_oracle(steps, query):
    # each step is one revision: files added, edited, deleted, or copied
    # from another path (one blob under two paths); e.bin holds content
    # that stands for bytes that are not UTF-8, which the reader leaves out
    files: dict[str, str] = {}
    index = TermIndex()
    query = " ".join(query)
    with tempfile.TemporaryDirectory() as tmp:
        index_path = Path(tmp) / "memory.jsonl.bm25"
        for step in steps:
            for path, change in step:
                if change is None:
                    files.pop(path, None)
                elif change in files:
                    files[path] = files[change]
                elif change not in ("a.py", "b.py", "pkg/c.py"):
                    files[path] = BINARY + change if path == "e.bin" else change
            listing = {path: blob_id(files[path]) for path in sorted(files)}
            known = set(index.docs)
            asked: list[str] = []

            def read(paths):
                asked.extend(paths)
                return {p: files[p] for p in paths
                        if not files[p].startswith(BINARY)}

            index.update(listing, read)
            assert sorted(listing[p] for p in asked) \
                == sorted(set(listing.values()) - known)
            assert set(index.docs) == set(listing.values())

            text = {p: c for p, c in files.items()
                    if not c.startswith(BINARY)}
            expected = sorted(bm25_scores_brute(text, query).items(),
                              key=lambda kv: (-kv[1], kv[0]))
            if text:  # ranked as counted, then as saved and loaded
                assert _ranking(index.documents(listing), query) == expected
            save_term_index(index, index_path)
            index = load_term_index(index_path)
            assert set(index.docs) == set(listing.values())
            if text:
                assert _ranking(index.documents(listing), query) == expected


def _saved(path: Path) -> tuple[list[str], dict[str, list[tuple[int, int]]]]:
    """A saved index's blob lines, and each term's postings."""
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "bm25-term-index-v2"
    blank = lines.index("")
    postings = {}
    for line in lines[blank + 1:]:
        term, *pairs = line.split(" ")
        postings[term] = [tuple(map(int, pair.split(":"))) for pair in pairs]
    return lines[1:blank], postings


def test_term_index_file_holds_at_most_twice_the_live_blobs(tmp_path):
    # every revision rewrites two of four files, so gone blobs pile up
    # until a purge drops them
    path = tmp_path / "memory.jsonl.bm25"
    index = TermIndex()
    purged = 0
    for revision in range(12):
        files = {f"m{i}.py": f"alpha beta r{revision // 2 * 2 + i % 2} "
                             f"m{i} " + "gamma " * (revision % 3)
                 for i in range(4)}
        files["m0.py"] = "alpha fixed"
        index.update({p: blob_id(c) for p, c in files.items()},
                     reader(files))
        save_term_index(index, path)
        blobs, postings = _saved(path)
        live = [line for line in blobs if line != "-"]
        assert len(live) == len(set(files.values()))
        assert len(blobs) <= 2 * len(live)
        if len(blobs) == len(live):  # no gone blob held: a purge ran
            purged += revision > 0
            numbers = {doc for pairs in postings.values() for doc, _ in pairs}
            assert numbers == set(range(len(blobs)))
        for pairs in postings.values():
            docs = [doc for doc, _ in pairs]
            assert docs == sorted(set(docs)) and docs[-1] < len(blobs)
        expected = bm25_scores_brute(files, "alpha gamma r4")
        assert dict(_ranking(load_term_index(path).documents(
            {p: blob_id(c) for p, c in files.items()}), "alpha gamma r4")) \
            == expected
    assert purged >= 2


def test_term_index_round_trips_and_records_skipped_blobs(tmp_path):
    index = TermIndex()
    index.update({"a.py": "1" * 40, "b.bin": "2" * 40},
                 lambda paths: {"a.py": "alpha beta alpha"})
    assert index.docs == {"1" * 40: 0, "2" * 40: 1}
    assert index.lengths == [3, None]
    path = tmp_path / "memory.jsonl.bm25"
    save_term_index(index, path)
    assert path.read_text(encoding="utf-8") == (
        "bm25-term-index-v2\n"
        f"{'1' * 40} 3\n{'2' * 40} -\n\n"
        "alpha 0:2\nbeta 0:1\n")
    loaded = load_term_index(path)
    assert (loaded.docs, loaded.lengths) == (index.docs, index.lengths)
    # a blob already known, skipped ones too, is not read again
    asked: list[str] = []
    loaded.update({"a.py": "1" * 40, "b.bin": "2" * 40},
                  lambda paths: asked.extend(paths) or {})
    assert asked == []
    # a new blob's postings follow the loaded ones on their term lines
    loaded.update({"a.py": "1" * 40, "c.py": "3" * 40},
                  lambda paths: {"c.py": "beta delta"})
    save_term_index(loaded, path)
    assert path.read_text(encoding="utf-8") == (
        "bm25-term-index-v2\n"
        f"{'1' * 40} 3\n-\n{'3' * 40} 2\n\n"
        "alpha 0:2\nbeta 0:1 2:1\ndelta 2:1\n")


@pytest.mark.parametrize("first_line", [
    "bm25-term-index-v1", "evolution-memory-v1", "bm25-term-index-v3", ""])
def test_load_term_index_refuses_another_version(tmp_path, first_line):
    path = tmp_path / "memory.jsonl.bm25"
    path.write_text(f'{first_line}\n{{"blob": "0", "terms": null}}\n',
                    encoding="utf-8")
    with pytest.raises(ValueError) as caught:
        load_term_index(path)
    message = str(caught.value)
    assert message.startswith(f"{path}:1: not a bm25-term-index-v2 file")
    assert "safe to delete" in message


_GOOD_BLOBS = f"{'1' * 40} 3\n{'2' * 40} -\n-\n"


@pytest.mark.parametrize("text,line", [
    (f"{'1' * 40} 3\n{'1' * 40} 2\n\nalpha 0:1\n", 3),  # a blob twice
    (f"{'1' * 40}\n\nalpha 0:1\n", 2),
    (f"{'1' * 40} x\n\nalpha 0:1\n", 2),
    (f"{'A' * 40} 3\n\nalpha 0:1\n", 2),
    (f"{'1' * 40} 3 4\n\nalpha 0:1\n", 2),
    ("alpha 0:1\n", 2),  # no blank line after the blob lines
    (_GOOD_BLOBS + "\nalpha 0:1\nalpha 0:2\n", 7),  # a term twice
    (_GOOD_BLOBS + "\nAlpha 0:1\n", 6),
    (_GOOD_BLOBS + "\nalpha\n", 6),
    (_GOOD_BLOBS + "\nalpha \n", 6),
    (_GOOD_BLOBS + "\nal:pha 0:1\n", 6),
    (_GOOD_BLOBS + "\nalpha 0:1\n\n", 7),
    (_GOOD_BLOBS + "\nalpha 0:1", 6),  # cut short
], ids=["blob twice", "no length", "bad length", "upper-case blob id",
        "three fields", "no blank line", "term twice", "upper-case term",
        "no postings", "empty postings", "colon in term", "blank term line",
        "cut short"])
def test_load_term_index_names_a_bad_line(tmp_path, text, line):
    path = tmp_path / "memory.jsonl.bm25"
    path.write_text("bm25-term-index-v2\n" + text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: "):
        load_term_index(path)


@pytest.mark.parametrize("postings", [
    "0:x", "0:1:2", "3:1", "0:0", "0:1 0:1", "1:1 0:1", "0:1  1:1",
    "0:1 ", "-1:1", "0:١",
])
def test_ranking_parses_only_the_issue_terms(tmp_path, postings):
    path = tmp_path / "memory.jsonl.bm25"
    path.write_text(f"bm25-term-index-v2\n{_GOOD_BLOBS}\nalpha 0:2\n"
                    f"zeta {postings}\n", encoding="utf-8")
    index = load_term_index(path)
    documents = index.documents({"a.py": "1" * 40, "b.bin": "2" * 40})
    assert [rf.path for rf in rank_files(documents, "alpha")] == ["a.py"]
    with pytest.raises(ValueError, match=(f"^{re.escape(str(path))}:7: "
                                          f"bad postings of term 'zeta'")):
        rank_files(documents, "alpha zeta")


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
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("beta\n", encoding="utf-8")
    (tmp_path / "a.py").write_text("alpha\n", encoding="utf-8")
    (tmp_path / "blob.bin").write_bytes(b"\xff\xfe\x00junk")
    (tmp_path / "link.py").symlink_to("a.py")
    sha = e2e.commit_all(tmp_path)
    files = read_repo_files(tmp_path, list_repo_files(tmp_path, sha))
    assert list(files) == ["a.py", "pkg/b.py"]
    assert files["pkg/b.py"] == "beta\n"


# --- locate --------------------------------------------------------------------

LOCATE_FILES = {
    "auth.py": "def login(user):\n    return user.password\n",
    "billing.py": "def charge(card):\n    return card.total\n",
    "docs.md": "notes about the login flow and billing edge cases\n",
}


def _locate(custodian: Custodian, issue: str, k: int):
    return custodian.locate(documents(LOCATE_FILES), issue, k,
                            reader(LOCATE_FILES))


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
        _locate(custodian, "login broken", 0)


def test_locate_filters_on_relevance():
    gw = scripted_gateway({"P2": _summary_by_path, "P3": _yes_for_auth})
    custodian = Custodian(gw)
    result = _locate(custodian, "login rejects valid passwords", 2)
    assert custodian.bm25_calls == 1
    assert len(result.ranked) == len(LOCATE_FILES)
    assert "auth.py" in [rf.path for rf in result.ranked[:2]]
    assert result.candidates == ("auth.py",)
    assert gw.call_counts == {"P2": 2, "P3": 2}
    assert custodian.notes == []


def test_locate_keeps_file_when_relevance_call_fails():
    def flaky(prompt: str) -> str:
        if "summary of auth.py" in prompt:
            raise TransportError("offline", attempts=3)
        return "DECISION: NO"

    gw = scripted_gateway({"P2": _summary_by_path, "P3": flaky})
    custodian = Custodian(gw)
    result = _locate(custodian, "login rejects valid passwords", 2)
    assert "auth.py" in result.candidates
    assert custodian.notes == ["locate: auth.py: undetermined (offline)"]


def test_locate_keeps_file_when_relevance_is_unparseable():
    gw = scripted_gateway({"P2": _summary_by_path, "P3": "no marker at all"})
    custodian = Custodian(gw)
    result = _locate(custodian, "login rejects valid passwords", 1)
    top = result.ranked[0].path
    assert result.candidates == (top,)
    assert len(custodian.notes) == 1
    assert custodian.notes[0].startswith(f"locate: {top}: undetermined (")


def test_locate_propagates_cassette_misses(tmp_path):
    cassette = tmp_path / "empty.jsonl"
    cassette.write_text("", encoding="utf-8")
    custodian = Custodian(Gateway(ReplayBackend(cassette)))
    with pytest.raises(CassetteMissError):
        _locate(custodian, "login rejects valid passwords", 1)
