from __future__ import annotations

import json
import random
import re
import struct
import tempfile
from array import array
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _e2e_data as e2e
from _oracles import bm25_scores_brute, tokenize_two_pass
from conftest import blob_id, documents, reader, scripted_gateway, stream

from patchcrew.custodian import (MAX_SUMMARY_UPDATES, Custodian,
                                 EvolutionMemory, MemoryEntry, TermIndex,
                                 _RunTerms, count_terms, load_memory,
                                 load_term_index, rank_files, save_memory,
                                 save_term_index, tokenize)
from patchcrew.errors import CassetteMissError, TransportError
from patchcrew.gitops import iter_repo_files, list_repo_files, read_repo_files
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
    # one-letter runs at the edges of a term are dropped, never joined on
    ("aB", []),
    ("xYz", ["yz"]),
    ("A1b", ["a1b"]),
    ("Ab_c", ["ab"]),
    ("ABc", ["abc"]),
    ("1a", ["1a"]),
    ("a1", ["a1"]),
    ("\u00e91x", ["1x"]),
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


def _assert_counts_like_two_pass(text):
    expected = Counter(tokenize_two_pass(text))
    memo = _RunTerms()
    for _ in range(2):  # the second count finds every run in the memo
        counts = count_terms(text, memo)
        assert counts == expected
        assert list(counts) == list(expected)  # first-seen order


# st.characters() leaves surrogates out, so a few lone ones are mixed in;
# all-lowercase, digit-only and one-character pieces make runs that take
# the memo's no-capital path, alone or joined to their neighbours
@settings(max_examples=300, deadline=None)
@given(_TOKEN_TEXT | st.lists(st.sampled_from(
    ["ab", "Cd", "9", " ", "\ud800", "\udfff", "\u00e9", "deadbeef0",
     "x", "Q", "2024", "_"]), max_size=20)
    .map("".join))
def test_count_terms_matches_two_pass_split(text):
    _assert_counts_like_two_pass(text)


@pytest.mark.parametrize("text", [
    "\ud800", "\u00b2", "\u0663", "\u0130", "\u212a", "ab\ud800cdEf",
    "x\u00b2y ab\u00b2cd \u0663\u0663 ab\u0663cd \u0130ab \u212aelvin"])
def test_count_terms_splits_on_every_non_ascii_character(text):
    _assert_counts_like_two_pass(text)


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

            def read(blobs):
                asked.extend(blobs)
                return ((p, files[p]) for p in blobs
                        if not files[p].startswith(BINARY))

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


Postings = list[tuple[str, list[tuple[int, int]]]]  # term, (doc, count)s


def _v3_file(blobs: list[tuple[str | None, int | None]], postings: Postings,
             width: int = 40) -> bytes:
    """A bm25-term-index-v3 file packed one value at a time: (blob id,
    length) per document, None for a gone blob or a missing length."""
    names = "\n".join(term for term, _ in postings).encode()
    return b"".join([
        b"bm25-term-index-v3\n",
        struct.pack("<4I", len(blobs), width, len(postings), len(names)),
        *((oid or "-" * width).encode() for oid, _ in blobs), names,
        *(struct.pack("<I", 0xFFFFFFFF if n is None else n)
          for _, n in blobs),
        *(struct.pack("<I", len(pairs)) for _, pairs in postings),
        *(struct.pack("<2I", *pair) for _, pairs in postings
          for pair in pairs)])


def _v3_fields(data: bytes) -> tuple[list[str | None], list[int | None],
                                     Postings]:
    """A v3 file's blob ids, lengths and postings, unpacked one value at a
    time."""
    at = len(b"bm25-term-index-v3\n")
    assert data[:at] == b"bm25-term-index-v3\n"
    n_blobs, width, n_terms, size = struct.unpack_from("<4I", data, at)
    at += 16
    ids = [data[at + i * width:at + (i + 1) * width].decode()
           for i in range(n_blobs)]
    at += n_blobs * width
    terms = data[at:at + size].decode().split("\n") if size else []
    at += size
    lengths = struct.unpack_from(f"<{n_blobs}I", data, at)
    at += 4 * n_blobs
    counts = struct.unpack_from(f"<{n_terms}I", data, at)
    at += 4 * n_terms
    postings: Postings = []
    for term, n in zip(terms, counts):
        flat = struct.unpack_from(f"<{2 * n}I", data, at)
        at += 8 * n
        postings.append((term, list(zip(flat[::2], flat[1::2]))))
    assert at == len(data)
    return ([None if oid == "-" * width else oid for oid in ids],
            [None if n == 0xFFFFFFFF else n for n in lengths], postings)


def _saved_index_by_plain_loop(revisions: list[dict[str, str]]) -> bytes:
    """The saved index after one update per listing (path -> text, none of
    them dropped later), built one posting at a time."""
    docs: dict[str, int] = {}
    blobs: list[tuple[str, int]] = []
    postings: dict[str, list[tuple[int, int]]] = {}
    for files in revisions:
        for text in files.values():
            oid = blob_id(text)
            if oid in docs:
                continue
            docs[oid] = doc = len(blobs)
            terms = Counter(tokenize(text))
            blobs.append((oid, sum(terms.values())))
            for term, n in terms.items():
                postings.setdefault(term, []).append((doc, n))
    return _v3_file(blobs, list(postings.items()),
                    width=len(blobs[0][0]) if blobs else 1)


_BLOB_TEXT = st.lists(st.sampled_from(
    ["alpha", "beta", "gamma", "parseHTTP", "HTTPServer", "x", "a1", "v2"]),
    max_size=20).map(" ".join)


@settings(max_examples=150, deadline=None)
@given(revisions=st.lists(st.lists(_BLOB_TEXT, max_size=8), min_size=1,
                          max_size=3))
def test_saved_index_matches_a_plain_posting_loop(revisions):
    # each revision adds files to the last; equal texts are one blob, and a
    # term met again in a later update extends its postings
    listings: list[dict[str, str]] = []
    files: dict[str, str] = {}
    index = TermIndex()
    for texts in revisions:
        files = {**files, **{f"m{len(files) + i}.py": text
                             for i, text in enumerate(texts)}}
        listings.append(files)
        index.update({path: blob_id(text) for path, text in files.items()},
                     stream(files))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "memory.jsonl.bm25"
        save_term_index(index, path)
        assert path.read_bytes() == _saved_index_by_plain_loop(listings)


# a blob table, per document whether its blob is live and its length (None
# for a blob that is not UTF-8 text; a gone blob may keep one in memory),
# and terms whose documents ascend below the table's size
_TABLE = st.lists(st.tuples(st.booleans(),
                            st.none() | st.integers(0, 2 ** 32 - 2)),
                  max_size=12)


@st.composite
def _term_indexes(draw) -> TermIndex:
    index = TermIndex()
    for doc, (live, length) in enumerate(draw(_TABLE)):
        oid = f"{doc:040x}" if live else None
        index.blob_ids.append(oid)
        index.lengths.append(length)
        if live:
            index.docs[oid] = doc
    for term in draw(st.lists(st.from_regex(r"[a-z0-9]{1,6}", fullmatch=True),
                              unique=True, max_size=8)):
        docs = draw(st.lists(st.integers(0, len(index.blob_ids) - 1),
                             min_size=1, unique=True)) if index.blob_ids else []
        counts = draw(st.lists(st.integers(1, 2 ** 32 - 1),
                               min_size=len(docs), max_size=len(docs)))
        if docs:
            index.postings[term] = array("I", [
                v for pair in zip(sorted(docs), counts) for v in pair]).tobytes()
    return index


@settings(max_examples=200, deadline=None)
@given(index=_term_indexes())
def test_saved_index_round_trips_byte_for_byte(index, tmp_path_factory):
    path = tmp_path_factory.mktemp("index") / "memory.jsonl.bm25"
    save_term_index(index, path)
    saved = path.read_bytes()
    flat = {term: array("I", pairs) for term, pairs in index.postings.items()}
    assert _v3_fields(saved) == (
        index.blob_ids,
        [n if oid else None for oid, n in zip(index.blob_ids, index.lengths)],
        [(term, list(zip(pairs[::2], pairs[1::2])))
         for term, pairs in flat.items()])
    loaded = load_term_index(path)
    save_term_index(loaded, path)  # its pairs as loaded, not yet read
    assert path.read_bytes() == saved
    assert (loaded.docs, loaded.blob_ids) == (index.docs, index.blob_ids)
    assert loaded.lengths == _v3_fields(saved)[1]
    assert list(loaded.postings) == list(index.postings)
    for term, pairs in flat.items():
        assert loaded._pairs(term) == pairs
    save_term_index(loaded, path)  # after every term's pairs were read
    assert path.read_bytes() == saved


def test_loaded_index_saves_like_the_index_kept_in_memory(tmp_path):
    # each revision rewrites two of four files, so gone blobs pile up until
    # a purge drops them; then the files return to the first revision, whose
    # blobs are gone by then and are counted again
    revisions = [{f"m{i}.py": f"alpha beta r{r if i < 2 else 0} m{i} "
                              + "gamma " * ((r + i) % 3)
                  for i in range(4)} for r in range(6)]
    revisions += [revisions[0], revisions[3], revisions[0]]
    kept = TermIndex()
    path = tmp_path / "memory.jsonl.bm25"
    purges = 0
    for files in revisions:
        listing = {p: blob_id(c) for p, c in files.items()}
        loaded = load_term_index(path) if path.exists() else TermIndex()
        gone_before = None in kept.blob_ids
        for index in (kept, loaded):
            index.update(listing, stream(files))
            # a read between update and save changes nothing that is saved
            assert dict(_ranking(index.documents(listing), "alpha gamma r1")) \
                == bm25_scores_brute(files, "alpha gamma r1")
        purges += gone_before and None not in kept.blob_ids
        save_term_index(kept, tmp_path / "kept.bm25")
        save_term_index(loaded, path)
        assert path.read_bytes() == (tmp_path / "kept.bm25").read_bytes()
    assert purges >= 2


def test_term_index_update_counts_each_blob_before_it_reads_the_next():
    # 600 blobs in one stream, one of them under a second path, which is
    # read once, and one blob that is not UTF-8
    rng = random.Random(17)
    files = {f"m{i}.py": f"m{i} " + " ".join(rng.choices(
                 ["alpha", "cache", "login", "flush"], k=rng.randint(1, 9)))
             for i in range(600)}
    files["copy.py"] = files["m0.py"]
    files["e.bin"] = BINARY + "alpha"
    listing = {path: blob_id(text) for path, text in files.items()}
    index = TermIndex()
    reads: list[list[str]] = []

    def read(blobs):
        reads.append(list(blobs))
        for path, oid in blobs.items():
            if files[path].startswith(BINARY):
                continue
            yield path, files[path]
            # resumed, so the blob just yielded must have been counted
            assert index.lengths[index.docs[oid]] \
                == len(tokenize(files[path]))

    assert index.update(listing, read)
    assert len(reads) == 1
    assert sorted(reads[0]) == sorted(set(listing) - {"m0.py"})
    assert index.lengths[index.docs[listing["e.bin"]]] is None
    text = {p: c for p, c in files.items() if not c.startswith(BINARY)}
    query = "alpha cache login flush missing"
    assert dict(_ranking(index.documents(listing), query)) \
        == bm25_scores_brute(text, query)


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
                     stream(files))
        save_term_index(index, path)
        blobs, _, postings = _v3_fields(path.read_bytes())
        live = [oid for oid in blobs if oid is not None]
        assert len(live) == len(set(files.values()))
        assert len(blobs) <= 2 * len(live)
        if len(blobs) == len(live):  # no gone blob held: a purge ran
            purged += revision > 0
            numbers = {doc for _, pairs in postings for doc, _ in pairs}
            assert numbers == set(range(len(blobs)))
        for _, pairs in postings:
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
                 lambda blobs: [("a.py", "alpha beta alpha")])
    assert index.docs == {"1" * 40: 0, "2" * 40: 1}
    assert index.lengths == [3, None]
    path = tmp_path / "memory.jsonl.bm25"
    save_term_index(index, path)
    assert path.read_bytes() == (
        b"bm25-term-index-v3\n"
        # 2 blobs, ids 40 wide, 2 terms, 10 bytes of term names
        b"\x02\x00\x00\x00\x28\x00\x00\x00\x02\x00\x00\x00\x0a\x00\x00\x00"
        + b"1" * 40 + b"2" * 40 + b"alpha\nbeta"
        b"\x03\x00\x00\x00\xff\xff\xff\xff"  # lengths: 3, not text
        b"\x01\x00\x00\x00\x01\x00\x00\x00"  # one pair per term
        b"\x00\x00\x00\x00\x02\x00\x00\x00"  # alpha: doc 0, count 2
        b"\x00\x00\x00\x00\x01\x00\x00\x00")  # beta: doc 0, count 1
    loaded = load_term_index(path)
    assert (loaded.docs, loaded.lengths) == (index.docs, index.lengths)
    # a blob already known, skipped ones too, is not read again
    asked: list[str] = []
    loaded.update({"a.py": "1" * 40, "b.bin": "2" * 40},
                  lambda blobs: asked.extend(blobs) or ())
    assert asked == []
    # a new blob's postings follow the loaded ones of their terms
    loaded.update({"a.py": "1" * 40, "c.py": "3" * 40},
                  lambda blobs: [("c.py", "beta delta")])
    save_term_index(loaded, path)
    assert path.read_bytes() == _v3_file(
        [("1" * 40, 3), (None, None), ("3" * 40, 2)],
        [("alpha", [(0, 2)]), ("beta", [(0, 1), (2, 1)]),
         ("delta", [(2, 1)])])


def _cold_build(repo: Path, index_path: Path) -> bytes:
    """The saved bytes of a new index over a fixture repository of this
    package's sources and this test file, with corner cases of tokenize
    appended."""
    if not repo.exists():
        here = Path(__file__).resolve().parent
        files = {**e2e.REPO_FILES,
                 **{f"patchcrew/{path.name}": path.read_text("utf-8")
                    for path in (here.parent / "src/patchcrew").glob("*.py")},
                 "tests/test_custodian.py":
                     (here / "test_custodian.py").read_text("utf-8"),
                 "pkg/httpClient.py":
                     "class HTTPClient:\n"
                     "    def getURL2(self, aB, xYz):\n"
                     "        return A1b_c or \u00e91x + ABc\u00b2d\n"}
        e2e.build_fixture_repo(repo, files)
    listing = list_repo_files(repo, "HEAD")
    index = TermIndex()
    index.update(listing, lambda blobs: iter_repo_files(repo, blobs))
    save_term_index(index, index_path)
    assert len(load_term_index(index_path).postings) > 1000
    return index_path.read_bytes()


def test_cold_index_file_is_the_same_bytes_under_the_two_pass_split(
        tmp_path, monkeypatch):
    # the saved file holds every blob's length and every term's postings
    # in first-seen order, so equal bytes mean both counters gave each
    # blob the same terms in the same order
    built = _cold_build(tmp_path / "repo", tmp_path / "runs.bm25")
    monkeypatch.setattr("patchcrew.custodian.count_terms",
                        lambda text, memo: Counter(tokenize_two_pass(text)))
    assert _cold_build(tmp_path / "repo", tmp_path / "two_pass.bm25") \
        == built


def test_cold_index_file_is_the_same_bytes_with_a_memo_of_two_runs(
        tmp_path, monkeypatch):
    built = _cold_build(tmp_path / "repo", tmp_path / "runs.bm25")
    monkeypatch.setattr("patchcrew.custodian._RUN_MEMO_SIZE", 2)
    assert _cold_build(tmp_path / "repo", tmp_path / "two_runs.bm25") \
        == built


@pytest.mark.parametrize("first_line", [
    "bm25-term-index-v1", "evolution-memory-v1", "bm25-term-index-v2", ""])
def test_load_term_index_refuses_another_version(tmp_path, first_line):
    path = tmp_path / "memory.jsonl.bm25"
    path.write_bytes(f"{first_line}\n{'1' * 40} 3\n\nalpha 0:3\n".encode()
                     + _GOOD[len("bm25-term-index-v3\n"):])
    with pytest.raises(ValueError) as caught:
        load_term_index(path)
    message = str(caught.value)
    assert message.startswith(f"{path}: not a bm25-term-index-v3 file")
    assert "safe to delete" in message


_BLOBS = [("1" * 40, 3), ("2" * 40, None), (None, None)]
_GOOD = _v3_file(_BLOBS, [("alpha", [(0, 2)])])
# where each part of _GOOD ends: the header, the blob ids, the term names
_HEADER_END = len("bm25-term-index-v3\n") + 16
_IDS_END = _HEADER_END + 3 * 40
_NAMES_END = _IDS_END + len("alpha")


# Each id names the bm25-term-index-v2 fault a case stood for; the comment
# above a case says what the v3 bytes hold instead.
@pytest.mark.parametrize("data,problem", [
    # blob twice: one blob id in two slots of the table
    (_v3_file([("1" * 40, 3), ("1" * 40, 2)], [("alpha", [(0, 1)])]),
     "want 2 distinct blob ids"),
    # no length: the file ends after the term names
    (_GOOD[:_NAMES_END], "the file is cut short"),
    # bad length: the header counts one byte more of term names than there
    # are, so the first length's byte is read as part of a name
    (_GOOD[:_HEADER_END - 4] + struct.pack("<I", 6) + _GOOD[_HEADER_END:],
     "want 1 distinct term names"),
    # upper-case blob id: a blob id that is not lower-case hex
    (_v3_file([("A" * 40, 3)], [("alpha", [(0, 1)])]),
     "want 1 distinct blob ids of 40 hex digits"),
    # three fields: the header is cut before its fourth field
    (_GOOD[:_HEADER_END - 4], "the file is cut short"),
    # no blank line: the file ends after the blob ids
    (_GOOD[:_IDS_END], "the file is cut short"),
    # term twice: one term name in two slots
    (_v3_file(_BLOBS, [("alpha", [(0, 1)]), ("alpha", [(0, 2)])]),
     "want 2 distinct term names"),
    # upper-case term: a term name outside [a-z0-9]
    (_v3_file(_BLOBS, [("Alpha", [(0, 1)])]), "want 1 distinct term names"),
    # no postings: a term whose pair count is 0
    (_v3_file(_BLOBS, [("alpha", [])]), "term 'alpha' has no pairs"),
    # empty postings: the file ends before the last term's pair
    (_GOOD[:-8], "the file is cut short"),
    # colon in term: a term name with a byte outside [a-z0-9]
    (_v3_file(_BLOBS, [("al:pha", [(0, 1)])]), "want 1 distinct term names"),
    # blank term line: an empty term name
    (_v3_file(_BLOBS, [("alpha", [(0, 1)]), ("", [(0, 1)])]),
     "want 2 distinct term names"),
    # cut short: the last pair's final byte is missing
    (_GOOD[:-1], "the file is cut short"),
    # trailing bytes: one byte after the pairs
    (_GOOD + b"\0", "1 bytes follow the pairs"),
    # no blob id width: a header that gives blob ids a width of 0
    (_v3_file(_BLOBS, [("alpha", [(0, 1)])], width=0)[:_HEADER_END],
     "want 3 distinct blob ids of 0 hex digits"),
    # dash in a blob id: a blob id that is part hex, part dash
    (_GOOD.replace(b"1" * 40, b"1" * 39 + b"-"), "want 3 distinct blob ids"),
], ids=["blob twice", "no length", "bad length", "upper-case blob id",
        "three fields", "no blank line", "term twice", "upper-case term",
        "no postings", "empty postings", "colon in term", "blank term line",
        "cut short", "trailing bytes", "no blob id width", "dash in a blob id"])
def test_load_term_index_names_a_bad_line(tmp_path, data, problem):
    path = tmp_path / "memory.jsonl.bm25"
    path.write_bytes(data)
    with pytest.raises(ValueError,
                       match=f"^{re.escape(f'{path}: {problem}')}"):
        load_term_index(path)


@pytest.mark.parametrize("postings", [
    "3:1", "0:0", "0:1 0:1", "1:1 0:1", "-1:1"])
def test_ranking_parses_only_the_issue_terms(tmp_path, postings):
    # doc:count pairs, packed as uint32s: -1 is the largest of them
    pairs = [tuple(int(n) % 2 ** 32 for n in pair.split(":"))
             for pair in postings.split(" ")]
    path = tmp_path / "memory.jsonl.bm25"
    path.write_bytes(_v3_file(_BLOBS, [("alpha", [(0, 2)]),
                                       ("zeta", pairs)]))
    index = load_term_index(path)
    documents = index.documents({"a.py": "1" * 40, "b.bin": "2" * 40})
    assert [rf.path for rf in rank_files(documents, "alpha")] == ["a.py"]
    bad = f"^{re.escape(str(path))}: bad postings of term 'zeta'"
    with pytest.raises(ValueError, match=bad):
        rank_files(documents, "alpha zeta")
    # an update appends a new blob's pairs to the loaded ones unchecked, and
    # the first read still checks them all
    index = load_term_index(path)
    listing = {"a.py": "1" * 40, "b.bin": "2" * 40, "c.py": "4" * 40}
    index.update(listing, lambda blobs: [("c.py", "zeta")])
    with pytest.raises(ValueError, match=bad):
        rank_files(index.documents(listing), "zeta")


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
    assert custodian.memory.get("m.py") == MemoryEntry("module summary", 0,
                                                       SMALL_OLD)


def test_summarize_small_edit_extends_summary():
    gw = scripted_gateway({"P2": "base summary", "P1": "bump f3 result"})
    custodian = Custodian(gw)
    custodian.summarize_file("m.py", SMALL_OLD)
    summary = custodian.summarize_file("m.py", SMALL_NEW)
    assert summary == "base summary\nUPDATE: bump f3 result"
    assert gw.call_counts == {"P2": 1, "P1": 1}
    assert custodian.memory.get("m.py") == MemoryEntry(summary, 1, SMALL_NEW)


def test_summarize_large_edit_starts_fresh():
    gw = scripted_gateway({"P2": ["first", "second"], "P1": "unused"})
    custodian = Custodian(gw)
    custodian.summarize_file("m.py", "a\nb\n")
    summary = custodian.summarize_file("m.py", "x\ny\n")
    assert summary == "second"
    assert gw.call_counts == {"P2": 2}
    assert custodian.memory.get("m.py") == MemoryEntry("second", 0, "x\ny\n")


def test_summarize_rebuilds_after_update_cap():
    old = "content version\n" + SMALL_OLD
    memory: EvolutionMemory = {
        "m.py": MemoryEntry("long lived", MAX_SUMMARY_UPDATES, old)}
    gw = scripted_gateway({"P2": "rebuilt", "P1": "unused"})
    custodian = Custodian(gw, memory)
    newest = old.replace("version", "revision")
    assert custodian.summarize_file("m.py", newest) == "rebuilt"
    assert gw.call_counts == {"P2": 1}
    assert memory.get("m.py") == MemoryEntry("rebuilt", 0, newest)


def test_summarize_updates_up_to_the_cap():
    old = "content version\n" + SMALL_OLD
    memory: EvolutionMemory = {
        "m.py": MemoryEntry("long lived", MAX_SUMMARY_UPDATES - 1, old)}
    gw = scripted_gateway({"P2": "unused", "P1": "last update"})
    custodian = Custodian(gw, memory)
    newest = old.replace("version", "revision")
    summary = custodian.summarize_file("m.py", newest)
    assert summary == "long lived\nUPDATE: last update"
    assert gw.call_counts == {"P1": 1}
    assert memory.get("m.py") == MemoryEntry(summary, MAX_SUMMARY_UPDATES,
                                             newest)


def test_summarize_a_return_to_an_earlier_version_is_an_update():
    first = "".join(f"def g{i}(x):\n    return x + {i}\n\n" for i in range(14))
    second = first.replace("x + 7", "x - 7")  # one of 42 lines
    gw = scripted_gateway({"P2": "base", "P1": ["to second", "back"]})
    custodian = Custodian(gw)
    custodian.summarize_file("m.py", first)
    custodian.summarize_file("m.py", second)
    summary = custodian.summarize_file("m.py", first)
    assert summary == "base\nUPDATE: to second\nUPDATE: back"
    assert gw.call_counts == {"P2": 1, "P1": 2}
    assert custodian.memory.get("m.py") == MemoryEntry(summary, 2, first)


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
    memory: EvolutionMemory = {
        "a.py": MemoryEntry("summary a", 0, "one"),
        "b.py": MemoryEntry("summary b\nUPDATE: tweak", 1, "two")}
    path = tmp_path / "memory.jsonl"
    save_memory(memory, path)
    first_line = path.read_text(encoding="utf-8").splitlines()[0]
    assert first_line == "evolution-memory-v2"
    loaded = load_memory(path)
    assert loaded == memory


_V1_RECORD = ('{"path": "a.py", "content_hash": "00", "summary": "s", '
              '"lineage": [["00", ""]], "content": "one"}')


@pytest.mark.parametrize("text", [
    "something-else\n", f"evolution-memory-v1\n{_V1_RECORD}\n", ""],
    ids=["other", "v1", "empty"])
def test_load_memory_rejects_wrong_version(tmp_path, text):
    path = tmp_path / "memory.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as caught:
        load_memory(path)
    message = str(caught.value)
    assert message.startswith(f"{path}:1: not a evolution-memory-v2 file")
    assert "safe to delete" in message
    assert "summarizing each file afresh" in message


def test_load_memory_reports_bad_record_line(tmp_path):
    path = tmp_path / "memory.jsonl"
    path.write_text("evolution-memory-v2\n{\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":2: bad memory record"):
        load_memory(path)


def _record(**fields) -> dict:
    return {"path": "a.py", "summary": "s", "updates": 0, "content": "one",
            **fields}


@pytest.mark.parametrize("record,problem", [
    (_record(content=5), "content is not a string"),
    (_record(path=7), "path is not a string"),
    (_record(summary=None), "summary is not a string"),
    (_record(updates=-1), "updates is not an integer >= 0"),
    (_record(updates=True), "updates is not an integer >= 0"),
    (_record(updates=1.0), "updates is not an integer >= 0"),
    (_record(updates="1"), "updates is not an integer >= 0"),
    ({"path": "a.py", "summary": "s", "content": "one"}, "'updates'"),
    (["a.py", "s", 0, "one"], "not a JSON object"),
], ids=["content int", "path int", "summary null", "updates negative",
        "updates bool", "updates float", "updates text", "updates missing",
        "array"])
def test_load_memory_checks_each_field(tmp_path, record, problem):
    path = tmp_path / "memory.jsonl"
    path.write_text(f"evolution-memory-v2\n{json.dumps(_record())}\n"
                    f"{json.dumps(record)}\n", encoding="utf-8")
    where = re.escape(f"{path}:3: bad memory record: {problem}")
    with pytest.raises(ValueError, match=f"^{where}$"):
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
