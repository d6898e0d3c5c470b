"""Repository custodian: rank files against an issue, keep cheap summaries.

Ranking is plain BM25 (k1=1.2, b=0.75) over file contents with the file's
own path tokens appended once per document, since issues often name modules
outright. BM25 needs only each document's length and the counts of the
query's own terms, so it ranks from a TermIndex: an inverted file that
keeps, per term, the document numbers of the git blobs that hold it and
its count in each. The index follows the evolution memory's idea: it
persists next to the memory (``<memory-path>.bm25``), so a new revision
tokenizes only the blobs that changed, a query reads only the postings
of its own terms, and a file's content is read only when a summary or a
later stage needs it. A term's postings are held as the bytes the file
holds, so a load slices them from the file, a save joins them back, and
they are checked each time they are read. A term never spans a
character outside [A-Za-z0-9], non-ASCII ones included, so a blob is
counted one run of ASCII letters and digits at a time, and each
distinct run is tokenized once per index update.

Summaries are memoized in an EvolutionMemory, which keeps per file its
summary, the number of updates in it and the content it describes, so a
file is not summarized again while its content stays the same. When a file
changes a little (its diff from the remembered content is shorter than the
new content), the stored summary is extended with a one-line update
derived from the diff instead of paying for a fresh summarization. After 5
such updates, or when the change is large, the summary is rebuilt fresh.
A file that returns to an earlier version is one more change.
"""

from __future__ import annotations

import json
import logging
import math
import re
import sys
from array import array
from collections import Counter, defaultdict, deque
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, count, repeat
from pathlib import Path

from . import prompts
from .diffs import compute_diff, render_file_diff
from .errors import LLM_TROUBLE
from .llm import Gateway, map_concurrently

log = logging.getLogger(__name__)

BM25_K1 = 1.2
BM25_B = 0.75
MAX_SUMMARY_UPDATES = 5
MEMORY_FORMAT_VERSION = "evolution-memory-v2"
TERM_INDEX_FORMAT_VERSION = "bm25-term-index-v3"

# a run of capitals then a run of lowercase letters and digits: camelCase
# splits before each capital that follows a lowercase letter or digit, and
# any other character ends the term. The three branches match only such
# runs of two characters or more, so nothing is filtered afterwards.
_TERM = re.compile(r"[A-Z]{2,}[a-z0-9]*|[A-Z][a-z0-9]+|[a-z0-9]{2,}")


def tokenize(text: str) -> list[str]:
    """Lowercased terms: split on punctuation, underscores, and camelCase
    boundaries; keep terms of length >= 2; preserve duplicates. A term
    never spans a character outside [A-Za-z0-9], non-ASCII ones included
    (count_terms relies on this)."""
    return list(map(str.lower, _TERM.findall(text)))


# every byte but an ASCII letter or digit becomes a space, so that split()
# gives the runs a term cannot cross; UTF-8 encodes every non-ASCII
# character, a lone surrogate too under "surrogatepass", as bytes >= 0x80
_RUN_BYTES = bytes(b if bytes([b]).isalnum() else 0x20 for b in range(256))
# a bound on the memo: without one, the heap of a cold build over the
# CPython 3.11 standard library peaked at 26.5 MB instead of 18.0 MB
_RUN_MEMO_SIZE = 2 ** 14


class _RunTerms(dict):
    """A run of ASCII letters and digits -> its terms, tokenized on first
    use. Kept for one TermIndex.update, and cleared when it holds
    _RUN_MEMO_SIZE runs."""

    def __missing__(self, run: bytes) -> tuple[str, ...]:
        if len(self) >= _RUN_MEMO_SIZE:
            self.clear()
        if run.islower() or run.isdigit():
            # no capital letter, so no camelCase split: the whole run is
            # one term, or none when it is one character
            terms = (run.decode("ascii"),) if len(run) > 1 else ()
        else:
            terms = tuple(tokenize(run.decode("ascii")))
        self[run] = terms
        return terms


def count_terms(text: str, memo: _RunTerms) -> Counter:
    """Counter(tokenize(text)), keys in the same first-seen order, with
    each distinct run of ASCII letters and digits tokenized through
    ``memo``."""
    runs = text.encode("utf-8", "surrogatepass").translate(_RUN_BYTES).split()
    return Counter(chain.from_iterable(map(memo.__getitem__, runs)))


@dataclass(frozen=True)
class RankedFile:
    path: str
    bm25_score: float
    rank: int


@dataclass(frozen=True)
class Documents:
    """What rank_files ranks: each file's content length in terms, and a
    lookup that gives, for one term, its count in each file whose content
    holds it."""
    lengths: Mapping[str, int]
    counts: Callable[[str], Mapping[str, int]]


def rank_files(documents: Documents, issue_text: str) -> list[RankedFile]:
    """Score every file against the issue text with BM25, given each
    file's content length and the counts of the query's terms only.

    The path's own terms count once more, added here. IDF is
    ln((N - n_t + 0.5) / (n_t + 0.5) + 1). Repeated query terms contribute
    once per occurrence, summed in query order. Ties break by ascending
    path.
    """
    if not documents.lengths:
        raise ValueError("rank_files needs at least one file")
    if not issue_text.strip():
        raise ValueError("rank_files needs non-empty issue text")

    query = tokenize(issue_text)
    wanted = dict.fromkeys(query)
    # per document: its length, and the counts of the query's terms in it
    # where it holds any
    lengths: dict[str, int] = {}
    tf: dict[str, dict[str, int]] = {}
    for path, length in documents.lengths.items():
        path_terms = tokenize(path)
        lengths[path] = length + len(path_terms)
        for term in path_terms:
            if term in wanted:
                counts = tf.setdefault(path, {})
                counts[term] = counts.get(term, 0) + 1
    for term in wanted:
        for path, n in documents.counts(term).items():
            counts = tf.setdefault(path, {})
            counts[term] = counts.get(term, 0) + n
    n_docs = len(lengths)
    avg_len = sum(lengths.values()) / n_docs
    if avg_len == 0:
        avg_len = 1.0
    doc_freq = Counter(term for counts in tf.values() for term in counts)
    idf = {term: math.log((n_docs - n + 0.5) / (n + 0.5) + 1.0)
           for term, n in doc_freq.items()}

    scores = dict.fromkeys(lengths, 0.0)
    for path, counts in tf.items():
        score = 0.0
        norm = 1 - BM25_B + BM25_B * lengths[path] / avg_len
        for term in query:
            f = counts.get(term, 0)
            if f == 0:
                continue
            score += idf[term] * f * (BM25_K1 + 1) / (f + BM25_K1 * norm)
        scores[path] = score

    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [RankedFile(path=p, bm25_score=s, rank=i + 1)
            for i, (p, s) in enumerate(ordered)]


# A saved index: the version line; four little-endian uint32s (blobs, blob
# id width, terms, bytes of term names); the blob ids, dashes for a gone
# blob; the term names joined by "\n" ([a-z0-9]+, see tokenize); then
# little-endian uint32s: per blob its length in terms (_NO_LENGTH if gone
# or not UTF-8 text), per term its number of pairs, then each term's pairs.
_NO_LENGTH = 0xFFFFFFFF


def _uint32s(values: bytes | Iterable[int]) -> array:
    """Little-endian uint32s as an array in machine order, or the reverse."""
    values = array("I", values)
    if sys.byteorder == "big":
        values.byteswap()
    return values


def _little_endian(data: bytes) -> bytes:
    """Uint32s in machine order as little-endian bytes, or the reverse;
    the same bytes on a little-endian host."""
    return data if sys.byteorder == "little" else _uint32s(data).tobytes()


class TermIndex:
    """BM25's inverted file over git blobs. Each blob the index has seen
    gets a document number; each term keeps its postings, the document
    numbers of the blobs that hold it with its count in each. A blob id
    names the exact content, so a posting never goes stale.

    A term's postings are one bytes object of doc, count pairs as uint32s
    in machine order, never one object per posting: a loaded term holds
    its slice of the file, a counted one its array's bytes, and an update
    appends to either. Pairs are checked each time a query or a purge
    reads them. A blob that leaves the listing leaves the blob table, but
    its number stays in the postings, skipped, until numbers of gone blobs
    outnumber live ones; then a purge drops them and renumbers the rest.
    """

    def __init__(self, source: str = "term index"):
        self.docs: dict[str, int] = {}  # live blob id -> document number
        self.blob_ids: list[str | None] = []  # None once the blob is gone
        # content length in terms; None for a blob that is not UTF-8 text,
        # so that it is not read again
        self.lengths: list[int | None] = []
        # term -> doc, count, doc, count, ... as uint32s in machine order
        self.postings: dict[str, bytes] = {}
        self.source = source  # what errors name: the loaded file

    def update(self, listing: Mapping[str, str],
               read: Callable[[Mapping[str, str]],
                              Iterable[tuple[str, str]]]) -> bool:
        """Bring the index to a listing of path -> blob id: count the terms
        of each blob it does not know, reading one path per such blob, and
        append their postings; every blob the listing does not name leaves
        the blob table. ``read`` is given those paths with their blob ids
        and yields (path, text), in that order, for each that is UTF-8
        text; each text is counted as it arrives and not kept, so a build
        holds one blob's text at a time. Terms are counted with
        count_terms, so a run of letters and digits that recurs across the
        new blobs is tokenized once. Returns whether a blob was added or
        dropped."""
        unknown = {oid: path for path, oid in listing.items()
                   if oid not in self.docs}
        self.docs.update(zip(unknown, count(len(self.blob_ids))))
        self.blob_ids.extend(unknown)
        self.lengths.extend([None] * len(unknown))
        # term -> doc, count, ... of new blobs
        added: defaultdict[str, array] = defaultdict(partial(array, "I"))
        memo = _RunTerms()
        for path, text in read({path: oid for oid, path in unknown.items()}):
            doc = self.docs[listing[path]]
            counts = count_terms(text, memo)
            self.lengths[doc] = sum(counts.values())
            # a term occurs once in counts, so appending doc to each of its
            # term's arrays, then each count, keeps every array's doc,
            # count order; map runs the appends without a Python loop
            arrays = list(map(added.__getitem__, counts))
            deque(map(array.append, arrays, repeat(doc)), 0)
            deque(map(array.append, arrays, counts.values()), 0)
        for term, pairs in added.items():
            self.postings[term] = self.postings.get(term, b"") + pairs
        listed = set(listing.values())
        gone = [oid for oid in self.docs if oid not in listed]
        for oid in gone:
            self.blob_ids[self.docs.pop(oid)] = None
        if len(self.blob_ids) - len(self.docs) > len(self.docs):
            self._purge()
        return bool(unknown or gone)

    def documents(self, listing: Mapping[str, str]) -> Documents:
        """The listed paths of UTF-8 text, as rank_files takes them. A
        term's postings are read when rank_files asks for that term."""
        lengths: dict[str, int] = {}
        paths: dict[int, list[str]] = {}  # one blob can sit under two paths
        for path, oid in listing.items():
            doc = self.docs[oid]
            if (length := self.lengths[doc]) is not None:
                lengths[path] = length
                paths.setdefault(doc, []).append(path)

        def counts(term: str) -> dict[str, int]:
            pairs = self._pairs(term)
            return {path: n for doc, n in zip(pairs[::2], pairs[1::2])
                    for path in paths.get(doc, ())}

        return Documents(lengths, counts)

    def _pairs(self, term: str) -> array:
        """The term's postings as doc, count, doc, count, ..., checked on
        every read; empty for a term the index does not hold."""
        pairs = array("I", self.postings.get(term, b""))
        docs, blobs = pairs[::2].tolist(), len(self.blob_ids)
        if docs and (sorted(set(docs)) != docs or docs[-1] >= blobs
                     or 0 in pairs[1::2]):
            raise ValueError(f"{self.source}: bad postings of term {term!r}: "
                             f"want ascending documents < {blobs}, counts > 0")
        return pairs

    def _purge(self) -> None:
        """Drop the numbers of gone blobs from every term's postings and
        renumber the documents densely, keeping their order."""
        live = [doc for doc, oid in enumerate(self.blob_ids)
                if oid is not None]
        number: list[int | None] = [None] * len(self.blob_ids)
        for new, doc in enumerate(live):
            number[doc] = new
        postings: dict[str, bytes] = {}
        for term in self.postings:
            pairs = self._pairs(term)
            kept = array("I")
            for doc, n in zip(pairs[::2], pairs[1::2]):
                if number[doc] is not None:
                    kept.append(number[doc])
                    kept.append(n)
            if kept:
                postings[term] = kept.tobytes()
        self.blob_ids = [self.blob_ids[doc] for doc in live]
        self.lengths = [self.lengths[doc] for doc in live]
        self.docs = {oid: doc for doc, oid in enumerate(self.blob_ids)}
        self.postings = postings


def save_term_index(index: TermIndex, path: str | Path) -> None:
    """Persist in the layout above, in one write to a temporary file that
    then replaces the old one; the pairs go as held, in one join."""
    path = Path(path)
    width = len(next(iter(index.docs), "-"))
    if any(len(oid) != width for oid in index.docs):
        raise ValueError("blob ids of more than one width")
    names = "\n".join(index.postings).encode()
    pairs = index.postings.values()
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(b"".join([
        f"{TERM_INDEX_FORMAT_VERSION}\n".encode(),
        _uint32s([len(index.blob_ids), width, len(pairs), len(names)]),
        "".join(oid or "-" * width for oid in index.blob_ids).encode(), names,
        _uint32s(_NO_LENGTH if oid is None or n is None else n
                 for oid, n in zip(index.blob_ids, index.lengths)),
        _uint32s(len(held) // 8 for held in pairs),
        _little_endian(b"".join(pairs))]))
    tmp.replace(path)


def load_term_index(path: str | Path) -> TermIndex:
    """Read a saved index in one read and check all but each term's pairs,
    which a query or a purge checks when it reads them. Every error names
    the file."""
    path = Path(path)
    data = path.read_bytes()
    at = len(TERM_INDEX_FORMAT_VERSION) + 1

    def bad(problem: str) -> ValueError:
        return ValueError(f"{path}: {problem}")

    def take(size: int) -> bytes:
        nonlocal at
        if at + size > len(data):
            raise bad("the file is cut short")
        at += size
        return data[at - size:at]

    if data[:at] != f"{TERM_INDEX_FORMAT_VERSION}\n".encode():
        raise bad(f"not a {TERM_INDEX_FORMAT_VERSION} file; it is a cache "
                  f"of BM25 term counts, safe to delete")
    n_blobs, width, n_terms, names_size = _uint32s(take(16))
    table = take(n_blobs * width).decode("latin-1")
    index = TermIndex(str(path))
    index.blob_ids = [None if (oid := table[i:i + width]) == "-" * width
                      else oid for i in range(0, len(table), width or 1)]
    index.docs = {oid: doc for doc, oid in enumerate(index.blob_ids)
                  if oid is not None}
    if (len(index.docs) + index.blob_ids.count(None) != n_blobs or not
            re.fullmatch("(?:[0-9a-f]{%d}|-{%d})*" % (width, width), table)):
        raise bad(f"want {n_blobs} distinct blob ids of {width} hex digits")
    names = take(names_size)
    terms = names.decode("latin-1").split("\n") if names else []
    if (len(set(terms)) != n_terms or len(terms) != n_terms or "" in terms
            or not re.fullmatch(rb"[a-z0-9\n]*", names)):
        raise bad(f"want {n_terms} distinct term names of [a-z0-9]+")
    index.lengths = [None if n == _NO_LENGTH else n
                     for n in _uint32s(take(4 * n_blobs))]
    counts = _uint32s(take(4 * n_terms))
    if 0 in counts:
        raise bad(f"term {terms[counts.index(0)]!r} has no pairs")
    ends = list(accumulate(counts, initial=0))
    pairs = _little_endian(take(8 * ends[-1]))
    index.postings = {term: pairs[8 * start:8 * end]
                      for term, start, end in zip(terms, ends, ends[1:])}
    if at != len(data):
        raise bad(f"{len(data) - at} bytes follow the pairs")
    return index


@dataclass(frozen=True)
class MemoryEntry:
    summary: str  # a fresh summary, then one UPDATE: line per update
    updates: int  # the UPDATE: lines added since the fresh summary
    content: str  # the version the summary describes


EvolutionMemory = dict[str, MemoryEntry]  # path -> entry


def save_memory(memory: EvolutionMemory, path: str | Path) -> None:
    """Persist as a version line followed by one JSON record per file."""
    path = Path(path)
    lines = [MEMORY_FORMAT_VERSION]
    for file_path in sorted(memory):
        e = memory[file_path]
        lines.append(json.dumps({"path": file_path, "summary": e.summary,
                                 "updates": e.updates, "content": e.content},
                                ensure_ascii=True))
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tmp.replace(path)


def _memory_record(line: str) -> tuple[str, MemoryEntry]:
    """One saved record as (path, entry), its fields' types checked."""
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("not a JSON object")
    for key in ("path", "summary", "content"):
        if not isinstance(obj[key], str):
            raise ValueError(f"{key} is not a string")
    updates = obj["updates"]
    if type(updates) is not int or updates < 0:
        raise ValueError("updates is not an integer >= 0")
    return obj["path"], MemoryEntry(obj["summary"], updates, obj["content"])


def load_memory(path: str | Path) -> EvolutionMemory:
    """Read a saved memory. Every error names the file and line."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[0] != MEMORY_FORMAT_VERSION:
        raise ValueError(f"{path}:1: not a {MEMORY_FORMAT_VERSION} file; "
                         f"it is a cache of file summaries, safe to delete "
                         f"at the cost of summarizing each file afresh")
    memory: EvolutionMemory = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            file_path, entry = _memory_record(line)
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: bad memory record: {exc}") from exc
        memory[file_path] = entry
    return memory


@dataclass(frozen=True)
class LocateResult:
    candidates: tuple[str, ...]  # kept files, in BM25 rank order
    ranked: tuple[RankedFile, ...]  # full ranking
    files: dict[str, str]  # each candidate's text, from the top-k read


class Custodian:
    def __init__(self, gateway: Gateway, memory: EvolutionMemory | None = None):
        self.gateway = gateway
        self.memory = memory if memory is not None else {}
        self.notes: list[str] = []

    def summarize_file(self, path: str, content: str) -> str:
        """Summary of the file, reusing memory when possible.

        Branches: unchanged file -> stored summary, no LLM call; small
        change -> one commit-message call on the diff, summary extended;
        otherwise -> one fresh summarization call. The memory is only
        mutated after the LLM call succeeds.
        """
        entry = self.memory.get(path)
        if entry is not None and entry.content == content:
            return entry.summary

        if entry is not None and entry.updates < MAX_SUMMARY_UPDATES:
            diff_text = render_file_diff(compute_diff(entry.content, content, path))
            if len(diff_text) < len(content):
                message = self.gateway.complete_structured(
                    prompts.COMMIT_MESSAGE, {"diff": diff_text}, "plain_text")
                summary = f"{entry.summary}\nUPDATE: {message}"
                self.memory[path] = MemoryEntry(summary, entry.updates + 1,
                                                content)
                return summary

        summary = self.gateway.complete_structured(
            prompts.FILE_SUMMARY, {"path": path, "content": content}, "plain_text")
        self.memory[path] = MemoryEntry(summary, 0, content)
        return summary

    def summaries_of(self, files: Mapping[str, str]) -> dict[str, str]:
        """The remembered summary of each file whose entry describes the
        given text. Nothing is summarized, so a file the memory holds at
        another version, or not at all, gets none."""
        return {path: entry.summary for path, text in files.items()
                if (entry := self.memory.get(path)) and entry.content == text}

    def locate(self, documents: Documents, issue_text: str, k: int,
               read: Callable[[list[str]], Mapping[str, str]]
               ) -> LocateResult:
        """Rank all files (see rank_files and TermIndex.documents), then
        keep a top-k file unless the relevance check answers NO on its
        summary. ``read`` gives the contents of the top-k files, in one
        call. The top-k files are summarized and judged concurrently; their
        paths are distinct, so their memory entries are too. LLM trouble on
        one file keeps the file (fail-open) and records a note, in rank
        order; a replay cassette miss still raises, since that is a
        configuration error, not an LLM failure.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        ranked = rank_files(documents, issue_text)
        top = ranked[:k]
        contents = read([rf.path for rf in top])

        def judge(rf: RankedFile) -> bool | Exception:
            try:
                summary = self.summarize_file(rf.path, contents[rf.path])
                relevant = self.gateway.complete_structured(
                    prompts.RELEVANCE_DECISION,
                    {"issue": issue_text, "summary": summary},
                    "boolean_decision")
            except LLM_TROUBLE as exc:
                return exc
            return relevant

        candidates: list[str] = []
        for rf, verdict in zip(top, map_concurrently(judge, top)):
            if isinstance(verdict, Exception):
                self.notes.append(f"locate: {rf.path}: undetermined ({verdict})")
                log.warning("relevance undetermined for %s: %s", rf.path,
                            verdict)
                candidates.append(rf.path)
            elif verdict:
                candidates.append(rf.path)
        return LocateResult(candidates=tuple(candidates), ranked=tuple(ranked),
                            files={path: contents[path] for path in candidates})
