"""Repository custodian: rank files against an issue, keep cheap summaries.

Ranking is plain BM25 (k1=1.2, b=0.75) over file contents with the file's
own path tokens appended once per document, since issues often name modules
outright. BM25 needs only each document's length and the counts of the
query's own terms, so it ranks from a TermIndex: an inverted file that
keeps, per term, the document numbers of the git blobs that hold it and
its count in each. The index follows the evolution memory's idea: it
persists next to the memory (``<memory-path>.bm25``), so a new revision
tokenizes only the blobs that changed, a query parses only the postings
of its own terms, and a file's content is read only when a summary or a
later stage needs it.

Summaries are memoized in an EvolutionMemory so a file is fully
re-summarized at most once while it stays unchanged. When a file changes a
little (its diff is shorter than the new content), the stored summary is
extended with a one-line update derived from the diff instead of paying for
a fresh summarization. After 5 such updates, or when the change is large,
the summary is rebuilt fresh.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import re
from array import array
from collections import Counter
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

from . import prompts
from .diffs import compute_diff, render_file_diff
from .errors import LLM_TROUBLE
from .llm import Gateway, map_concurrently

log = logging.getLogger(__name__)

BM25_K1 = 1.2
BM25_B = 0.75
MAX_LINEAGE_UPDATES = 5
MEMORY_FORMAT_VERSION = "evolution-memory-v1"
TERM_INDEX_FORMAT_VERSION = "bm25-term-index-v2"

# a run of capitals then a run of lowercase letters and digits: camelCase
# splits before each capital that follows a lowercase letter or digit, and
# any other character ends the term
_TERM = re.compile(r"[A-Z]*[a-z0-9]*")


def tokenize(text: str) -> list[str]:
    """Lowercased terms: split on punctuation, underscores, and camelCase
    boundaries; keep terms of length >= 2; preserve duplicates."""
    return [term.lower() for term in _TERM.findall(text) if len(term) >= 2]


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


# A saved index: the version line, one line per document number (the blob
# id and its content length in terms, "-" for a blob that is not UTF-8
# text; a bare "-" for the number of a blob that is gone), a blank line,
# then one line per term: the term and its postings, "<doc>:<count>" pairs
# in ascending document order. Terms are [a-z0-9]+ (see tokenize), so
# neither a space nor a colon can occur in one.
_BLOB_LINE = re.compile(r"([0-9a-f]+) ([0-9]+|-)|-")
_TERM_LINE = re.compile(r"([a-z0-9]+) (\S.*)")
_POSTINGS = re.compile(r"[0-9]+:[0-9]+(?: [0-9]+:[0-9]+)*")


def _postings_text(pairs: array) -> str:
    """doc, count, doc, count, ... as a saved term line's postings."""
    return ("%d:%d " * (len(pairs) // 2) % tuple(pairs))[:-1]


class TermIndex:
    """BM25's inverted file over git blobs. Each blob the index has seen
    gets a document number; each term keeps its postings, the document
    numbers of the blobs that hold it with its count in each. A blob id
    names the exact content, so a posting never goes stale.

    A term's postings stay as one text (as loaded) or one array of doc,
    count pairs (as counted), never one object per posting, and a text is
    parsed and checked only when a query or a purge needs that term. A
    blob that leaves the listing leaves the blob table, but its number
    stays in the postings, skipped, until numbers of gone blobs outnumber
    live ones; then a purge drops them and renumbers the rest in order.
    """

    def __init__(self):
        self.docs: dict[str, int] = {}  # live blob id -> document number
        self.blob_ids: list[str | None] = []  # None once the blob is gone
        # content length in terms; None for a blob that is not UTF-8 text,
        # so that it is not read again
        self.lengths: list[int | None] = []
        self.postings: dict[str, str | array] = {}
        self.source = "term index"  # what errors name: the loaded file
        self.lines: dict[str, int] = {}  # term -> its line in that file

    def update(self, listing: Mapping[str, str],
               read: Callable[[list[str]], Mapping[str, str]]) -> bool:
        """Bring the index to a listing of path -> blob id: count the terms
        of each blob it does not know, reading one path per such blob, and
        append their postings; every blob the listing does not name leaves
        the blob table. ``read`` gives the UTF-8 contents of the paths it
        is asked for. Returns whether a blob was added or dropped."""
        unknown = {oid: path for path, oid in listing.items()
                   if oid not in self.docs}
        texts = read(list(unknown.values()))
        added: dict[str, array] = {}  # term -> doc, count, ... of new blobs
        for oid, path in unknown.items():
            doc = len(self.blob_ids)
            self.docs[oid] = doc
            self.blob_ids.append(oid)
            text = texts.get(path)
            if text is None:
                self.lengths.append(None)
                continue
            terms = tokenize(text)
            self.lengths.append(len(terms))
            for term, n in Counter(terms).items():
                pairs = added.get(term)
                if pairs is None:
                    added[term] = pairs = array("I")
                pairs.append(doc)
                pairs.append(n)
        for term, pairs in added.items():
            held = self.postings.get(term)
            if held is None:
                self.postings[term] = pairs
            elif isinstance(held, array):
                held.extend(pairs)
            else:
                self.postings[term] = f"{held} {_postings_text(pairs)}"
        listed = set(listing.values())
        gone = [oid for oid in self.docs if oid not in listed]
        for oid in gone:
            self.blob_ids[self.docs.pop(oid)] = None
        if len(self.blob_ids) - len(self.docs) > len(self.docs):
            self._purge()
        return bool(unknown or gone)

    def documents(self, listing: Mapping[str, str]) -> Documents:
        """The listed paths of UTF-8 text, as rank_files takes them. A
        term's postings are parsed when rank_files asks for that term."""
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

    def _pairs(self, term: str) -> Sequence[int]:
        """The term's postings as doc, count, doc, count, ...; a loaded
        text is checked here, when it is first needed."""
        held = self.postings.get(term, ())
        if not isinstance(held, str):
            return held
        if not _POSTINGS.fullmatch(held):
            problem = "postings are not <doc>:<count> pairs"
        else:
            pairs = [int(n) for n in held.replace(":", " ").split(" ")]
            docs = pairs[::2]
            if sorted(set(docs)) != docs:
                problem = "document numbers do not ascend"
            elif docs[-1] >= len(self.blob_ids):
                problem = (f"document {docs[-1]} is past the "
                           f"{len(self.blob_ids)} blob lines")
            elif 0 in pairs[1::2]:
                problem = "a count is 0"
            else:
                return pairs
        line = self.lines.get(term)
        where = self.source if line is None else f"{self.source}:{line}"
        raise ValueError(f"{where}: bad postings of term {term!r}: {problem}")

    def _purge(self) -> None:
        """Drop the numbers of gone blobs from every term's postings and
        renumber the documents densely, keeping their order."""
        live = [doc for doc, oid in enumerate(self.blob_ids)
                if oid is not None]
        number: list[int | None] = [None] * len(self.blob_ids)
        for new, doc in enumerate(live):
            number[doc] = new
        postings: dict[str, str | array] = {}
        for term in self.postings:
            pairs = self._pairs(term)
            kept = array("I")
            for doc, n in zip(pairs[::2], pairs[1::2]):
                if number[doc] is not None:
                    kept.append(number[doc])
                    kept.append(n)
            if kept:
                postings[term] = kept
        self.blob_ids = [self.blob_ids[doc] for doc in live]
        self.lengths = [self.lengths[doc] for doc in live]
        self.docs = {oid: doc for doc, oid in enumerate(self.blob_ids)}
        self.postings = postings
        self.lines = {}


def save_term_index(index: TermIndex, path: str | Path) -> None:
    """Persist in the layout above, written to a temporary file that then
    replaces the old one."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("w", encoding="utf-8") as out:
        out.write(TERM_INDEX_FORMAT_VERSION + "\n")
        out.writelines(
            "-\n" if oid is None
            else f"{oid} {'-' if length is None else length}\n"
            for oid, length in zip(index.blob_ids, index.lengths))
        out.write("\n")
        for term, held in index.postings.items():
            if not isinstance(held, str):
                held = _postings_text(held)
            out.write(f"{term} {held}\n")
    tmp.replace(path)


def load_term_index(path: str | Path) -> TermIndex:
    """Read a saved index. The version, every blob line and the shape of
    every term line are checked here; a term's postings when a query or a
    purge first parses them. Every error names the file and line."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").split("\n")

    def bad(lineno: int, problem: str) -> ValueError:
        return ValueError(f"{path}:{lineno}: {problem}")

    if lines[0] != TERM_INDEX_FORMAT_VERSION:
        raise bad(1, f"not a {TERM_INDEX_FORMAT_VERSION} file; it is a "
                     f"cache of BM25 term counts, safe to delete")
    if lines[-1] != "":
        raise bad(len(lines), "the file ends without a newline")
    try:
        blank = lines.index("", 1, len(lines) - 1)
    except ValueError:
        blank = len(lines) - 1
    index = TermIndex()
    index.source = str(path)
    for doc, line in enumerate(lines[1:blank]):
        match = _BLOB_LINE.fullmatch(line)
        if match is None or match[1] in index.docs:
            raise bad(doc + 2, f"bad blob line {line!r}: want '<blob id> "
                               f"<length>', '<blob id> -' or '-'")
        oid, length = match.groups()
        if oid is not None:
            index.docs[oid] = doc
        index.blob_ids.append(oid)
        index.lengths.append(None if length in (None, "-") else int(length))
    if blank == len(lines) - 1:
        raise bad(blank + 1, "no blank line after the blob lines")
    for lineno, line in enumerate(lines[blank + 1:-1], start=blank + 2):
        match = _TERM_LINE.fullmatch(line)
        if match is None or match[1] in index.postings:
            raise bad(lineno, f"bad term line {line[:60]!r}: want one "
                              f"'<term> <doc>:<count> ...' line per term")
        index.postings[match[1]] = match[2]
        index.lines[match[1]] = lineno
    return index


def content_hash(content: str) -> str:
    return hashlib.sha256(content.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class MemoryEntry:
    content_hash: str
    summary: str
    lineage: tuple[tuple[str, str], ...]  # (content_hash, commit_message)
    content: str  # snapshot of the version the summary describes

    def __post_init__(self):
        hashes = [h for h, _ in self.lineage]
        if len(set(hashes)) != len(hashes):
            raise ValueError("lineage hashes must be distinct")
        if self.lineage and self.lineage[-1][0] != self.content_hash:
            raise ValueError("summary must correspond to the newest lineage hash")


class EvolutionMemory:
    """path -> MemoryEntry."""

    def __init__(self):
        self.entries: dict[str, MemoryEntry] = {}

    def get(self, path: str) -> MemoryEntry | None:
        return self.entries.get(path)

    def put(self, path: str, entry: MemoryEntry) -> None:
        self.entries[path] = entry


def save_memory(memory: EvolutionMemory, path: str | Path) -> None:
    """Persist as a version line followed by one JSON record per file."""
    path = Path(path)
    lines = [MEMORY_FORMAT_VERSION]
    for file_path in sorted(memory.entries):
        e = memory.entries[file_path]
        lines.append(json.dumps({
            "path": file_path,
            "content_hash": e.content_hash,
            "summary": e.summary,
            "lineage": [list(pair) for pair in e.lineage],
            "content": e.content,
        }, ensure_ascii=True))
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tmp.replace(path)


def load_memory(path: str | Path) -> EvolutionMemory:
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    if not lines or lines[0] != MEMORY_FORMAT_VERSION:
        raise ValueError(f"{path}: not a {MEMORY_FORMAT_VERSION} file")
    memory = EvolutionMemory()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            entry = MemoryEntry(
                content_hash=obj["content_hash"],
                summary=obj["summary"],
                lineage=tuple((h, m) for h, m in obj["lineage"]),
                content=obj["content"],
            )
            memory.entries[obj["path"]] = entry
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: bad memory record: {exc}") from exc
    return memory


@dataclass(frozen=True)
class LocateResult:
    candidates: tuple[str, ...]  # kept files, in BM25 rank order
    ranked: tuple[RankedFile, ...]  # full ranking


class Custodian:
    def __init__(self, gateway: Gateway, memory: EvolutionMemory | None = None):
        self.gateway = gateway
        self.memory = memory if memory is not None else EvolutionMemory()
        self.notes: list[str] = []
        self.bm25_calls = 0

    def summarize_file(self, path: str, content: str) -> str:
        """Summary of the file, reusing memory when possible.

        Branches: unchanged file -> stored summary, no LLM call; small
        change -> one commit-message call on the diff, summary extended;
        otherwise -> one fresh summarization call. The memory is only
        mutated after the LLM call succeeds.
        """
        digest = content_hash(content)
        entry = self.memory.get(path)
        if entry is not None and entry.content_hash == digest:
            return entry.summary

        if entry is not None and len(entry.lineage) - 1 < MAX_LINEAGE_UPDATES:
            diff_text = render_file_diff(compute_diff(entry.content, content, path))
            if len(diff_text) < len(content):
                message = self.gateway.complete_structured(
                    prompts.COMMIT_MESSAGE, {"diff": diff_text}, "plain_text")
                summary = f"{entry.summary}\nUPDATE: {message}"
                self.memory.put(path, MemoryEntry(
                    content_hash=digest,
                    summary=summary,
                    lineage=entry.lineage + ((digest, message),),
                    content=content,
                ))
                return summary

        summary = self.gateway.complete_structured(
            prompts.FILE_SUMMARY, {"path": path, "content": content}, "plain_text")
        self.memory.put(path, MemoryEntry(
            content_hash=digest,
            summary=summary,
            lineage=((digest, ""),),
            content=content,
        ))
        return summary

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
        self.bm25_calls += 1
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
        return LocateResult(candidates=tuple(candidates), ranked=tuple(ranked))
