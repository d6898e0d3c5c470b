"""Repository custodian: rank files against an issue, keep cheap summaries.

Ranking is plain BM25 (k1=1.2, b=0.75) over file contents with the file's
own path tokens appended once per document, since issues often name modules
outright. BM25 needs only each document's term counts and length, so it
ranks from a TermIndex: the term counts of each file's content, kept by
the git blob id that names that content. The index follows the evolution
memory's idea: it persists next to the memory (``<memory-path>.bm25``), so
a new revision tokenizes only the blobs that changed, and a file's content
is read only when a summary or a later stage needs it.

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
from collections import Counter
from collections.abc import Callable, Mapping
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
TERM_INDEX_FORMAT_VERSION = "bm25-term-index-v1"

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


def term_counts(text: str) -> Counter[str]:
    """How often each term of the text occurs in it."""
    return Counter(tokenize(text))


def rank_files(documents: Mapping[str, Mapping[str, int]],
               issue_text: str) -> list[RankedFile]:
    """Score every file against the issue text with BM25, given each
    file's path and the term counts of its content.

    The path's own terms count once more, added here. IDF is
    ln((N - n_t + 0.5) / (n_t + 0.5) + 1). Repeated query terms contribute
    once per occurrence, summed in query order. Ties break by ascending
    path.
    """
    if not documents:
        raise ValueError("rank_files needs at least one file")
    if not issue_text.strip():
        raise ValueError("rank_files needs non-empty issue text")

    query = tokenize(issue_text)
    wanted = set(query)
    # per document: its length and the counts of the query's terms in it
    docs: list[tuple[str, int, dict[str, int]]] = []
    doc_freq: Counter[str] = Counter()
    total_len = 0
    for path, counts in documents.items():
        path_terms = tokenize(path)
        tf = {term: counts[term] for term in wanted if term in counts}
        for term in path_terms:
            if term in wanted:
                tf[term] = tf.get(term, 0) + 1
        dl = sum(counts.values()) + len(path_terms)
        docs.append((path, dl, tf))
        doc_freq.update(tf.keys())
        total_len += dl
    n_docs = len(docs)
    avg_len = total_len / n_docs
    if avg_len == 0:
        avg_len = 1.0
    idf = {term: math.log((n_docs - n + 0.5) / (n + 0.5) + 1.0)
           for term, n in doc_freq.items()}

    scores: dict[str, float] = {}
    for path, dl, tf in docs:
        score = 0.0
        norm = 1 - BM25_B + BM25_B * dl / avg_len
        for term in query:
            f = tf.get(term, 0)
            if f == 0:
                continue
            score += idf[term] * f * (BM25_K1 + 1) / (f + BM25_K1 * norm)
        scores[path] = score

    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [RankedFile(path=p, bm25_score=s, rank=i + 1)
            for i, (p, s) in enumerate(ordered)]


class TermIndex:
    """git blob id -> the term counts of the blob's content, or None for a
    blob that is not UTF-8 text, so that it is not read again. A blob id
    names the exact content, so an entry never goes stale."""

    def __init__(self):
        self.blobs: dict[str, dict[str, int] | None] = {}

    def update(self, listing: Mapping[str, str],
               read: Callable[[list[str]], Mapping[str, str]]) -> bool:
        """Bring the index to a listing of path -> blob id: count the terms
        of each blob it does not know, reading one path per such blob, and
        drop every blob the listing does not name, so the index never holds
        more blobs than one revision has. ``read`` gives the UTF-8 contents
        of the paths it is asked for. Returns whether a blob was added or
        dropped."""
        unknown = {oid: path for path, oid in listing.items()
                   if oid not in self.blobs}
        texts = read(list(unknown.values()))
        shared: dict[str, str] = {}  # one string per term across these blobs
        for oid, path in unknown.items():
            text = texts.get(path)
            self.blobs[oid] = None if text is None else {
                shared.setdefault(term, term): n
                for term, n in term_counts(text).items()}
        held = len(self.blobs)
        self.blobs = {oid: self.blobs[oid] for oid in listing.values()}
        return bool(unknown) or len(self.blobs) < held

    def documents(self, listing: Mapping[str, str]
                  ) -> dict[str, dict[str, int]]:
        """path -> content term counts, for each listed path of UTF-8
        text; the input rank_files takes."""
        return {path: counts for path, oid in listing.items()
                if (counts := self.blobs[oid]) is not None}


def save_term_index(index: TermIndex, path: str | Path) -> None:
    """Persist as a version line followed by one JSON record per blob,
    written to a temporary file that then replaces the old one."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("w", encoding="utf-8") as out:
        out.write(TERM_INDEX_FORMAT_VERSION + "\n")
        out.writelines(
            json.dumps({"blob": oid, "terms": terms}, ensure_ascii=True,
                       separators=(",", ":")) + "\n"
            for oid, terms in index.blobs.items())
    tmp.replace(path)


def load_term_index(path: str | Path) -> TermIndex:
    path = Path(path)
    with path.open(encoding="utf-8") as lines:
        if lines.readline().rstrip("\n") != TERM_INDEX_FORMAT_VERSION:
            raise ValueError(f"{path}: not a {TERM_INDEX_FORMAT_VERSION} file")
        numbered = [(lineno, line) for lineno, line
                    in enumerate(lines, start=2) if line.strip()]
    # one parse of all records interns the terms: within one call, json
    # gives every repeat of a key the string object it made first. Where
    # that parse fails, each line is parsed alone, to name the bad one.
    try:
        records = json.loads("[" + ",".join(line for _, line in numbered)
                             + "]")
    except ValueError:
        records = []
    if len(records) != len(numbered):
        records = [None] * len(numbered)
    index = TermIndex()
    for (lineno, line), obj in zip(numbered, records):
        try:
            obj = obj or json.loads(line)
            terms = obj["terms"]
            # the sum of counts is an int only if every count is one
            if terms is not None and type(sum(terms.values())) is not int:
                raise ValueError("term counts must be integers")
            index.blobs[obj["blob"]] = terms
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ValueError(f"{path}:{lineno}: bad term index record: "
                             f"{exc}") from exc
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

    def locate(self, documents: Mapping[str, Mapping[str, int]],
               issue_text: str, k: int,
               read: Callable[[list[str]], Mapping[str, str]]
               ) -> LocateResult:
        """Rank all files (path -> content term counts, see rank_files),
        then keep a top-k file unless the relevance check answers NO on its
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
