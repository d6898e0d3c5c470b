"""Repository custodian: rank files against an issue, keep cheap summaries.

Ranking is plain BM25 (k1=1.2, b=0.75) over file contents with the file's
own path tokens appended once per document, since issues often name modules
outright.

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


def rank_files(repo_files: dict[str, str], issue_text: str) -> list[RankedFile]:
    """Score every file against the issue text with BM25.

    IDF is ln((N - n_t + 0.5) / (n_t + 0.5) + 1). Repeated query terms
    contribute once per occurrence. Ties break by ascending path.
    """
    if not repo_files:
        raise ValueError("rank_files needs at least one file")
    if not issue_text.strip():
        raise ValueError("rank_files needs non-empty issue text")

    # one term-frequency Counter and one length per document, not its tokens
    docs: dict[str, tuple[Counter[str], int]] = {}
    doc_freq: Counter[str] = Counter()
    for path, content in repo_files.items():
        terms = tokenize(content) + tokenize(path)
        tf = Counter(terms)
        docs[path] = (tf, len(terms))
        doc_freq.update(tf.keys())
    n_docs = len(docs)
    avg_len = sum(dl for _, dl in docs.values()) / n_docs
    if avg_len == 0:
        avg_len = 1.0

    query = tokenize(issue_text)
    scores: dict[str, float] = {}
    for path, (tf, dl) in docs.items():
        score = 0.0
        for term in query:
            f = tf.get(term, 0)
            if f == 0:
                continue
            idf = math.log((n_docs - doc_freq[term] + 0.5)
                           / (doc_freq[term] + 0.5) + 1.0)
            norm = 1 - BM25_B + BM25_B * dl / avg_len
            score += idf * f * (BM25_K1 + 1) / (f + BM25_K1 * norm)
        scores[path] = score

    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [RankedFile(path=p, bm25_score=s, rank=i + 1)
            for i, (p, s) in enumerate(ordered)]


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

    def locate(self, repo_files: dict[str, str], issue_text: str,
               k: int) -> LocateResult:
        """Rank all files, then keep a top-k file unless the relevance
        check answers NO on its summary. The top-k files are summarized and
        judged concurrently; their paths are distinct, so their memory
        entries are too. LLM trouble on one file keeps the file (fail-open)
        and records a note, in rank order; a replay cassette miss still
        raises, since that is a configuration error, not an LLM failure.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        ranked = rank_files(repo_files, issue_text)
        self.bm25_calls += 1
        top = ranked[:k]

        def judge(rf: RankedFile) -> bool | Exception:
            try:
                summary = self.summarize_file(rf.path, repo_files[rf.path])
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
