"""Structured unified diffs: model, compute, parse, render.

The model is line-based with git semantics. A "line" is text without its
``\\n`` delimiter (a ``\\r`` from a CRLF file stays part of the text, so
mixed-EOL files survive byte-exactly). A final line lacking the trailing
newline carries ``no_newline=True`` and renders as the
``\\ No newline at end of file`` marker.

Nothing here applies a diff: evaluation hands a patch's bytes to
``git apply`` (``gitops.apply_change``), so git alone decides whether it
applies.
"""

from __future__ import annotations

import difflib
import re
from dataclasses import dataclass, replace

from .errors import DiffParseError

CONTEXT_LINES = 3

_TAG_PREFIX = {"context": " ", "added": "+", "deleted": "-"}
_PREFIX_TAG = {" ": "context", "+": "added", "-": "deleted"}
_HUNK_RE = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@(?: (.*))?$")
_NO_NEWLINE = "\\ No newline at end of file"


def keyed_lines(text: str) -> list[str]:
    """Split into lines that keep their ``\\n``; a final unterminated line
    stays bare. ``"".join(keyed_lines(t)) == t`` always holds."""
    if text == "":
        return []
    parts = text.split("\n")
    last = parts.pop()
    keyed = [p + "\n" for p in parts]
    if last != "":
        keyed.append(last)
    return keyed


@dataclass(frozen=True)
class DiffLine:
    tag: str  # context | added | deleted
    text: str
    no_newline: bool = False

    def __post_init__(self):
        if self.tag not in _TAG_PREFIX:
            raise ValueError(f"bad diff line tag: {self.tag!r}")


@dataclass(frozen=True)
class Hunk:
    """One contiguous edited region. Starts are 1-based; a zero-length side
    uses the line *before* the range, matching unified-diff convention."""

    old_start: int
    old_len: int
    new_start: int
    new_len: int
    lines: tuple[DiffLine, ...]
    section: str = ""  # function-context text after the second @@

    def __post_init__(self):
        old = sum(1 for l in self.lines if l.tag in ("context", "deleted"))
        new = sum(1 for l in self.lines if l.tag in ("context", "added"))
        if old != self.old_len:
            raise ValueError(f"hunk old_len {self.old_len} != {old} context+deleted lines")
        if new != self.new_len:
            raise ValueError(f"hunk new_len {self.new_len} != {new} context+added lines")
        if min(self.old_start, self.old_len, self.new_start, self.new_len) < 0:
            raise ValueError("hunk ranges must be non-negative")

    def old_span(self) -> tuple[int, int]:
        """Inclusive 1-based range of old lines this hunk occupies; an
        insert-only hunk occupies the gap after ``old_start``."""
        if self.old_len:
            return self.old_start, self.old_start + self.old_len - 1
        return self.old_start + 1, self.old_start


def modified_old_range(hunk: Hunk) -> tuple[int, int]:
    """1-based (first, last) old-file line touched by the hunk.

    Deleted lines define the range; a pure insertion anchors to the line it
    follows (clamped to 1 for a top-of-file insert).
    """
    ln = hunk.old_start if hunk.old_len else hunk.old_start + 1
    touched: list[int] = []
    for line in hunk.lines:
        if line.tag == "context":
            ln += 1
        elif line.tag == "deleted":
            touched.append(ln)
            ln += 1
    if touched:
        return touched[0], touched[-1]
    anchor = max(hunk.old_start, 1)
    return anchor, anchor


@dataclass(frozen=True)
class FileDiff:
    old_path: str
    new_path: str
    hunks: tuple[Hunk, ...]
    is_new_file: bool = False
    is_deleted_file: bool = False
    # the file's git mode, as "new file mode" / "deleted file mode" give it
    mode: str = "100644"

    def __post_init__(self):
        prev_end = 0
        for h in self.hunks:
            lo, hi = h.old_span()
            if lo <= prev_end:
                raise ValueError(
                    f"hunks out of order or overlapping near old line {h.old_start}"
                )
            prev_end = max(hi, lo - 1)

    @property
    def path(self) -> str:
        """The path the diff targets on disk."""
        return self.old_path if self.is_deleted_file else self.new_path


@dataclass(frozen=True)
class CodeChange:
    file_diffs: tuple[FileDiff, ...] = ()

    def __post_init__(self):
        seen: set[str] = set()
        for fd in self.file_diffs:
            for p in {fd.old_path, fd.new_path}:
                if p in seen:
                    raise ValueError(f"duplicate path in change: {p}")
                seen.add(p)

    def is_empty(self) -> bool:
        return not any(fd.hunks or fd.is_new_file or fd.is_deleted_file
                       for fd in self.file_diffs)


def compute_diff(old_content: str, new_content: str, path: str) -> FileDiff:
    """Minimal line diff between two texts, 3 context lines, git-shaped
    hunk headers."""
    old_keyed = keyed_lines(old_content)
    new_keyed = keyed_lines(new_content)
    matcher = difflib.SequenceMatcher(a=old_keyed, b=new_keyed, autojunk=False)
    hunks: list[Hunk] = []
    for group in matcher.get_grouped_opcodes(CONTEXT_LINES):
        lines: list[DiffLine] = []
        for tag, i1, i2, j1, j2 in group:
            if tag == "equal":
                lines.extend(_diff_line("context", k) for k in old_keyed[i1:i2])
                continue
            if tag in ("replace", "delete"):
                lines.extend(_diff_line("deleted", k) for k in old_keyed[i1:i2])
            if tag in ("replace", "insert"):
                lines.extend(_diff_line("added", k) for k in new_keyed[j1:j2])
        old_lo, old_hi = group[0][1], group[-1][2]
        new_lo, new_hi = group[0][3], group[-1][4]
        old_len, new_len = old_hi - old_lo, new_hi - new_lo
        hunks.append(Hunk(
            old_start=old_lo + 1 if old_len else old_lo,
            old_len=old_len,
            new_start=new_lo + 1 if new_len else new_lo,
            new_len=new_len,
            lines=tuple(lines),
        ))
    return FileDiff(old_path=path, new_path=path, hunks=tuple(hunks))


def _diff_line(tag: str, keyed: str) -> DiffLine:
    if keyed.endswith("\n"):
        return DiffLine(tag, keyed[:-1])
    return DiffLine(tag, keyed, no_newline=True)


def _format_range(start: int, length: int) -> str:
    return str(start) if length == 1 else f"{start},{length}"


def render_file_diff(fd: FileDiff) -> str:
    out = [f"diff --git a/{fd.old_path} b/{fd.new_path}\n"]
    if fd.is_new_file:
        out.append(f"new file mode {fd.mode}\n")
    if fd.is_deleted_file:
        out.append(f"deleted file mode {fd.mode}\n")
    if fd.hunks:
        out.append(("--- /dev/null\n" if fd.is_new_file else f"--- a/{fd.old_path}\n"))
        out.append(("+++ /dev/null\n" if fd.is_deleted_file else f"+++ b/{fd.new_path}\n"))
    for h in fd.hunks:
        section = f" {h.section}" if h.section else ""
        out.append(f"@@ -{_format_range(h.old_start, h.old_len)} "
                   f"+{_format_range(h.new_start, h.new_len)} @@{section}\n")
        for line in h.lines:
            out.append(_TAG_PREFIX[line.tag] + line.text + "\n")
            if line.no_newline:
                out.append(_NO_NEWLINE + "\n")
    return "".join(out)


def render_change(change: CodeChange) -> str:
    """Serialize to git-apply-consumable unified-diff text."""
    return "".join(render_file_diff(fd) for fd in change.file_diffs)


def parse_diff(text: str) -> CodeChange:
    """Parse git unified-diff text into a CodeChange.

    Accepts patches with or without ``diff --git`` headers. Renames and
    binary patches are rejected. Errors carry the 1-based line number.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    pos = 0
    diffs: list[FileDiff] = []
    while pos < len(lines):
        if lines[pos] == "":
            pos += 1
            continue
        fd, pos = _parse_one_file(lines, pos)
        diffs.append(fd)
    return CodeChange(tuple(diffs))


def _parse_one_file(lines: list[str], pos: int) -> tuple[FileDiff, int]:
    is_new = is_deleted = False
    mode = "100644"
    old_path = new_path = None

    line = lines[pos]
    if line.startswith("diff --git "):
        header_line, header_pos = line, pos
        pos += 1
        # extended header lines until ---/+++ or the next file entry
        while pos < len(lines):
            line = lines[pos]
            if line.startswith("new file mode"):
                is_new = True
                mode = line.rsplit(" ", 1)[-1]
            elif line.startswith("deleted file mode"):
                is_deleted = True
                mode = line.rsplit(" ", 1)[-1]
            elif line.startswith(("rename from", "rename to", "similarity index")):
                raise DiffParseError("renames are not supported", pos + 1)
            elif line.startswith("GIT binary patch") or line.startswith("Binary files"):
                raise DiffParseError("binary patches are not supported", pos + 1)
            elif line.startswith(("index ", "old mode", "new mode")):
                pass
            else:
                break
            pos += 1
        if pos >= len(lines) or lines[pos].startswith("diff --git"):
            # header-only entry (e.g. empty new file); recover paths from
            # the diff --git line itself
            m = re.match(r"^diff --git a/(.+) b/(.+)$", header_line)
            if not m:
                raise DiffParseError("cannot recover paths from diff header",
                                     header_pos + 1)
            old_path, new_path = m.group(1), m.group(2)
            return FileDiff(old_path, new_path, (), is_new, is_deleted,
                            mode), pos
    elif not line.startswith("--- "):
        raise DiffParseError(f"unrecognized diff header: {line!r}", pos + 1)

    if pos >= len(lines) or not lines[pos].startswith("--- "):
        raise DiffParseError("expected '---' header", pos + 1)
    old_path = _parse_path_header(lines[pos], "--- ", "a/")
    pos += 1
    if pos >= len(lines) or not lines[pos].startswith("+++ "):
        raise DiffParseError("expected '+++' header", pos + 1)
    new_path = _parse_path_header(lines[pos], "+++ ", "b/")
    pos += 1

    if old_path is None:  # --- /dev/null
        is_new = True
        old_path = new_path
    if new_path is None:  # +++ /dev/null
        is_deleted = True
        new_path = old_path
    if old_path is None or new_path is None:
        raise DiffParseError("both sides of the diff are /dev/null", pos)

    hunks: list[Hunk] = []
    while pos < len(lines) and lines[pos].startswith("@@"):
        hunk, pos = _parse_hunk(lines, pos)
        hunks.append(hunk)
    try:
        return FileDiff(old_path, new_path, tuple(hunks), is_new, is_deleted,
                        mode), pos
    except ValueError as exc:
        raise DiffParseError(str(exc), pos) from exc


def _parse_path_header(line: str, marker: str, prefix: str) -> str | None:
    raw = line[len(marker):].split("\t")[0].strip()
    if raw == "/dev/null":
        return None
    if raw.startswith(prefix):
        return raw[len(prefix):]
    return raw


def _parse_hunk(lines: list[str], pos: int) -> tuple[Hunk, int]:
    m = _HUNK_RE.match(lines[pos])
    if not m:
        raise DiffParseError(f"malformed hunk header: {lines[pos]!r}", pos + 1)
    old_start = int(m.group(1))
    old_len = int(m.group(2)) if m.group(2) is not None else 1
    new_start = int(m.group(3))
    new_len = int(m.group(4)) if m.group(4) is not None else 1
    section = m.group(5) or ""
    pos += 1

    body: list[DiffLine] = []
    old_left, new_left = old_len, new_len
    while old_left > 0 or new_left > 0 or (pos < len(lines) and lines[pos].startswith("\\")):
        if pos >= len(lines):
            raise DiffParseError("hunk ends before declared length", pos)
        raw = lines[pos]
        if raw.startswith("\\"):
            if not body:
                raise DiffParseError("newline marker with no preceding line", pos + 1)
            body[-1] = replace(body[-1], no_newline=True)
            pos += 1
            continue
        prefix, text = (raw[0], raw[1:]) if raw else (" ", "")
        tag = _PREFIX_TAG.get(prefix)
        if tag is None:
            raise DiffParseError(f"unexpected line in hunk: {raw!r}", pos + 1)
        if tag in ("context", "deleted"):
            old_left -= 1
        if tag in ("context", "added"):
            new_left -= 1
        if old_left < 0 or new_left < 0:
            raise DiffParseError("hunk body longer than declared length", pos + 1)
        body.append(DiffLine(tag, text))
        pos += 1
    try:
        return Hunk(old_start, old_len, new_start, new_len, tuple(body), section), pos
    except ValueError as exc:
        raise DiffParseError(str(exc), pos) from exc
