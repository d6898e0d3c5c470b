"""The repository at a pinned revision: its files read straight from git's
object store, isolated checkouts of it, and atomic patch application
against those checkouts.

``list_repo_files`` lists the revision's tree as path -> blob id, and
``read_repo_files`` streams the contents of just the blobs a caller asks
for through one ``git cat-file --batch`` process. A blob id names the
exact content, so a caller can keep what it derived from a blob under its
id and never read that blob again. Nothing is written to disk, so locating
files needs no checkout. A snapshot clones the source repository
into a fresh directory and checks out the requested revision, detached;
the source repository is never written to, and ``destroy`` removes the
snapshot again. Application is all-or-nothing per change: every file's new
content is computed in memory first, and nothing touches disk unless every
file applies cleanly, so a failed apply leaves the workspace
byte-identical. No path of a change may lead out of the workspace, through
``..`` or through a symlink the repository commits.
"""

from __future__ import annotations

import logging
import os
import shutil
import subprocess
import tempfile
import threading
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

from .diffs import CodeChange, PatchApplyError, apply_file_diff
from .errors import GitError

log = logging.getLogger(__name__)

# ls-tree modes of regular files; symlinks (120000) and gitlinks (160000)
# have no text of their own to rank.
_FILE_MODES = (b"100644", b"100755")


def _git(args: list[str], cwd: str | Path) -> bytes:
    try:
        proc = subprocess.run(["git", *args], cwd=str(cwd),
                              capture_output=True, check=False)
    except FileNotFoundError as exc:
        raise GitError("git executable not found") from exc
    if proc.returncode != 0:
        raise GitError(f"git {' '.join(args)} failed: "
                       f"{proc.stderr.decode(errors='replace').strip()}")
    return proc.stdout


def verify_revision(repo_path: str | Path, revision: str) -> str:
    """Resolve a revision to a full commit hash, or raise naming it."""
    repo = Path(repo_path)
    if not (repo / ".git").exists():
        raise GitError(f"{repo} is not a git repository")
    try:
        out = _git(["rev-parse", "--verify", f"{revision}^{{commit}}"], repo)
    except GitError as exc:
        raise GitError(f"revision {revision!r} not resolvable in {repo}: "
                       f"{exc}") from exc
    return out.decode().strip()


def list_repo_files(repo_path: str | Path, revision: str) -> dict[str, str]:
    """Every regular file of the revision: its repo-relative posix path and
    the git blob id of its content, in the order a sorted walk of a
    checkout would give. Symlinks and gitlinks are left out. Every git
    failure raises GitError."""
    repo = Path(repo_path)
    sha = verify_revision(repo, revision)
    listing = _git(["ls-tree", "-r", "-z", "--full-tree", sha], repo)
    blobs: list[tuple[str, str]] = []
    for entry in listing.split(b"\0")[:-1]:
        meta, path = entry.split(b"\t", 1)
        mode, _, oid = meta.split(b" ")
        if mode in _FILE_MODES:
            blobs.append((os.fsdecode(path), oid.decode()))
    # a checkout walk orders by path components; git's tree order differs
    # (it sorts "a-b" before the directory "a/")
    blobs.sort(key=lambda blob: blob[0].split("/"))
    return dict(blobs)


def read_repo_files(repo_path: str | Path,
                    blobs: Mapping[str, str]) -> dict[str, str]:
    """The content of each given blob, path -> blob id as list_repo_files
    gives them, keyed by path in the order given. A blob that does not
    decode as UTF-8 is left out.

    Contents are the committed blobs, what ``git show <rev>:<path>``
    prints. They differ from a checkout's files only where
    ``.gitattributes`` or ``core.autocrlf`` makes checkout convert them,
    and then they are the content ``git diff`` compares. No blobs start no
    git process. Every git failure raises GitError.
    """
    files: dict[str, str] = {}
    if not blobs:
        return files
    # cat-file answers each object id with "<oid> blob <size>\n", the
    # content and "\n"; a thread feeds the ids while this one reads, so
    # neither pipe fills up and no output is held beyond one blob
    try:
        proc = subprocess.Popen(["git", "cat-file", "--batch"],
                                cwd=str(repo_path), stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    except FileNotFoundError as exc:
        raise GitError("git executable not found") from exc
    with proc:  # closes the pipes and reaps the process, also on error
        feeder = threading.Thread(
            target=_feed, args=(proc.stdin, "".join(
                oid + "\n" for oid in blobs.values()).encode()))
        feeder.start()
        try:
            for path in blobs:
                header = proc.stdout.readline().split()
                if header[1:2] != [b"blob"]:
                    reply = b" ".join(header).decode() or "no output"
                    raise _cat_file_error(proc, f"{path}: {reply}")
                size = int(header[2])
                data = proc.stdout.read(size)
                if len(data) != size or proc.stdout.read(1) != b"\n":
                    raise _cat_file_error(proc, f"{path}: output ends early")
                try:
                    files[path] = data.decode("utf-8")
                except UnicodeDecodeError:
                    log.debug("skipping undecodable file %s", path)
            if proc.wait() != 0:
                raise _cat_file_error(proc, f"exit status {proc.returncode}")
        finally:
            if proc.poll() is None:
                proc.kill()
            feeder.join()
    return files


def _feed(pipe, data: bytes) -> None:
    """Write data to a child's stdin and close it. A child that dies first
    breaks the pipe; the reader of its output reports why."""
    try:
        with pipe:
            pipe.write(data)
    except BrokenPipeError:
        pass


def _cat_file_error(proc: subprocess.Popen, detail: str) -> GitError:
    """Stop cat-file and describe its failure, with its stderr."""
    proc.kill()
    proc.wait()
    err = proc.stderr.read().decode(errors="replace").strip()
    return GitError(f"git cat-file --batch failed: {detail}"
                    + (f": {err}" if err else ""))


@dataclass(frozen=True)
class Workspace:
    path: Path
    revision: str  # full commit hash


def snapshot(repo_path: str | Path, revision: str,
             root: str | Path | None = None) -> Workspace:
    """Clean working tree of the repository at the revision, in its own
    directory under root (the system temp directory by default). Two
    snapshots never share a directory. A failed git step removes the
    directory before the error propagates."""
    sha = verify_revision(repo_path, revision)
    dest = Path(tempfile.mkdtemp(prefix="ws-", dir=root)).resolve()
    target = dest / "repo"
    try:
        # clone writes no files, so the checkout of sha is the only one
        _git(["clone", "--quiet", "--no-checkout",
              str(Path(repo_path).resolve()), str(target)], dest)
        _git(["checkout", "--quiet", "--detach", sha], target)
    except BaseException:
        shutil.rmtree(dest, ignore_errors=True)
        raise
    return Workspace(path=target, revision=sha)


def destroy(workspace: Workspace) -> None:
    shutil.rmtree(workspace.path.parent, ignore_errors=True)


@dataclass(frozen=True)
class FileApplyResult:
    path: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class ApplyStatus:
    applied: bool
    file_results: tuple[FileApplyResult, ...]

    def failure_detail(self) -> str:
        return "; ".join(f"{r.path}: {r.detail}" for r in self.file_results
                         if not r.ok)


def apply_change(workspace: Workspace, change: CodeChange) -> ApplyStatus:
    """Apply a change to the workspace atomically.

    A path that is absolute, holds ``..``, or resolves (through symlinks)
    to a place outside the workspace is refused as an unsafe path. A
    mismatch anywhere makes the whole change not-applied and leaves every
    file untouched. The returned status carries per-file outcomes; a
    mismatch is a result, not an exception, because unappliable changes are
    an expected measurement outcome.
    """
    root = workspace.path.resolve()
    staged: list[tuple[Path, str | None]] = []
    results: list[FileApplyResult] = []
    ok = True
    for fd in change.file_diffs:
        rel = Path(fd.path)
        target = workspace.path / rel
        # a symlink the repository commits (lib -> /elsewhere) would
        # otherwise carry a write out of the workspace
        if rel.is_absolute() or ".." in rel.parts \
                or not target.resolve().is_relative_to(root):
            results.append(FileApplyResult(fd.path, False, "unsafe path"))
            ok = False
            continue
        old_content: str | None = None
        if target.exists():
            try:
                old_content = target.read_bytes().decode("utf-8")
            except UnicodeDecodeError:
                results.append(FileApplyResult(fd.path, False,
                                               "target is not utf-8 text"))
                ok = False
                continue
        try:
            new_content = apply_file_diff(old_content, fd)
        except PatchApplyError as exc:
            results.append(FileApplyResult(fd.path, False, str(exc)))
            ok = False
            continue
        staged.append((target, new_content))
        results.append(FileApplyResult(fd.path, True))

    if not ok:
        return ApplyStatus(applied=False, file_results=tuple(results))

    for target, new_content in staged:
        if new_content is None:
            target.unlink()
        else:
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(new_content.encode("utf-8"))
    return ApplyStatus(applied=True, file_results=tuple(results))
