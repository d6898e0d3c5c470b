"""Workspaces: isolated checkouts of a pinned revision, and atomic patch
application against them.

A snapshot clones the source repository into a fresh directory and
detaches HEAD at the requested revision; the source repository is never
written to, and ``destroy`` removes the snapshot again. Application is
all-or-nothing per change: every file's new content is computed in memory
first, and nothing touches disk unless every file applies cleanly, so a
failed apply leaves the workspace byte-identical.
"""

from __future__ import annotations

import logging
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .diffs import CodeChange, PatchApplyError, apply_file_diff
from .errors import GitError

log = logging.getLogger(__name__)


def _git(args: list[str], cwd: str | Path) -> str:
    try:
        proc = subprocess.run(["git", *args], cwd=str(cwd), text=True,
                              capture_output=True, check=False)
    except FileNotFoundError as exc:
        raise GitError("git executable not found") from exc
    if proc.returncode != 0:
        raise GitError(f"git {' '.join(args)} failed: {proc.stderr.strip()}")
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
    return out.strip()


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
        _git(["clone", "--quiet", str(Path(repo_path).resolve()), str(target)],
             dest)
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

    A mismatch anywhere makes the whole change not-applied and leaves every
    file untouched. The returned status carries per-file outcomes; a
    mismatch is a result, not an exception, because unappliable changes are
    an expected measurement outcome.
    """
    staged: list[tuple[Path, str | None]] = []
    results: list[FileApplyResult] = []
    ok = True
    for fd in change.file_diffs:
        rel = Path(fd.path)
        if rel.is_absolute() or ".." in rel.parts:
            results.append(FileApplyResult(fd.path, False, "unsafe path"))
            ok = False
            continue
        target = workspace.path / rel
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
