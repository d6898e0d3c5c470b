"""The repository at a pinned revision: its files read straight from git's
object store, isolated checkouts of it, and patch application in those
checkouts by ``git apply``.

``list_repo_files`` lists the revision's tree as path -> blob id, and
``iter_repo_files`` streams the contents of just the blobs a caller asks
for through one ``git cat-file --batch`` process, one blob at a time;
``read_repo_files`` collects that stream into a dict. A blob id names the
exact content, so a caller can keep what it derived from a blob under its
id and never read that blob again. No content is written to disk, so
locating files needs no checkout. A snapshot clones the source repository
into a fresh directory and checks out the requested revision, detached;
the source repository is never written to, and ``destroy`` removes the
snapshot again. Every git process here runs without the caller's
``GIT_*`` variables and reads no config or attributes but the
repository's own, so no ``GIT_DIR``, hook, filter or ``core.autocrlf`` of
the user's acts here. ``apply_change`` hands a patch's bytes to ``git
apply``, so a patch applies exactly when git with its default settings
accepts it, as in SWE-bench: hunks may land at an offset, and paths with
``..`` or ``.git`` components, absolute paths and paths through a
committed symlink are refused. A refused patch leaves the workspace's
files as the revision has them.
"""

from __future__ import annotations

import logging
import os
import shutil
import subprocess
import tempfile
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from pathlib import Path

from .errors import GitError

log = logging.getLogger(__name__)

# ls-tree modes of regular files; symlinks (120000) and gitlinks (160000)
# have no text of their own to rank.
_FILE_MODES = (b"100644", b"100755")


def _git_env() -> dict[str, str]:
    """The environment of every git process here: the caller's without its
    GIT_* variables, and git reading no system, global or user-wide config
    or attributes file."""
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("GIT_")}
    env.update(GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL="/dev/null",
               GIT_ATTR_NOSYSTEM="1", GIT_CONFIG_COUNT="1",
               GIT_CONFIG_KEY_0="core.attributesFile",
               GIT_CONFIG_VALUE_0="/dev/null")
    return env


def _run_git(args: list[str], cwd: str | Path,
             stdin: bytes | None = None) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(["git", *args], cwd=str(cwd), env=_git_env(),
                              input=stdin, capture_output=True, check=False)
    except FileNotFoundError as exc:
        raise GitError("git executable not found") from exc


def _git(args: list[str], cwd: str | Path) -> bytes:
    proc = _run_git(args, cwd)
    if proc.returncode != 0:
        raise GitError(f"git {' '.join(args)} failed: "
                       f"{proc.stderr.decode(errors='replace').strip()}")
    return proc.stdout


def _repository(repo_path: str | Path) -> Path:
    repo = Path(repo_path)
    if not (repo / ".git").exists():
        raise GitError(f"{repo} is not a git repository")
    return repo


def _unresolvable(revision: str, repo: Path, exc: GitError) -> GitError:
    return GitError(f"revision {revision!r} not resolvable in {repo}: {exc}")


def verify_revision(repo_path: str | Path, revision: str) -> str:
    """Resolve a revision to a full commit hash, or raise naming it."""
    repo = _repository(repo_path)
    try:
        out = _git(["rev-parse", "--verify", f"{revision}^{{commit}}"], repo)
    except GitError as exc:
        raise _unresolvable(revision, repo, exc) from exc
    return out.decode().strip()


def list_repo_files(repo_path: str | Path, revision: str) -> dict[str, str]:
    """Every regular file of the revision: its repo-relative posix path and
    the git blob id of its content, in the order a sorted walk of a
    checkout would give. Symlinks and gitlinks are left out. One git
    process lists the tree of the revision's commit; every git failure
    raises GitError."""
    repo = _repository(repo_path)
    try:
        # --end-of-options: a revision starting with "-" is no option
        listing = _git(["ls-tree", "-r", "-z", "--full-tree",
                        "--end-of-options", f"{revision}^{{commit}}"], repo)
    except GitError as exc:
        raise _unresolvable(revision, repo, exc) from exc
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


def iter_repo_files(repo_path: str | Path,
                    blobs: Mapping[str, str]) -> Iterator[tuple[str, str]]:
    """The content of each given blob, path -> blob id as list_repo_files
    gives them, as (path, text) in the order given, each yielded as it
    arrives, so one blob's text is held at a time. A blob that does not
    decode as UTF-8 is left out.

    Contents are the committed blobs, what ``git show <rev>:<path>``
    prints. They differ from a snapshot's files only where the
    repository's own ``.gitattributes`` or config makes checkout convert
    them, and then they are the content ``git diff`` compares. No blobs
    start no git process. Every git failure raises GitError. A stream
    closed or dropped early kills and reaps cat-file.
    """
    if not blobs:
        return
    # cat-file answers each object id with "<oid> blob <size>\n", the
    # content and "\n"; it reads the ids from a file, so writing them
    # never waits on this reader, and no output is held beyond one blob
    with tempfile.TemporaryFile() as ids:
        ids.write("".join(oid + "\n" for oid in blobs.values()).encode())
        ids.seek(0)
        try:
            proc = subprocess.Popen(["git", "cat-file", "--batch"],
                                    cwd=str(repo_path), stdin=ids,
                                    env=_git_env(), stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE)
        except FileNotFoundError as exc:
            raise GitError("git executable not found") from exc
    with proc:  # closes the pipes and reaps the process, also on error
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
                    yield path, data.decode("utf-8")
                except UnicodeDecodeError:
                    log.debug("skipping undecodable file %s", path)
            if proc.wait() != 0:
                raise _cat_file_error(proc, f"exit status {proc.returncode}")
        finally:
            if proc.poll() is None:
                proc.kill()


def read_repo_files(repo_path: str | Path,
                    blobs: Mapping[str, str]) -> dict[str, str]:
    """iter_repo_files collected: path -> text, in the order given."""
    return dict(iter_repo_files(repo_path, blobs))


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
        # clone writes no files, so the checkout of sha is the only one,
        # and copies no git template, so the workspace holds no hook
        _git(["clone", "--quiet", "--no-checkout", "--template=",
              str(Path(repo_path).resolve()), str(target)], dest)
        _git(["checkout", "--quiet", "--detach", sha], target)
    except BaseException:
        shutil.rmtree(dest, ignore_errors=True)
        raise
    return Workspace(path=target, revision=sha)


def destroy(workspace: Workspace) -> None:
    shutil.rmtree(workspace.path.parent, ignore_errors=True)


def apply_change(workspace: Workspace, patch: bytes) -> str | None:
    """Apply a patch to the workspace with ``git apply``, all or nothing.

    Returns None when git applies the patch, and otherwise why not: git's
    stderr, or how git ended when it printed none. Git checks every file
    before it writes any, but does not undo a write that fails part-way (a
    full disk, a file size limit), so a refused patch resets the workspace
    to its revision with ``git checkout`` and ``git clean``.
    """
    proc = _run_git(["apply", "-"], workspace.path, patch)
    if proc.returncode == 0:
        return None
    _git(["checkout", "--quiet", "--", "."], workspace.path)
    _git(["clean", "-fdqx"], workspace.path)
    error = proc.stderr.decode(errors="replace").strip()
    if error:
        return error
    if proc.returncode < 0:
        return f"killed by signal {-proc.returncode}"
    return f"exited {proc.returncode}"
