from __future__ import annotations

import dataclasses
import re
import subprocess

import pytest

import _e2e_data as e2e
from _oracles import read_checkout

from patchcrew.diffs import CodeChange, compute_diff
from patchcrew.errors import GitError
from patchcrew import gitops
from patchcrew.gitops import (Workspace, apply_change, destroy,
                              list_repo_files, read_repo_files, snapshot,
                              verify_revision)


def _workspace(tmp_path, files: dict[str, str]) -> Workspace:
    for rel, content in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content, encoding="utf-8")
    return Workspace(path=tmp_path, revision="0" * 40)


def _tree(root) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


# --- revisions and snapshots ---------------------------------------------------

def test_verify_revision_resolves_short_hash(fixture_repo):
    repo, sha = fixture_repo
    assert verify_revision(repo, sha) == sha
    assert verify_revision(repo, sha[:8]) == sha
    assert verify_revision(repo, "HEAD") == sha


def test_verify_revision_errors(tmp_path, fixture_repo):
    repo, _ = fixture_repo
    with pytest.raises(GitError, match="not a git repository"):
        verify_revision(tmp_path, "HEAD")
    with pytest.raises(GitError, match="'no-such-branch' not resolvable"):
        verify_revision(repo, "no-such-branch")


def test_snapshot_is_isolated_and_detached(fixture_repo, tmp_path):
    repo, sha = fixture_repo
    ws = snapshot(repo, sha, root=tmp_path)
    try:
        assert ws.revision == sha
        assert ws.path != repo
        assert (ws.path / "calc.py").read_text(encoding="utf-8") == e2e.CALC_OLD
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ws.path,
                              capture_output=True, text=True, check=True)
        assert head.stdout.strip() == sha

        (ws.path / "calc.py").write_text("clobbered\n", encoding="utf-8")
        in_source = (repo / "calc.py").read_text(encoding="utf-8")
        assert in_source == e2e.CALC_OLD
    finally:
        destroy(ws)
    assert not ws.path.exists()
    assert not ws.path.parent.exists()


def test_two_snapshots_never_share_a_directory(fixture_repo, tmp_path):
    repo, sha = fixture_repo
    ws1 = snapshot(repo, sha, root=tmp_path)
    ws2 = snapshot(repo, sha, root=tmp_path)
    try:
        assert ws1.path != ws2.path
    finally:
        destroy(ws1)
        destroy(ws2)


def test_snapshot_under_a_relative_root(fixture_repo, tmp_path, monkeypatch):
    repo, sha = fixture_repo
    monkeypatch.chdir(tmp_path)
    (tmp_path / "runs").mkdir()
    ws = snapshot(repo, sha, root="runs")
    try:
        assert ws.path.is_absolute()
        assert ws.path.parent.parent == tmp_path / "runs"
        assert (ws.path / "calc.py").read_text(encoding="utf-8") == e2e.CALC_OLD
    finally:
        destroy(ws)
    assert list((tmp_path / "runs").iterdir()) == []


def test_snapshot_removes_its_directory_when_git_fails(fixture_repo, tmp_path,
                                                       monkeypatch):
    repo, sha = fixture_repo
    real_git = gitops._git

    def failing_checkout(args, cwd):
        if args[0] == "checkout":
            raise GitError("git checkout failed: injected")
        return real_git(args, cwd)

    monkeypatch.setattr(gitops, "_git", failing_checkout)
    with pytest.raises(GitError, match="injected"):
        snapshot(repo, sha, root=tmp_path)
    assert list(tmp_path.iterdir()) == []


# --- reading a revision from the object store ------------------------------------

def _git_out(repo, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=repo, check=True,
                          capture_output=True, text=True).stdout.strip()


@pytest.fixture()
def odd_repo(tmp_path):
    """A repository whose base revision holds every kind of tree entry the
    reader meets. A later commit changes and deletes files, so reading the
    base cannot pass by reading the working tree."""
    repo = tmp_path / "odd"
    files = {
        "top.py": b"print('top')\n",
        "pkg/sub/deep.py": b"x = 1\n",
        "pkg-b.txt": b"sorts before pkg/ in a git tree, after it in a walk\n",
        "pkg.txt": b"dot\n",
        "empty.txt": b"",
        "dir with space/caf\u00e9 men\u00fc.md": "na\u00efve \u4e2d\n".encode(),
        "latin1.txt": b"caf\xe9\n",
        "crlf.txt": b"one\r\ntwo\r\n",
        "big.txt": b"".join(b"line %d of a file larger than a pipe\n" % i
                            for i in range(8000)),
    }
    for rel, content in files.items():
        (repo / rel).parent.mkdir(parents=True, exist_ok=True)
        (repo / rel).write_bytes(content)
    (repo / "run.sh").write_bytes(b"#!/bin/sh\necho run\n")
    (repo / "run.sh").chmod(0o755)
    (repo / "link.py").symlink_to("top.py")
    first = e2e.commit_all(repo)
    subprocess.run(["git", "update-index", "--add", "--cacheinfo",
                    f"160000,{first},sub"], cwd=repo, check=True)
    subprocess.run(["git", "-c", "user.name=dev", "-c",
                    "user.email=dev@example.com", "commit", "-q", "-m",
                    "add a gitlink"], cwd=repo, check=True)
    base = _git_out(repo, "rev-parse", "HEAD")
    (repo / "top.py").write_bytes(b"print('changed')\n")
    (repo / "pkg.txt").unlink()
    e2e.commit_all(repo, "later")
    return repo, base


def test_read_repo_files_matches_a_checkout(odd_repo, tmp_path):
    repo, base = odd_repo
    checkout = tmp_path / "checkout"
    subprocess.run(["git", "clone", "-q", "--no-checkout", str(repo),
                    str(checkout)], check=True)
    subprocess.run(["git", "checkout", "-q", "--detach", base],
                   cwd=checkout, check=True)
    assert (checkout / "sub").is_dir()  # the gitlink, as a checkout has it

    files = read_repo_files(repo, list_repo_files(repo, base))
    expected = read_checkout(checkout)
    assert files == expected
    assert list(files) == list(expected)
    assert "run.sh" in files and "empty.txt" in files
    assert "link.py" not in files and "latin1.txt" not in files
    assert files["top.py"] == "print('top')\n"
    assert files["crlf.txt"] == "one\r\ntwo\r\n"
    assert list(files).index("pkg-b.txt") > list(files).index(
        "pkg/sub/deep.py")


def test_read_repo_files_reads_only_the_blobs_asked_for(odd_repo,
                                                        cat_file_procs):
    repo, base = odd_repo
    listing = list_repo_files(repo, base)
    for path in ("top.py", "pkg/sub/deep.py", "run.sh"):
        assert listing[path] == _git_out(repo, "rev-parse", f"{base}:{path}")
    assert read_repo_files(repo, {}) == {}
    assert cat_file_procs == []  # no blobs, no git process
    asked = {path: listing[path]
             for path in ("top.py", "latin1.txt", "empty.txt")}
    files = read_repo_files(repo, asked)
    assert list(files.items()) == [("top.py", "print('top')\n"),
                                   ("empty.txt", "")]
    assert len(cat_file_procs) == 1


def test_list_repo_files_errors_name_the_revision_and_repo(odd_repo,
                                                           tmp_path):
    repo, _ = odd_repo
    with pytest.raises(GitError, match="'no-such-rev' not resolvable"):
        list_repo_files(repo, "no-such-rev")
    plain = tmp_path / "plain"
    plain.mkdir()
    with pytest.raises(GitError,
                       match=re.escape(f"{plain} is not a git repository")):
        list_repo_files(plain, "HEAD")


@pytest.fixture()
def cat_file_procs(monkeypatch):
    """Every git cat-file process started while the fixture is active."""
    started: list[subprocess.Popen] = []

    class Recording(subprocess.Popen):
        def __init__(self, args, *rest, **kwargs):
            super().__init__(args, *rest, **kwargs)
            if "cat-file" in args:
                started.append(self)

    monkeypatch.setattr(gitops.subprocess, "Popen", Recording)
    return started


def test_read_repo_files_reports_a_missing_blob(odd_repo, cat_file_procs):
    repo, base = odd_repo
    oid = _git_out(repo, "rev-parse", f"{base}:pkg/sub/deep.py")
    (repo / ".git" / "objects" / oid[:2] / oid[2:]).unlink()
    with pytest.raises(GitError, match=f"pkg/sub/deep.py: {oid} missing"):
        read_repo_files(repo, list_repo_files(repo, base))
    assert len(cat_file_procs) == 1
    assert cat_file_procs[0].returncode is not None  # reaped


def test_read_repo_files_reaps_cat_file_when_reading_raises(
        odd_repo, cat_file_procs, monkeypatch):
    repo, base = odd_repo

    class Failing:
        def __init__(self, stream):
            self.stream = stream

        def readline(self):
            return self.stream.readline()

        def read(self, size):
            raise RuntimeError("injected read failure")

        def close(self):
            self.stream.close()

    real_popen = gitops.subprocess.Popen

    def failing_popen(args, *rest, **kwargs):
        proc = real_popen(args, *rest, **kwargs)
        if "cat-file" in args:
            proc.stdout = Failing(proc.stdout)
        return proc

    monkeypatch.setattr(gitops.subprocess, "Popen", failing_popen)
    with pytest.raises(RuntimeError, match="injected"):
        read_repo_files(repo, list_repo_files(repo, base))
    assert len(cat_file_procs) == 1
    assert cat_file_procs[0].returncode is not None  # reaped


# --- atomic application -----------------------------------------------------------

def test_apply_change_writes_every_file(tmp_path):
    ws = _workspace(tmp_path, {"a.py": "one\n", "b.py": "two\n"})
    change = CodeChange((
        compute_diff("one\n", "ONE\n", "a.py"),
        compute_diff("two\n", "TWO\n", "b.py"),
    ))
    status = apply_change(ws, change)
    assert status.applied
    assert all(r.ok for r in status.file_results)
    assert (tmp_path / "a.py").read_text(encoding="utf-8") == "ONE\n"
    assert (tmp_path / "b.py").read_text(encoding="utf-8") == "TWO\n"


def test_apply_change_is_atomic_on_mismatch(tmp_path):
    ws = _workspace(tmp_path, {"a.py": "one\n", "b.py": "unexpected\n"})
    change = CodeChange((
        compute_diff("one\n", "ONE\n", "a.py"),
        compute_diff("two\n", "TWO\n", "b.py"),
    ))
    before = _tree(tmp_path)
    status = apply_change(ws, change)
    assert not status.applied
    assert _tree(tmp_path) == before
    assert [r.ok for r in status.file_results] == [True, False]
    assert "b.py" in status.failure_detail()


def test_apply_change_rejects_unsafe_paths(tmp_path):
    ws = _workspace(tmp_path, {"a.py": "one\n"})
    for bad in ("../escape.py", "/etc/passwd"):
        fd = dataclasses.replace(compute_diff("", "x\n", "p"),
                                 old_path=bad, new_path=bad)
        status = apply_change(ws, CodeChange((fd,)))
        assert not status.applied
        assert "unsafe path" in status.failure_detail()


@pytest.fixture()
def linked_checkout(tmp_path):
    """A snapshot of a repository that commits a symlinked directory
    (lib -> outside/) and a symlinked file (conf.py -> outside/conf.py),
    both pointing out of the checkout."""
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "conf.py").write_text("secret = 1\n", encoding="utf-8")
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "a.py").write_text("one\n", encoding="utf-8")
    (repo / "lib").symlink_to(outside)
    (repo / "conf.py").symlink_to(outside / "conf.py")
    ws = snapshot(repo, e2e.commit_all(repo), root=tmp_path)
    yield ws, outside
    destroy(ws)


@pytest.mark.parametrize("fd", [
    dataclasses.replace(compute_diff("", "x = 1\n", "lib/new.py"),
                        is_new_file=True),
    compute_diff("secret = 1\n", "secret = 2\n", "conf.py"),
    dataclasses.replace(compute_diff("secret = 1\n", "", "lib/conf.py"),
                        is_deleted_file=True),
], ids=["new file under a linked dir", "linked file", "delete via link"])
def test_apply_change_refuses_paths_through_symlinks(linked_checkout, fd):
    ws, outside = linked_checkout
    assert (ws.path / "lib").is_symlink()  # committed and checked out
    before = _tree(outside)
    change = CodeChange((compute_diff("one\n", "ONE\n", "a.py"), fd))
    status = apply_change(ws, change)
    assert not status.applied
    assert f"{fd.path}: unsafe path" in status.failure_detail()
    assert _tree(outside) == before
    assert (ws.path / "a.py").read_text(encoding="utf-8") == "one\n"


def test_apply_change_creates_new_file_with_parents(tmp_path):
    ws = _workspace(tmp_path, {})
    fd = dataclasses.replace(compute_diff("", "x = 1\n", "pkg/sub/new.py"),
                             is_new_file=True)
    status = apply_change(ws, CodeChange((fd,)))
    assert status.applied
    assert (tmp_path / "pkg" / "sub" / "new.py").read_text(
        encoding="utf-8") == "x = 1\n"


def test_apply_change_rejects_existing_target_for_new_file(tmp_path):
    ws = _workspace(tmp_path, {"new.py": "already here\n"})
    fd = dataclasses.replace(compute_diff("", "x = 1\n", "new.py"),
                             is_new_file=True)
    status = apply_change(ws, CodeChange((fd,)))
    assert not status.applied
    assert (tmp_path / "new.py").read_text(encoding="utf-8") == "already here\n"


def test_apply_change_deletes_files(tmp_path):
    ws = _workspace(tmp_path, {"gone.py": "old\n", "stays.py": "keep\n"})
    fd = dataclasses.replace(compute_diff("old\n", "", "gone.py"),
                             is_deleted_file=True)
    status = apply_change(ws, CodeChange((fd,)))
    assert status.applied
    assert not (tmp_path / "gone.py").exists()
    assert (tmp_path / "stays.py").exists()


def test_apply_change_refuses_non_text_target(tmp_path):
    ws = _workspace(tmp_path, {})
    (tmp_path / "blob.py").write_bytes(b"\xff\xfe junk")
    change = CodeChange((compute_diff("one\n", "ONE\n", "blob.py"),))
    status = apply_change(ws, change)
    assert not status.applied
    assert "not utf-8" in status.failure_detail()
    assert (tmp_path / "blob.py").read_bytes() == b"\xff\xfe junk"


def test_apply_change_empty_change_is_trivially_applied(tmp_path):
    ws = _workspace(tmp_path, {"a.py": "one\n"})
    status = apply_change(ws, CodeChange(()))
    assert status.applied
    assert status.file_results == ()
