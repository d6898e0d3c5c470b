from __future__ import annotations

import dataclasses
import subprocess

import pytest

import _e2e_data as e2e

from patchcrew.diffs import CodeChange, compute_diff
from patchcrew.errors import GitError
from patchcrew import gitops
from patchcrew.gitops import (Workspace, apply_change, destroy, snapshot,
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
