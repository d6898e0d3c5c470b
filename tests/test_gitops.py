from __future__ import annotations

import dataclasses
import gc
import os
import re
import shutil
import signal
import subprocess
import threading
import warnings

import pytest

import _e2e_data as e2e
from _oracles import read_checkout

from patchcrew.custodian import TermIndex
from patchcrew.diffs import (CodeChange, DiffLine, FileDiff, Hunk,
                             compute_diff, render_change)
from patchcrew.errors import GitError
from patchcrew import custodian, gitops
from patchcrew.gitops import (Workspace, apply_change, destroy,
                              iter_repo_files, list_repo_files,
                              read_repo_files, snapshot, verify_revision)


def _snapshot(tmp_path, files: dict[str, str | bytes]) -> Workspace:
    """A snapshot of a repository that commits the given files."""
    repo = tmp_path / "origin"
    for rel, content in files.items():
        target = repo / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(content if isinstance(content, bytes)
                           else content.encode("utf-8"))
    return snapshot(repo, e2e.commit_all(repo), root=tmp_path)


def _patch(*fds) -> bytes:
    return render_change(CodeChange(fds)).encode("utf-8")


def _new(path: str, content: str):
    return dataclasses.replace(compute_diff("", content, path),
                               is_new_file=True)


def _deleted(path: str, content: str):
    return dataclasses.replace(compute_diff(content, "", path),
                               is_deleted_file=True)


def _tree(root) -> dict[str, bytes]:
    """Every file under root outside .git, by posix path."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and ".git" not in p.relative_to(root).parts}


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


@pytest.mark.parametrize("setting", ["GIT_TEMPLATE_DIR", "init.templateDir"])
def test_snapshot_runs_no_hook_of_the_users_git_template(
        fixture_repo, tmp_path, monkeypatch, setting):
    repo, sha = fixture_repo
    marker = tmp_path / "hook-ran"
    hook = tmp_path / "template" / "hooks" / "post-checkout"
    hook.parent.mkdir(parents=True)
    hook.write_text(f"#!/bin/sh\ntouch '{marker}'\n", encoding="utf-8")
    hook.chmod(0o755)
    if setting == "GIT_TEMPLATE_DIR":
        monkeypatch.setenv("GIT_TEMPLATE_DIR", str(hook.parent.parent))
    else:
        monkeypatch.setenv("GIT_CONFIG_COUNT", "1")
        monkeypatch.setenv("GIT_CONFIG_KEY_0", "init.templateDir")
        monkeypatch.setenv("GIT_CONFIG_VALUE_0", str(hook.parent.parent))
    ws = snapshot(repo, sha, root=tmp_path)
    try:
        assert not marker.exists()
        assert not (ws.path / ".git" / "hooks").exists()
        assert (ws.path / "calc.py").read_text(encoding="utf-8") == e2e.CALC_OLD
    finally:
        destroy(ws)


def _user_git_config(tmp_path, monkeypatch, text: str) -> None:
    """Make text the user's global git config from now on."""
    config = tmp_path / "user.gitconfig"
    config.write_text(text, encoding="utf-8")
    monkeypatch.setenv("GIT_CONFIG_GLOBAL", str(config))


def test_snapshot_runs_no_hook_of_the_users_hooks_path(fixture_repo, tmp_path,
                                                       monkeypatch):
    repo, sha = fixture_repo
    marker = tmp_path / "hook-ran"
    hook = tmp_path / "hooks" / "post-checkout"
    hook.parent.mkdir()
    hook.write_text(f"#!/bin/sh\ntouch '{marker}'\n", encoding="utf-8")
    hook.chmod(0o755)
    _user_git_config(tmp_path, monkeypatch,
                     f"[core]\n\thooksPath = {hook.parent}\n")
    ws = snapshot(repo, sha, root=tmp_path)
    try:
        assert not marker.exists()
        assert (ws.path / "calc.py").read_text(encoding="utf-8") == e2e.CALC_OLD
    finally:
        destroy(ws)


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


# --- the caller's git environment ---------------------------------------------------

def test_git_variables_of_the_caller_name_no_repository_here(tmp_path,
                                                             monkeypatch):
    # git exports GIT_DIR and GIT_WORK_TREE to the hooks it runs
    # (githooks(5)); here they name a clone of the instance's repository
    # with a commit of its own and an uncommitted edit
    origin = tmp_path / "origin"
    origin.mkdir()
    (origin / "f.txt").write_text("base\n", encoding="utf-8")
    base = e2e.commit_all(origin)
    other = tmp_path / "other"
    subprocess.run(["git", "clone", "-q", str(origin), str(other)],
                   check=True)
    (other / "f.txt").write_text("other's commit\n", encoding="utf-8")
    e2e.commit_all(other, "other's")
    (other / "f.txt").write_text("other's edit\n", encoding="utf-8")
    (origin / "f.txt").write_text("head\n", encoding="utf-8")
    head = e2e.commit_all(origin, "head")
    head_listing = {"f.txt": _git_out(origin, "rev-parse", "HEAD:f.txt")}
    held = {name: (other / ".git" / name).read_bytes()
            for name in ("HEAD", "index")}
    monkeypatch.setenv("GIT_DIR", str(other / ".git"))
    monkeypatch.setenv("GIT_WORK_TREE", str(other))
    monkeypatch.setenv("GIT_INDEX_FILE", str(other / ".git" / "index"))

    assert list_repo_files(origin, "HEAD") == head_listing
    assert read_repo_files(origin, head_listing) == {"f.txt": "head\n"}
    ws = snapshot(origin, base, root=tmp_path)
    assert ws.revision == base
    assert (ws.path / "f.txt").read_text(encoding="utf-8") == "base\n"
    assert apply_change(ws, _patch(compute_diff("base\n", "fixed\n",
                                                "f.txt"))) is None
    assert (ws.path / "f.txt").read_text(encoding="utf-8") == "fixed\n"
    # a refused patch resets the workspace, not the other checkout
    assert apply_change(ws, _patch(compute_diff("base\n", "again\n",
                                                "f.txt"))) is not None
    assert (ws.path / "f.txt").read_text(encoding="utf-8") == "base\n"
    assert verify_revision(origin, "HEAD") == head

    assert {name: (other / ".git" / name).read_bytes()
            for name in held} == held
    assert (other / "f.txt").read_text(encoding="utf-8") == "other's edit\n"


def _committed(tmp_path, content: bytes):
    """A repository that commits f.txt with the given bytes, and its
    commit."""
    repo = tmp_path / "origin"
    repo.mkdir()
    (repo / "f.txt").write_bytes(content)
    return repo, e2e.commit_all(repo)


def test_snapshot_is_the_blob_whatever_the_users_autocrlf(tmp_path,
                                                           monkeypatch):
    repo, sha = _committed(tmp_path, b"one\ntwo\n")
    _user_git_config(tmp_path, monkeypatch, "[core]\n\tautocrlf = true\n")
    ws = snapshot(repo, sha, root=tmp_path)
    assert (ws.path / "f.txt").read_bytes() == b"one\ntwo\n"


def test_snapshot_is_the_blob_whatever_the_users_attributes(tmp_path,
                                                             monkeypatch):
    repo, sha = _committed(tmp_path, b"one\ntwo\n")
    attributes = tmp_path / "xdg" / "git" / "attributes"
    attributes.parent.mkdir(parents=True)
    attributes.write_text("* text eol=crlf\n", encoding="utf-8")
    monkeypatch.setenv("XDG_CONFIG_HOME", str(tmp_path / "xdg"))
    ws = snapshot(repo, sha, root=tmp_path)
    assert (ws.path / "f.txt").read_bytes() == b"one\ntwo\n"


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


def test_list_repo_files_runs_one_git_process(odd_repo, monkeypatch):
    repo, base = odd_repo
    ran: list[str] = []
    run_git = gitops._run_git

    def recording(args, *rest):
        ran.append(args[0])
        return run_git(args, *rest)

    monkeypatch.setattr(gitops, "_run_git", recording)
    assert "top.py" in list_repo_files(repo, base)
    assert ran == ["ls-tree"]


@pytest.mark.parametrize("revision", ["--format=%(path)", "-r"])
def test_list_repo_files_reads_no_revision_as_an_option(odd_repo, revision):
    repo, _ = odd_repo
    with pytest.raises(GitError, match=f"{re.escape(repr(revision))} not "
                                       f"resolvable"):
        list_repo_files(repo, revision)


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


def test_read_repo_files_takes_more_ids_than_a_pipe_holds(tmp_path):
    # 2,000 ids of 41 bytes are more than a 64 KiB pipe holds, and cat-file
    # fills its output pipe long before it has read them all
    repo = tmp_path / "many"
    files = {f"f{i:04}.txt": f"blob {i}\n" * 100 for i in range(2000)}
    listing = list_repo_files(repo, e2e.build_fixture_repo(repo, files))
    assert len(set(listing.values())) == len(files)
    read: dict[str, str] = {}
    reader = threading.Thread(
        target=lambda: read.update(read_repo_files(repo, listing)),
        daemon=True)
    reader.start()
    reader.join(timeout=60)
    assert not reader.is_alive(), "read_repo_files did not return"
    assert read == files


def test_an_error_in_the_consumer_stops_cat_file_mid_stream(
        odd_repo, cat_file_procs, monkeypatch):
    # the index fails to count its first blob while cat-file still has to
    # send big.txt, more than a pipe holds: the stream is closed, so
    # cat-file is killed and reaped, its pipes closed and no thread left
    repo, base = odd_repo
    listing = list_repo_files(repo, base)
    listing["big.txt"] = listing.pop("big.txt")
    counted: list[str] = []

    def failing_count(text, memo):
        counted.append(text)
        raise RuntimeError("injected count failure")

    monkeypatch.setattr(custodian, "count_terms", failing_count)
    threads = threading.active_count()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RuntimeError, match="injected"):
            TermIndex().update(listing,
                               lambda blobs: iter_repo_files(repo, blobs))
        gc.collect()
    assert [w for w in caught if w.category is ResourceWarning] == []
    assert len(counted) == 1 and len(cat_file_procs) == 1
    assert cat_file_procs[0].returncode is not None  # reaped
    assert threading.active_count() == threads


# --- application by git apply ------------------------------------------------------

def test_apply_change_writes_every_file(tmp_path):
    ws = _snapshot(tmp_path, {"a.py": "one\n", "b.py": "two\n"})
    patch = _patch(compute_diff("one\n", "ONE\n", "a.py"),
                   compute_diff("two\n", "TWO\n", "b.py"))
    assert apply_change(ws, patch) is None
    assert (ws.path / "a.py").read_text(encoding="utf-8") == "ONE\n"
    assert (ws.path / "b.py").read_text(encoding="utf-8") == "TWO\n"


def test_apply_change_is_atomic_on_mismatch(tmp_path):
    ws = _snapshot(tmp_path, {"a.py": "one\n", "b.py": "unexpected\n"})
    patch = _patch(compute_diff("one\n", "ONE\n", "a.py"),
                   compute_diff("two\n", "TWO\n", "b.py"))
    before = _tree(ws.path)
    assert apply_change(ws, patch) == ("error: patch failed: b.py:1\n"
                                       "error: b.py: patch does not apply")
    assert _tree(ws.path) == before


@pytest.mark.parametrize("files,fd,message", [
    ({"a.py": "one\n"}, compute_diff("one\n", "ONE\n", "gone.py"),
     "error: gone.py: No such file or directory"),
    ({"a.py": "a\nX\nc\n"}, compute_diff("a\nb\nc\n", "a\nB\nc\n", "a.py"),
     "error: patch failed: a.py:1"),
    ({"a.py": "a\nb\n"}, compute_diff("a\nb\nc\nd\ne\nf\ng\nh\ni\nj\n",
                                     "a\nb\nc\nd\ne\nf\ng\nh\nI\nj\n", "a.py"),
     "error: patch failed: a.py:6"),
    ({"a.py": "a\nb\nc\n"}, FileDiff("a.py", "a.py", (Hunk(
        2, 1, 2, 1, (DiffLine("deleted", "b"), DiffLine("added", "B"))),)),
     "error: patch failed: a.py:2"),
], ids=["missing target", "context mismatch", "hunk out of range",
        "zero-context hunk"])
def test_apply_change_reports_why_git_refused(tmp_path, files, fd, message):
    ws = _snapshot(tmp_path, files)
    before = _tree(ws.path)
    error = apply_change(ws, _patch(fd))
    assert error.startswith(message)
    assert _tree(ws.path) == before


def test_apply_change_checks_whitespace_as_git_does_by_default(
        tmp_path, monkeypatch):
    ws = _snapshot(tmp_path, {"a.py": "one\n"})
    _user_git_config(tmp_path, monkeypatch, "[apply]\n\twhitespace = error\n")
    assert apply_change(ws, _patch(compute_diff("one\n", "one \n",
                                                "a.py"))) is None
    assert (ws.path / "a.py").read_text(encoding="utf-8") == "one \n"


def test_apply_change_without_git_on_path_raises_git_error(
        tmp_path, monkeypatch):
    ws = _snapshot(tmp_path, {"a.py": "one\n"})
    monkeypatch.setenv("PATH", str(tmp_path / "no-such-dir"))
    with pytest.raises(GitError, match="git executable not found"):
        apply_change(ws, _patch(compute_diff("one\n", "ONE\n", "a.py")))


def test_apply_change_applies_a_hunk_at_an_offset(tmp_path):
    old = "".join(f"line {i}\n" for i in range(1, 31))
    new = old.replace("line 20\n", "line twenty\n")
    ws = _snapshot(tmp_path, {"a.py": old})
    patch = _patch(compute_diff(old, new, "a.py"))
    assert b"@@ -17,7 +17,7 @@" in patch
    # the hunk says line 12, and git finds its context five lines on
    assert apply_change(ws, patch.replace(b"@@ -17,7 +17,7 @@",
                                          b"@@ -12,7 +12,7 @@")) is None
    assert (ws.path / "a.py").read_text(encoding="utf-8") == new


def _limit_apply_file_size(tmp_path, monkeypatch) -> None:
    """Put a git first on PATH that runs ``git apply`` with a file size
    limit of 4 blocks, so a larger write fails part-way."""
    real_git = shutil.which("git")
    bindir = tmp_path / "bin"
    bindir.mkdir()
    wrapper = bindir / "git"
    wrapper.write_text('#!/bin/sh\n'
                       'case " $* " in *" apply "*) ulimit -f 4;; esac\n'
                       f'exec {real_git} "$@"\n', encoding="utf-8")
    wrapper.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bindir}:{os.environ['PATH']}")


def test_apply_change_puts_back_what_it_wrote_when_a_write_fails(
        tmp_path, monkeypatch):
    big = "".join(f"row {i}\n" for i in range(3000))
    repo = tmp_path / "origin"
    e2e.build_fixture_repo(repo, {"a.py": "one\n", "b.py": big,
                                  "c.sh": "three\n"})
    (repo / "c.sh").chmod(0o755)
    ws = snapshot(repo, e2e.commit_all(repo, "executable"), root=tmp_path)
    mode = (ws.path / "c.sh").stat().st_mode
    assert mode & 0o111
    patch = _patch(compute_diff("one\n", "ONE\n", "a.py"),
                   dataclasses.replace(_deleted("c.sh", "three\n"),
                                       mode="100755"),
                   _new("pkg/new.py", "new\n"),
                   compute_diff(big, big.replace("row 2999", "ROW"), "b.py"))
    before = _tree(ws.path)
    left: dict[str, bytes] = {}  # what git left before the reset
    real_git = gitops._git

    def see_reset(args, cwd):
        if args[0] == "checkout":
            left.update(_tree(ws.path))
        return real_git(args, cwd)

    monkeypatch.setattr(gitops, "_git", see_reset)
    _limit_apply_file_size(tmp_path, monkeypatch)
    error = apply_change(ws, patch)
    assert error == f"killed by signal {signal.SIGXFSZ.value}"
    # git was killed writing b.py, after it had written the others
    assert left["a.py"] == b"ONE\n" and "c.sh" not in left
    assert left["pkg/new.py"] == b"new\n"
    assert len(left["b.py"]) < len(before["b.py"])
    assert _tree(ws.path) == before
    assert (ws.path / "c.sh").stat().st_mode == mode
    assert not (ws.path / "pkg").exists()


def test_apply_change_rejects_unsafe_paths(tmp_path):
    ws = _snapshot(tmp_path, {"a.py": "one\n"})
    (ws.path.parent / "escape.py").write_text("x\n", encoding="utf-8")
    before = _tree(tmp_path)
    for bad, fd in (("../escape.py", compute_diff("x\n", "y\n", "p")),
                    ("../made.py", _new("p", "x\n")),
                    ("/etc/passwd", compute_diff("x\n", "y\n", "p"))):
        fd = dataclasses.replace(fd, old_path=bad, new_path=bad)
        error = apply_change(ws, _patch(compute_diff("one\n", "ONE\n", "a.py"),
                                        fd))
        assert error == f"error: invalid path '{bad}'"
        assert _tree(tmp_path) == before
        assert (ws.path / "a.py").read_text(encoding="utf-8") == "one\n"


@pytest.mark.parametrize("path", [".git/hooks/post-checkout", ".GIT/x",
                                  "sub/.git/x"])
def test_apply_change_refuses_paths_into_git_dirs(tmp_path, path):
    ws = _snapshot(tmp_path, {"a.py": "one\n"})
    before = _tree(ws.path)
    error = apply_change(ws, _patch(_new(path, "#!/bin/sh\necho owned\n")))
    assert error == f"error: invalid path '{path}'"
    assert not (ws.path / path).exists()
    assert _tree(ws.path) == before


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
    _new("lib/new.py", "x = 1\n"),
    compute_diff("secret = 1\n", "secret = 2\n", "conf.py"),
    _deleted("lib/conf.py", "secret = 1\n"),
], ids=["new file under a linked dir", "linked file", "delete via link"])
def test_apply_change_refuses_paths_through_symlinks(linked_checkout, fd):
    ws, outside = linked_checkout
    assert (ws.path / "lib").is_symlink()  # committed and checked out
    before = _tree(outside)
    error = apply_change(ws, _patch(compute_diff("one\n", "ONE\n", "a.py"),
                                    fd))
    assert fd.path in error
    assert _tree(outside) == before
    assert (ws.path / "a.py").read_text(encoding="utf-8") == "one\n"


def test_apply_change_creates_new_file_with_parents(tmp_path):
    ws = _snapshot(tmp_path, {"a.py": "one\n"})
    assert apply_change(ws, _patch(_new("pkg/sub/new.py", "x = 1\n"))) is None
    assert (ws.path / "pkg" / "sub" / "new.py").read_text(
        encoding="utf-8") == "x = 1\n"


def test_apply_change_rejects_existing_target_for_new_file(tmp_path):
    ws = _snapshot(tmp_path, {"new.py": "already here\n"})
    error = apply_change(ws, _patch(_new("new.py", "x = 1\n")))
    assert error == "error: new.py: already exists in working directory"
    assert (ws.path / "new.py").read_text(
        encoding="utf-8") == "already here\n"


def test_apply_change_deletes_files(tmp_path):
    ws = _snapshot(tmp_path, {"gone.py": "old\n", "stays.py": "keep\n"})
    assert apply_change(ws, _patch(_deleted("gone.py", "old\n"))) is None
    assert not (ws.path / "gone.py").exists()
    assert (ws.path / "stays.py").exists()


def test_apply_change_applies_a_latin1_target_byte_exactly(tmp_path):
    old, new = b"# caf\xe9\none\n", b"# caf\xe9\nONE\n"
    ws = _snapshot(tmp_path, {"blob.py": old})
    fd = compute_diff(old.decode("utf-8", "surrogateescape"),
                      new.decode("utf-8", "surrogateescape"), "blob.py")
    patch = render_change(CodeChange((fd,))).encode("utf-8", "surrogateescape")
    assert apply_change(ws, patch) is None
    assert (ws.path / "blob.py").read_bytes() == new


def test_apply_change_refuses_an_empty_patch(tmp_path):
    ws = _snapshot(tmp_path, {"a.py": "one\n"})
    assert apply_change(ws, b"").startswith(
        "error: No valid patches in input")
    assert (ws.path / "a.py").read_text(encoding="utf-8") == "one\n"
