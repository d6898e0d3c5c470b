from __future__ import annotations

import random
import subprocess
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import git_apply, git_apply_with_modes

from patchcrew.diffs import (CodeChange, DiffLine, FileDiff, Hunk,
                             compute_diff, keyed_lines, modified_old_range,
                             parse_diff, render_change, render_file_diff)
from patchcrew.errors import DiffParseError


# --- keyed lines ---------------------------------------------------------

@pytest.mark.parametrize("text", ["", "a", "a\n", "a\nb", "a\nb\n", "\n\n"])
def test_keyed_lines_identity(text):
    assert "".join(keyed_lines(text)) == text


def test_keyed_lines_distinguish_final_newline():
    assert keyed_lines("x\ny\n") == ["x\n", "y\n"]
    assert keyed_lines("x\ny") == ["x\n", "y"]
    assert keyed_lines("") == []


# --- value-object validation ---------------------------------------------

def test_hunk_validates_line_counts():
    lines = (DiffLine("context", "a"), DiffLine("deleted", "b"),
             DiffLine("added", "c"))
    Hunk(1, 2, 1, 2, lines)
    with pytest.raises(ValueError):
        Hunk(1, 3, 1, 2, lines)  # old_len wrong
    with pytest.raises(ValueError):
        Hunk(1, 2, 1, 3, lines)  # new_len wrong


def test_file_diff_rejects_overlapping_hunks():
    h1 = Hunk(1, 2, 1, 2, (DiffLine("context", "a"), DiffLine("context", "b")))
    h2 = Hunk(2, 2, 2, 2, (DiffLine("context", "b"), DiffLine("context", "c")))
    with pytest.raises(ValueError):
        FileDiff("f", "f", (h1, h2))


def test_code_change_rejects_duplicate_paths():
    fd = compute_diff("a\n", "b\n", "same.py")
    with pytest.raises(ValueError):
        CodeChange((fd, fd))


def test_modified_old_range_for_deletes_and_inserts():
    fd = compute_diff("a\nb\nc\n", "a\nc\n", "f")  # deletes line 2
    assert modified_old_range(fd.hunks[0]) == (2, 2)
    fd = compute_diff("a\nb\n", "a\nX\nb\n", "f")  # pure insert after line 1
    h = fd.hunks[0]
    span = modified_old_range(h)
    assert span[0] >= 1 and span[0] == span[1]


# --- compute / render / parse round trips, applied by git -----------------

CASES = [
    ("a\nb\nc\n", "a\nB\nc\n"),            # replace
    ("a\nb\nc\n", "a\nc\n"),               # delete
    ("a\nc\n", "a\nb\nc\n"),               # insert
    ("x\ny", "x\ny\n"),                    # gain final newline
    ("x\ny\n", "x\ny"),                    # lose final newline
    ("", "new\ncontent\n"),                # from empty
    ("old\n", ""),                         # to empty
    ("a\n" * 50 + "mid\n" + "b\n" * 50,
     "a\n" * 50 + "MID\n" + "b\n" * 50),   # middle of a large file
    ("one\ntwo\nthree\nfour\nfive\nsix\nseven\neight\nnine\nten\n",
     "one\nTWO\nthree\nfour\nfive\nsix\nseven\nEIGHT\nnine\nten\n"),  # 2 hunks
]


@pytest.mark.parametrize("old,new", CASES)
def test_round_trip_through_text(old, new):
    fd = compute_diff(old, new, "f.txt")
    text = render_file_diff(fd)
    parsed = parse_diff(text)
    assert len(parsed.file_diffs) == 1
    assert git_apply({"f.txt": old}, render_change(parsed)) == {"f.txt": new}


def test_identical_contents_produce_no_hunks():
    fd = compute_diff("same\n", "same\n", "f")
    assert fd.hunks == ()
    assert render_file_diff(fd) == "diff --git a/f b/f\n"


def test_new_file_render_and_apply():
    fd = replace(compute_diff("", "hello\n", "fresh.txt"), is_new_file=True)
    text = render_file_diff(fd)
    assert "new file mode 100644" in text
    assert "--- /dev/null" in text
    parsed = parse_diff(text)
    assert parsed.file_diffs[0].is_new_file
    assert git_apply({}, render_change(parsed)) == {"fresh.txt": "hello\n"}


def test_deleted_file_render_and_apply():
    fd = replace(compute_diff("bye\n", "", "gone.txt"), is_deleted_file=True)
    text = render_file_diff(fd)
    assert "deleted file mode 100644" in text
    assert "+++ /dev/null" in text
    parsed = parse_diff(text)
    assert parsed.file_diffs[0].is_deleted_file
    assert git_apply({"gone.txt": "bye\n"}, render_change(parsed)) == {}


def test_no_newline_marker_round_trip():
    fd = compute_diff("x\ny", "x\nz", "f")
    text = render_file_diff(fd)
    assert "\\ No newline at end of file" in text
    parsed = parse_diff(text)
    assert git_apply({"f": "x\ny"}, render_change(parsed)) == {"f": "x\nz"}


# --- parser error reporting ----------------------------------------------

def test_parse_rejects_binary_and_renames():
    binary = ("diff --git a/blob b/blob\n"
              "Binary files a/blob and b/blob differ\n")
    with pytest.raises(DiffParseError, match="binary"):
        parse_diff(binary)
    rename = ("diff --git a/old.py b/new.py\n"
              "similarity index 100%\n"
              "rename from old.py\n"
              "rename to new.py\n")
    with pytest.raises(DiffParseError, match="rename"):
        parse_diff(rename)


def test_parse_error_carries_line_number():
    bad = ("diff --git a/f b/f\n"
           "--- a/f\n"
           "+++ b/f\n"
           "@@ -1,2 +1,2 @@\n"
           " a\n"
           "?bogus\n")
    with pytest.raises(DiffParseError) as info:
        parse_diff(bad)
    assert info.value.line_number == 6
    assert "line 6" in str(info.value)


def test_parse_rejects_hunk_count_mismatch():
    bad = ("--- a/f\n"
           "+++ b/f\n"
           "@@ -1,3 +1,3 @@\n"
           " a\n"
           "-b\n"
           "+B\n")
    with pytest.raises(DiffParseError, match="declared length"):
        parse_diff(bad)


def test_parse_accepts_headerless_unified_diff():
    text = ("--- a/f.txt\n"
            "+++ b/f.txt\n"
            "@@ -1 +1 @@\n"
            "-a\n"
            "+b\n")
    change = parse_diff(text)
    assert change.file_diffs[0].path == "f.txt"
    assert git_apply({"f.txt": "a\n"}, render_change(change)) == {"f.txt": "b\n"}


def test_parse_multi_file_change():
    one = render_file_diff(compute_diff("a\n", "b\n", "one.py"))
    two = render_file_diff(compute_diff("c\n", "d\n", "two.py"))
    change = parse_diff(one + two)
    assert [fd.path for fd in change.file_diffs] == ["one.py", "two.py"]
    assert render_change(change) == one + two


def test_parse_empty_text_is_empty_change():
    assert parse_diff("").is_empty()


# --- interop with git -----------------------------------------------------

def _run_git(args, cwd):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True)


def test_file_modes_survive_a_parse_render_round_trip(tmp_path):
    """A git diff that adds one executable file and deletes another renders
    back with their modes: git applies the rendered patch with no warning
    and leaves the same files with the same modes as git's own patch."""
    repo = tmp_path / "repo"
    repo.mkdir()
    _run_git(["init", "-q"], repo)
    (repo / "run.sh").write_text("echo run\n", encoding="utf-8")
    (repo / "run.sh").chmod(0o755)
    _run_git(["add", "-A"], repo)
    _run_git(["-c", "user.name=t", "-c", "user.email=t@example.com",
              "commit", "-q", "-m", "base"], repo)
    (repo / "run.sh").unlink()
    (repo / "new.sh").write_text("echo new\n", encoding="utf-8")
    (repo / "new.sh").chmod(0o755)
    (repo / "notes.txt").write_text("plain\n", encoding="utf-8")
    _run_git(["add", "-A"], repo)
    patch = _run_git(["diff", "--cached"], repo).stdout
    assert "new file mode 100755" in patch
    assert "deleted file mode 100755" in patch

    rendered = render_change(parse_diff(patch))
    before = ({"run.sh": "echo run\n"}, {"run.sh"})
    by_git = git_apply_with_modes(*before, patch)
    assert by_git == ({"new.sh": "echo new\n", "notes.txt": "plain\n"},
                      {"new.sh"}, "")
    assert git_apply_with_modes(*before, rendered) == by_git


def test_git_applies_our_patches(tmp_path):
    """git apply must accept rendered output, including the tricky final
    newline transitions."""
    repo = tmp_path / "repo"
    repo.mkdir()
    _run_git(["init", "-q"], repo)
    cases = [
        ("plain.txt", "a\nb\nc\n", "a\nB\nc\n"),
        ("nofinal.txt", "x\ny", "x\ny\n"),
        ("losefinal.txt", "x\ny\n", "x\ny"),
    ]
    for name, old, new in cases:
        (repo / name).write_text(old, encoding="utf-8")
    _run_git(["add", "-A"], repo)
    patch = "".join(render_file_diff(compute_diff(old, new, name))
                    for name, old, new in cases)
    (tmp_path / "all.patch").write_text(patch, encoding="utf-8")
    _run_git(["apply", str(tmp_path / "all.patch")], repo)
    for name, _, new in cases:
        assert (repo / name).read_bytes() == new.encode()


def test_we_apply_git_patches(tmp_path):
    """Diffs produced by git itself must parse, and git must apply their
    rendering to the same result."""
    repo = tmp_path / "repo"
    repo.mkdir()
    _run_git(["init", "-q"], repo)
    old = "alpha\nbeta\ngamma\ndelta\n"
    new = "alpha\nBETA\ngamma\ndelta\nepsilon"
    (repo / "f.txt").write_text(old, encoding="utf-8")
    _run_git(["add", "-A"], repo)
    (repo / "f.txt").write_text(new, encoding="utf-8")
    out = _run_git(["diff", "--no-color"], repo).stdout
    change = parse_diff(out)
    assert git_apply({"f.txt": old}, render_change(change)) == {"f.txt": new}


# --- randomized round trips ----------------------------------------------

WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
         "crlf\r", "--- a/r.txt", "+++ b/r.txt", "@@ -1 +1 @@", "\\ tail"]


def random_text(rng: random.Random) -> str:
    n = rng.randrange(0, 40)
    lines = [rng.choice(WORDS) for _ in range(n)]
    text = "\n".join(lines)
    if lines and rng.random() < 0.8:
        text += "\n"
    return text


def mutate(text: str, rng: random.Random) -> str:
    lines = keyed_lines(text)
    for _ in range(rng.randrange(1, 4)):
        op = rng.choice(("insert", "delete", "replace"))
        if op == "insert" or not lines:
            at = rng.randrange(0, len(lines) + 1)
            lines.insert(at, rng.choice(WORDS) + "\n")
        elif op == "delete":
            del lines[rng.randrange(len(lines))]
        else:
            lines[rng.randrange(len(lines))] = rng.choice(WORDS) + "\n"
    out = "".join(lines)
    if out.endswith("\n") and rng.random() < 0.2:
        out = out[:-1]
    return out


def test_randomized_round_trips():
    """git applies every rendered diff of 150 seeded new, modified and
    deleted files, and the result is the new text."""
    rng = random.Random(20240817)
    for case in range(150):
        old = random_text(rng)
        new = mutate(old, rng)
        files = {"r.txt": old}
        fd = compute_diff(old, new, "r.txt")
        if case % 5 == 3:
            files, fd = {}, replace(compute_diff("", new, "r.txt"),
                                    is_new_file=True)
        elif case % 5 == 4:
            new, fd = "", replace(compute_diff(old, "", "r.txt"),
                                  is_deleted_file=True)
        elif new == old:
            assert not fd.hunks
            continue
        patch = render_change(parse_diff(render_file_diff(fd)))
        expected = {} if fd.is_deleted_file else {"r.txt": new}
        assert git_apply(files, patch) == expected, patch


# lines that look like diff syntax, CRLF line ends and a missing final
# newline are where a renderer and git can disagree
_PROPERTY_TEXT = st.text(alphabet="ab \r\n-+@\\", max_size=80)


@settings(max_examples=60, deadline=None)
@given(_PROPERTY_TEXT, _PROPERTY_TEXT)
def test_property_any_text_pair_round_trips(old, new):
    fd = compute_diff(old, new, "p.txt")
    if old == new:
        assert not fd.hunks
    else:
        patch = render_change(parse_diff(render_file_diff(fd)))
        assert git_apply({"p.txt": old}, patch) == {"p.txt": new}
