from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import git_apply
from conftest import scripted_gateway

from patchcrew.coder import (Coder, append_block, number_lines, split_file,
                             strip_code_fences, substitute)
from patchcrew.diffs import keyed_lines, render_change, render_file_diff
from patchcrew.errors import TransportError
from patchcrew.intervals import LineIntervalSet
from patchcrew.model import TaskAssignment


FILE = "def f():\n    return 1\n\ndef g():\n    return 2\n"


def _task(path="mod.py", qa_role=None) -> TaskAssignment:
    return TaskAssignment(file_path=path, task_text="fix the return value",
                          developer_role="backend dev", qa_role=qa_role)


# --- text helpers ----------------------------------------------------------------

def test_number_lines():
    assert number_lines("a\nb\n") == "1: a\n2: b"
    assert number_lines("a\nb") == "1: a\n2: b"
    assert number_lines("") == ""


@pytest.mark.parametrize("text,expected", [
    ("```python\nx = 1\n```", "x = 1\n"),
    ("```\nx = 1\ny = 2\n```\n", "x = 1\ny = 2\n"),
    ("\n\n```py\ncode\n```\n\n", "code\n"),
    ("```\n```", ""),
    ("plain text\nno fences", "plain text\nno fences"),
    ("```python\nunclosed", "```python\nunclosed"),
    ("before\n```\nx\n```", "before\n```\nx\n```"),
])
def test_strip_code_fences(text, expected):
    assert strip_code_fences(text) == expected


def test_split_file_middle_interval():
    retained, editable = split_file("a\nb\nc\nd\n", LineIntervalSet.of((2, 3)))
    assert retained == ["a\n", "d\n"]
    assert editable == ["b\nc\n"]


def test_split_file_empty_intervals():
    retained, editable = split_file(FILE, LineIntervalSet(()))
    assert retained == [FILE]
    assert editable == []


def test_split_file_rejects_out_of_range():
    with pytest.raises(ValueError, match="exceeds"):
        split_file("a\nb\n", LineIntervalSet.of((1, 5)))


@st.composite
def content_and_intervals(draw):
    n_lines = draw(st.integers(1, 12))
    terminal = draw(st.booleans())
    lines = [draw(st.text(alphabet="xyz ", max_size=4)) + "\n"
             for _ in range(n_lines)]
    if not terminal:
        lines[-1] = lines[-1][:-1] + "x"
    content = "".join(lines)
    bounds = sorted(draw(st.lists(st.integers(1, n_lines),
                                  min_size=0, max_size=4)))
    intervals = []
    it = iter(bounds)
    for a, b in zip(it, it):
        if not intervals or a > intervals[-1][1] + 1:
            intervals.append((a, b))
    return content, LineIntervalSet(tuple(intervals))


@given(content_and_intervals())
def test_split_then_substitute_is_identity(pair):
    content, intervals = pair
    retained, editable = split_file(content, intervals)
    assert len(retained) == len(editable) + 1
    assert substitute(retained, editable) == content


def test_substitute_heals_missing_newline():
    assert substitute(["a\n", "c\n"], ["b"]) == "a\nb\nc\n"
    assert substitute(["a\n", ""], ["b"]) == "a\nb"
    assert substitute(["", ""], [""]) == ""


def test_substitute_validates_lengths():
    with pytest.raises(ValueError, match="len\\(retained\\)"):
        substitute(["a\n"], ["b"])


def test_append_block():
    assert append_block("a\n", "b\n") == "a\nb\n"
    assert append_block("a", "b\n") == "a\nb\n"
    assert append_block("a\n", "") == "a\n"
    assert append_block("", "b\n") == "b\n"


# --- line location -----------------------------------------------------------------

def test_locate_lines_normalizes_and_clamps():
    gw = scripted_gateway({"P9": "notes\n[[2,99],[1,3]]"})
    coder = Coder(gw)
    got = coder.locate_lines(FILE, "task", role="dev", path="mod.py")
    assert got == LineIntervalSet.of((1, 5))


def test_locate_lines_keeps_adjacent_intervals_separate():
    gw = scripted_gateway({"P9": "[[1,1],[2,2]]"})
    coder = Coder(gw)
    got = coder.locate_lines(FILE, "task", role="dev", path="mod.py")
    assert got == LineIntervalSet.of((1, 1), (2, 2))


def test_locate_lines_empty_means_append():
    gw = scripted_gateway({"P9": "[]"})
    coder = Coder(gw)
    got = coder.locate_lines(FILE, "task", role="dev", path="mod.py")
    assert got.is_empty()


def test_locate_lines_rejects_empty_content():
    coder = Coder(scripted_gateway({}))
    with pytest.raises(ValueError, match="non-empty"):
        coder.locate_lines("", "task", role="dev", path="mod.py")


# --- QA persona ----------------------------------------------------------------------

def test_spawn_qa_attaches_role():
    gw = scripted_gateway({"P8": "meticulous reviewer"})
    task = Coder(gw).spawn_qa(_task(), FILE)
    assert task.qa_role == "meticulous reviewer"


def test_spawn_qa_failure_disables_review():
    def boom(_prompt):
        raise TransportError("down", attempts=3)

    coder = Coder(scripted_gateway({"P8": boom}))
    task = coder.spawn_qa(_task(), FILE)
    assert task.qa_role is None
    assert any("review disabled" in note for note in coder.notes)


def test_spawn_qa_respects_disable_flag():
    coder = Coder(scripted_gateway({}), qa_enabled=False)
    assert coder.spawn_qa(_task(), FILE).qa_role is None


# --- the revision loop ----------------------------------------------------------------

def _review_by_phase(verdicts: list[str]):
    """P11 handler: comments then scripted YES/NO decisions in order."""
    def handle(prompt: str) -> str:
        if "Current phase: decision" in prompt:
            return f"DECISION: {verdicts.pop(0)}"
        return "tighten the change"
    return handle


def test_execute_task_first_pass_approval():
    gw = scripted_gateway({
        "P9": "[[2,2]]",
        "P10": "    return 10\n",
        "P11": _review_by_phase(["YES"]),
    })
    result = Coder(gw).execute_task(_task(qa_role="qa"), FILE)
    assert result.approved
    assert not result.failed
    assert result.iterations == 1
    assert result.new_content == FILE.replace("return 1\n", "return 10\n")
    patched = git_apply({"mod.py": FILE}, render_file_diff(result.file_diff))
    assert patched == {"mod.py": result.new_content}
    assert len(result.attempts) == 1
    assert result.attempts[0].review.approved
    assert gw.call_counts["P11"] == 2


def test_execute_task_exhausts_review_loop():
    p9_prompts: list[str] = []

    def locate(prompt: str) -> str:
        p9_prompts.append(prompt)
        return "[[2,2]]"

    gw = scripted_gateway({
        "P9": locate,
        "P10": "    return 10\n",
        "P11": _review_by_phase(["NO", "NO", "NO"]),
    })
    result = Coder(gw, n_max=3).execute_task(_task(qa_role="qa"), FILE)
    assert not result.approved
    assert not result.failed
    assert result.iterations == 3
    assert len(result.attempts) == 3
    assert all(not a.review.approved for a in result.attempts)
    assert gw.call_counts["P11"] == 6
    assert result.new_content == FILE.replace("return 1\n", "return 10\n")
    assert "Review comment:" not in p9_prompts[0]
    assert p9_prompts[1].count("Review comment:") == 1
    assert p9_prompts[2].count("Review comment:") == 2
    assert "tighten the change" in p9_prompts[1]


def test_execute_task_each_iteration_rewrites_the_original():
    segments: list[str] = []

    def replacement(prompt: str) -> str:
        marker = "The region currently reads:\n"
        segments.append(prompt.split(marker, 1)[1])
        return "    return 10\n"

    gw = scripted_gateway({
        "P9": "[[2,2]]",
        "P10": replacement,
        "P11": _review_by_phase(["NO", "YES"]),
    })
    result = Coder(gw).execute_task(_task(qa_role="qa"), FILE)
    assert result.iterations == 2
    assert len(segments) == 2
    assert segments[0] == segments[1]


def test_execute_task_ships_prior_diff_when_llm_dies_mid_loop():
    calls = {"n": 0}

    def locate(_prompt: str) -> str:
        calls["n"] += 1
        if calls["n"] > 1:
            raise TransportError("down", attempts=3)
        return "[[2,2]]"

    gw = scripted_gateway({
        "P9": locate,
        "P10": "    return 10\n",
        "P11": _review_by_phase(["NO", "NO", "NO"]),
    })
    result = Coder(gw).execute_task(_task(qa_role="qa"), FILE)
    assert not result.failed
    assert not result.approved
    assert result.iterations == 2
    assert result.new_content == FILE.replace("return 1\n", "return 10\n")
    assert result.attempts[-1].error


def test_execute_task_fails_when_nothing_was_produced():
    def boom(_prompt):
        raise TransportError("down", attempts=3)

    coder = Coder(scripted_gateway({"P9": boom}))
    result = coder.execute_task(_task(qa_role="qa"), FILE)
    assert result.failed
    assert result.file_diff.hunks == ()
    assert result.new_content == FILE
    assert any("no iteration produced" in note for note in coder.notes)


def test_execute_task_without_qa_is_single_pass():
    gw = scripted_gateway({"P9": "[[2,2]]", "P10": "    return 10\n"})
    result = Coder(gw).execute_task(_task(), FILE)
    assert result.iterations == 1
    assert not result.approved
    assert result.attempts[0].review is None
    assert "P11" not in gw.call_counts


def test_execute_task_ships_unreviewed_when_review_dies():
    def boom(_prompt):
        raise TransportError("down", attempts=3)

    gw = scripted_gateway({"P9": "[[2,2]]", "P10": "    return 10\n",
                           "P11": boom})
    coder = Coder(gw)
    result = coder.execute_task(_task(qa_role="qa"), FILE)
    assert not result.failed
    assert result.iterations == 1
    assert result.new_content == FILE.replace("return 1\n", "return 10\n")
    assert any("shipping unreviewed" in note for note in coder.notes)


def test_execute_task_appends_when_no_lines_located():
    gw = scripted_gateway({"P9": "[]", "P10": "def h():\n    return 3\n"})
    result = Coder(gw).execute_task(_task(), FILE)
    assert result.new_content == FILE + "def h():\n    return 3\n"


def test_execute_task_blank_replacement_deletes():
    gw = scripted_gateway({"P9": "[[4,5]]", "P10": "   \n"})
    result = Coder(gw).execute_task(_task(), FILE)
    assert result.new_content == "def f():\n    return 1\n\n"


def test_execute_task_new_file():
    gw = scripted_gateway({"P10": "print('hi')\n"})
    result = Coder(gw).execute_task(_task(path="new.py"), "",
                                    is_new_file=True)
    assert result.new_content == "print('hi')\n"
    assert result.file_diff.is_new_file
    assert "P9" not in gw.call_counts


def test_n_max_validated():
    with pytest.raises(ValueError, match="n_max"):
        Coder(scripted_gateway({}), n_max=0)


# --- context windows ---------------------------------------------------------------

def test_context_is_whole_file_when_small():
    coder = Coder(scripted_gateway({}))
    assert coder._context_for(FILE, LineIntervalSet.of((1, 1)), "") == FILE


def test_context_windows_large_files():
    content = "".join(f"line {i}\n" for i in range(1, 501))
    coder = Coder(scripted_gateway({}))
    context = coder._context_for(content, LineIntervalSet.of((250, 250)),
                                 "does things")
    assert context.startswith("(file summary)\ndoes things")
    assert "(lines 210-290)" in context
    assert "line 210\n" in context
    assert "line 290\n" in context
    assert "line 209\n" not in context
    assert len(keyed_lines(context)) < 120


# --- one task per file ----------------------------------------------------------------

def test_resolve_issue_rejects_tasks_sharing_a_file():
    gw = scripted_gateway({})
    coder = Coder(gw, qa_enabled=False)
    tasks = [_task(), _task(path="other.py"), _task()]
    with pytest.raises(ValueError, match="share a file: mod.py"):
        coder.resolve_issue(tasks, {"mod.py": FILE, "other.py": FILE})
    assert gw.total_calls() == 0


def test_resolve_issue_merges_one_diff_per_task_sorted_by_path():
    # each task starts from its own file's original content; the results
    # keep task order, and the change lists the files by path
    gw = scripted_gateway({"P9": "[[1,1]]",
                           "P10": lambda p: "Z\n" if "z.py" in p else "A\n"})
    coder = Coder(gw, qa_enabled=False)
    tasks = [_task(path="z.py"), _task(path="a.py")]
    files = {"a.py": "a\nb\n", "z.py": "z\nb\n"}
    change, results = coder.resolve_issue(tasks, files)
    assert [r.task.file_path for r in results] == ["z.py", "a.py"]
    assert [fd.path for fd in change.file_diffs] == ["a.py", "z.py"]
    assert git_apply(files, render_change(change)) == {"a.py": "A\nb\n",
                                                       "z.py": "Z\nb\n"}


def test_resolve_issue_marks_new_files():
    gw = scripted_gateway({"P10": "x = 1\n"})
    coder = Coder(gw, qa_enabled=False)
    change, results = coder.resolve_issue([_task(path="fresh.py")], {})
    assert results[0].file_diff.is_new_file
    assert change.file_diffs[0].is_new_file
    assert git_apply({}, render_change(change)) == {"fresh.py": "x = 1\n"}


def test_resolve_issue_skips_failed_tasks():
    def boom(_prompt):
        raise TransportError("down", attempts=3)

    gw = scripted_gateway({"P9": boom})
    coder = Coder(gw, qa_enabled=False)
    change, results = coder.resolve_issue([_task()], {"mod.py": FILE})
    assert results[0].failed
    assert change.file_diffs == ()
