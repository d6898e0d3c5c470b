from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import scripted_gateway

from patchcrew.errors import TransportError
from patchcrew.model import MANAGER_ROLE, MeetingTranscript, TaskAssignment
from patchcrew.planner import (NO_STATEMENT, Planner, format_task_list,
                               parse_plan_groups, render_transcript,
                               repair_groups)


def _task(i: int) -> TaskAssignment:
    return TaskAssignment(file_path=f"mod_{i}.py",
                          task_text=f"fix bug {i}\nwith details",
                          developer_role=f"dev {i}")


# --- formatting helpers --------------------------------------------------------

def test_render_transcript():
    turns = [("Manager", "welcome"), ("Developer 0", "line one\nline two")]
    assert render_transcript(turns) == (
        "[Manager]\nwelcome\n\n[Developer 0]\nline one\nline two")
    assert render_transcript([]) == ""


def test_format_task_list_uses_first_line():
    text = format_task_list([_task(0), _task(1)])
    assert text == "0: mod_0.py: fix bug 0\n1: mod_1.py: fix bug 1"


# --- plan parsing ----------------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("[[0,1],[2]]", [[0, 1], [2]]),
    ("thinking...\n\n[[2],[0]]\n", [[2], [0]]),
    ("[]", []),
    ("[[0], [1]] trailing words", None),
    ("no json here", None),
    ("[[true]]", None),
    ("[[0.5]]", None),
    ("[0,1]", None),
    ('{"a": 1}', None),
    ("[[0],\n[1]]", None),
])
def test_parse_plan_groups(text, expected):
    assert parse_plan_groups(text) == expected


def test_repair_groups_basics():
    assert repair_groups([[0, 1], [2]], 3) == ((0, 1), (2,))
    assert repair_groups([[1, 7, 1], []], 3) == ((1,), (0,), (2,))
    assert repair_groups([], 2) == ((0,), (1,))
    assert repair_groups([[2, 0], [0, 1]], 3) == ((2, 0), (1,))
    assert repair_groups([[-1]], 1) == ((0,),)


@given(st.lists(st.lists(st.integers(-3, 12), max_size=6), max_size=6),
       st.integers(0, 8))
def test_repair_groups_always_partitions(groups, n_tasks):
    repaired = repair_groups(groups, n_tasks)
    flat = [i for group in repaired for i in group]
    assert sorted(flat) == list(range(n_tasks))
    assert all(group for group in repaired)


# --- team building ---------------------------------------------------------------

def test_build_team_assigns_task_and_role():
    # answers keyed by prompt: the candidates' calls run on threads, so
    # they may arrive in any order
    gw = scripted_gateway({
        "P4": lambda p: "task a" if "file a.py" in p else "task b",
        "P5": lambda p: "role a" if "task a" in p else "role b"})
    planner = Planner(gw)
    tasks = planner.build_team(["a.py", "b.py"], {"a.py": "x", "b.py": "y"},
                               "the issue")
    assert [(t.file_path, t.task_text, t.developer_role) for t in tasks] == [
        ("a.py", "task a", "role a"), ("b.py", "task b", "role b")]
    assert all(t.qa_role is None for t in tasks)


def test_build_team_skips_file_on_llm_failure():
    def fail_on_b(prompt: str) -> str:
        if "b.py" in prompt:
            raise TransportError("down", attempts=3)
        return "task text"

    gw = scripted_gateway({"P4": fail_on_b, "P5": "role text"})
    planner = Planner(gw)
    tasks = planner.build_team(["a.py", "b.py", "c.py"],
                               {"a.py": "", "b.py": "", "c.py": ""}, "issue")
    assert [t.file_path for t in tasks] == ["a.py", "c.py"]
    assert any("b.py" in note for note in planner.notes)


def test_build_team_caps_candidates():
    gw = scripted_gateway({"P4": "task", "P5": "role"})
    planner = Planner(gw)
    paths = [f"f{i:02d}.py" for i in range(17)]
    tasks = planner.build_team(paths, {p: "" for p in paths}, "issue")
    assert len(tasks) == 16
    assert tasks[-1].file_path == "f15.py"
    assert any("f16.py" in note for note in planner.notes)
    assert gw.call_counts == {"P4": 16, "P5": 16}


# --- the meeting ------------------------------------------------------------------

def test_kickoff_meeting_turn_structure():
    gw = scripted_gateway({
        "MEETING_OPEN": "hello team",
        "MEETING_TURN": "my plan",
        "MEETING_SUMMARY": "wrap up",
    })
    planner = Planner(gw, meeting_rounds=2)
    tasks = [_task(0), _task(1), _task(2)]
    transcript = planner.kickoff_meeting(tasks, "issue")
    assert len(transcript.turns) == 2 + 2 * 3
    assert transcript.turns[0] == (MANAGER_ROLE, "hello team")
    assert transcript.turns[-1] == (MANAGER_ROLE, "wrap up")
    assert transcript.summary == "wrap up"
    speakers = [s for s, _ in transcript.turns[1:-1]]
    assert speakers == ["Developer 0", "Developer 1", "Developer 2"] * 2
    assert gw.call_counts == {"MEETING_OPEN": 1, "MEETING_TURN": 6,
                              "MEETING_SUMMARY": 1}


def test_meeting_turns_see_transcript_so_far():
    seen: list[str] = []

    def turn(prompt: str) -> str:
        seen.append(prompt)
        return f"statement {len(seen)}"

    gw = scripted_gateway({"MEETING_OPEN": "opening words",
                           "MEETING_TURN": turn,
                           "MEETING_SUMMARY": "done"})
    planner = Planner(gw, meeting_rounds=1)
    planner.kickoff_meeting([_task(0), _task(1)], "issue")
    assert "opening words" in seen[0]
    assert "statement 1" not in seen[0]
    assert "statement 1" in seen[1]


def test_meeting_tolerates_failed_turns():
    def second_turn_fails(prompt: str) -> str:
        if "[Developer 0]" in prompt:
            raise TransportError("down", attempts=3)
        return "fine"

    gw = scripted_gateway({"MEETING_OPEN": "open",
                           "MEETING_TURN": second_turn_fails,
                           "MEETING_SUMMARY": "summary"})
    planner = Planner(gw, meeting_rounds=1)
    transcript = planner.kickoff_meeting([_task(0), _task(1)], "issue")
    assert transcript.turns[1] == ("Developer 0", "fine")
    assert transcript.turns[2] == ("Developer 1", NO_STATEMENT)
    assert transcript.summary == "summary"
    assert any("Developer 1" in note for note in planner.notes)


def test_kickoff_meeting_requires_tasks():
    planner = Planner(scripted_gateway({}))
    with pytest.raises(ValueError, match="at least one task"):
        planner.kickoff_meeting([], "issue")


def test_meeting_rounds_validated():
    with pytest.raises(ValueError, match="meeting_rounds"):
        Planner(scripted_gateway({}), meeting_rounds=0)


# --- role refinement ----------------------------------------------------------------

def _transcript() -> MeetingTranscript:
    return MeetingTranscript(
        turns=((MANAGER_ROLE, "open"), ("Developer 0", "talk"),
               (MANAGER_ROLE, "close")),
        summary="close")


def test_refine_roles_rewrites_positionally():
    gw = scripted_gateway({
        "P6": lambda p: "new role 0" if "dev 0" in p else "new role 1"})
    planner = Planner(gw)
    refined = planner.refine_roles([_task(0), _task(1)], _transcript())
    assert [t.developer_role for t in refined] == ["new role 0", "new role 1"]
    assert [t.task_text for t in refined] == [_task(0).task_text,
                                              _task(1).task_text]


def test_refine_roles_keeps_original_on_failure():
    def fail_first(prompt: str) -> str:
        if "dev 0" in prompt:
            raise TransportError("down", attempts=3)
        return "refined"

    planner = Planner(scripted_gateway({"P6": fail_first}))
    refined = planner.refine_roles([_task(0), _task(1)], _transcript())
    assert refined[0].developer_role == "dev 0"
    assert refined[1].developer_role == "refined"


# --- plan assembly -------------------------------------------------------------------

def test_make_plan_repairs_model_output():
    gw = scripted_gateway({"P7": "here is my plan\n[[1,0],[1],[9]]"})
    planner = Planner(gw)
    plan = planner.make_plan(_transcript(), [_task(0), _task(1), _task(2)])
    assert plan.groups == ((1, 0), (2,))


def test_make_plan_falls_back_to_singletons():
    gw = scripted_gateway({"P7": "no schedule, sorry"})
    planner = Planner(gw)
    plan = planner.make_plan(_transcript(), [_task(0), _task(1)])
    assert plan.groups == ((0,), (1,))
    assert any("falling back" in note for note in planner.notes)


def test_make_plan_survives_llm_failure():
    def boom(_prompt):
        raise TransportError("down", attempts=3)

    planner = Planner(scripted_gateway({"P7": boom}))
    plan = planner.make_plan(_transcript(), [_task(0), _task(1), _task(2)])
    assert plan.groups == ((0,), (1,), (2,))
