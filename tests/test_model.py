from __future__ import annotations

import json
import re

import pytest

from patchcrew.errors import InstanceError
from patchcrew.model import (MANAGER_ROLE, IssueInstance, MeetingTranscript,
                             ReviewOutcome, TaskAssignment, TestSpec,
                             WorkPlan, instance_from_dict, load_instance)


def _instance_data(**overrides):
    data = {
        "instance_id": "demo-1",
        "repo_path": "/srv/repo",
        "base_revision": "abc123",
        "issue_text": "the widget wobbles",
        "pass_to_pass": ["true"],
        "fail_to_pass": ["true"],
    }
    data.update(overrides)
    return data


def test_test_spec_rejects_blank_command():
    with pytest.raises(ValueError, match="non-empty"):
        TestSpec(pass_to_pass=("  ",))


def test_test_spec_rejects_nonpositive_timeout():
    with pytest.raises(ValueError, match="timeout"):
        TestSpec(timeout_seconds=0)


def test_issue_instance_requires_core_fields():
    with pytest.raises(ValueError):
        IssueInstance("", "/repo", "rev", "text")
    with pytest.raises(ValueError):
        IssueInstance("id", "", "rev", "text")
    with pytest.raises(ValueError):
        IssueInstance("id", "/repo", "", "text")


@pytest.mark.parametrize("path", ["/abs/file.py", "../escape.py", ""])
def test_issue_instance_rejects_unsafe_oracle_paths(path):
    with pytest.raises(ValueError):
        IssueInstance("id", "/repo", "rev", "text", oracle_files=(path,))


@pytest.mark.parametrize("paths,named", [
    (("a.py", "b.py", "a.py"), "listed more than once: 'a.py'"),
    (("./a.py",), "'./a.py'"),
    (("a//b.py",), "'a//b.py'"),
    (("a/./b.py",), "'a/./b.py'"),
    (("a/b.py/",), "'a/b.py/'"),
], ids=["repeated", "dot-prefix", "double-slash", "dot-segment",
        "trailing-slash"])
def test_oracle_files_are_listed_once_in_normal_form(paths, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        IssueInstance("id", "/repo", "rev", "text", oracle_files=paths)
    with pytest.raises(InstanceError, match=re.escape(named)):
        instance_from_dict(_instance_data(oracle_files=list(paths)))


def test_task_assignment_validation():
    with pytest.raises(ValueError):
        TaskAssignment("", "do it", "dev")
    with pytest.raises(ValueError):
        TaskAssignment("f.py", "   ", "dev")
    with pytest.raises(ValueError):
        TaskAssignment("f.py", "do it", "")
    task = TaskAssignment("f.py", "do it", "dev")
    assert task.qa_role is None


def test_meeting_transcript_manager_brackets():
    good = MeetingTranscript(
        turns=((MANAGER_ROLE, "open"), ("Developer 0", "ok"),
               (MANAGER_ROLE, "close")),
        summary="close")
    assert good.turns[0][0] == MANAGER_ROLE
    with pytest.raises(ValueError, match="open"):
        MeetingTranscript(turns=(("Developer 0", "hi"), (MANAGER_ROLE, "x")))
    with pytest.raises(ValueError, match="close"):
        MeetingTranscript(turns=((MANAGER_ROLE, "x"), ("Developer 0", "hi")))


def test_work_plan_must_partition_indices():
    WorkPlan(groups=((0, 2), (1,)))
    with pytest.raises(ValueError):
        WorkPlan(groups=((0, 0),))
    with pytest.raises(ValueError):
        WorkPlan(groups=((0, 2),))  # skips 1


def test_review_outcome_rejection_needs_comment():
    ReviewOutcome(comment="", approved=True)
    with pytest.raises(ValueError):
        ReviewOutcome(comment="  ", approved=False)


def test_instance_from_dict_happy_path():
    inst = instance_from_dict(_instance_data(timeout_seconds=30))
    assert inst.instance_id == "demo-1"
    assert inst.test_spec.timeout_seconds == 30
    assert inst.test_spec.pass_to_pass == ("true",)


def test_instance_from_dict_rejects_unknown_field():
    with pytest.raises(InstanceError, match="unknown fields: severity"):
        instance_from_dict(_instance_data(severity="high"))


def test_instance_from_dict_reports_missing_field():
    data = _instance_data()
    del data["issue_text"]
    with pytest.raises(InstanceError, match="issue_text") as info:
        instance_from_dict(data)
    assert info.value.field == "issue_text"


def test_instance_from_dict_type_checks():
    with pytest.raises(InstanceError, match="must be a string"):
        instance_from_dict(_instance_data(issue_text=7))
    with pytest.raises(InstanceError, match="list of strings"):
        instance_from_dict(_instance_data(oracle_files="a.py"))
    with pytest.raises(InstanceError, match="integer"):
        instance_from_dict(_instance_data(timeout_seconds=True))
    with pytest.raises(InstanceError):
        instance_from_dict([1, 2])


def test_load_instance_io_errors(tmp_path):
    with pytest.raises(InstanceError, match="cannot read"):
        load_instance(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(InstanceError, match="not valid JSON"):
        load_instance(bad)


def test_load_instance_reads_file(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_instance_data()), encoding="utf-8")
    inst = load_instance(path)
    assert inst.base_revision == "abc123"
