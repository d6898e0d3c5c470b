from __future__ import annotations

import pytest

from patchcrew import prompts
from patchcrew.errors import TemplateError
from patchcrew.prompts import PromptTemplate, get_template, render

EXPECTED_IDS = {
    "P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10", "P11",
    "MEETING_OPEN", "MEETING_TURN", "MEETING_SUMMARY",
}


def test_all_templates_registered():
    assert set(prompts._TEMPLATES) == EXPECTED_IDS


def test_get_template_unknown_id():
    with pytest.raises(TemplateError, match="unknown template id"):
        get_template("P99")


def test_render_substitutes_all_placeholders():
    out = render(prompts.RELEVANCE_DECISION,
                 {"issue": "it breaks", "summary": "a summary"})
    assert "it breaks" in out
    assert "a summary" in out
    assert "<<" not in out


_VARIABLE_PAIRS = [(tid, a, b) for tid in sorted(EXPECTED_IDS)
                   for a in get_template(tid).required_vars
                   for b in get_template(tid).required_vars if a != b]


@pytest.mark.parametrize("template_id,inserted,named", _VARIABLE_PAIRS)
def test_render_leaves_inserted_values_alone(template_id, inserted, named):
    # a value that spells another variable's placeholder (a diff or an
    # issue quoting a prompt, say) reaches the model verbatim
    body = get_template(template_id).body
    variables = {name: f"value of {name}"
                 for name in get_template(template_id).required_vars}
    variables[inserted] = f"<<{named}>>"
    out = render(template_id, variables)
    assert out.count(f"<<{named}>>") == body.count(f"<<{inserted}>>")
    assert out.count(f"value of {named}") == body.count(f"<<{named}>>")


def test_render_missing_variable():
    with pytest.raises(TemplateError, match="missing variable: summary"):
        render(prompts.RELEVANCE_DECISION, {"issue": "x"})


def test_render_extra_variable():
    with pytest.raises(TemplateError, match="unexpected variables"):
        render(prompts.COMMIT_MESSAGE, {"diff": "d", "mood": "sour"})


def test_render_rejects_non_string_values():
    with pytest.raises(TemplateError, match="must be a string"):
        render(prompts.COMMIT_MESSAGE, {"diff": 42})


def test_template_variables_are_the_body_placeholders():
    tpl = PromptTemplate("X1", "uses <<b>>, <<a>> and <<b>> again")
    assert tpl.required_vars == ("b", "a")


def test_decision_templates_state_the_marker():
    for tid in (prompts.RELEVANCE_DECISION, prompts.REVIEW):
        body = get_template(tid).body
        assert "DECISION: YES" in body
        assert "DECISION: NO" in body


def test_interval_template_states_json_and_append_form():
    body = get_template(prompts.LINE_INTERVALS).body
    assert "[start, end]" in body
    assert "[]" in body


def test_review_template_is_two_phase():
    tpl = get_template(prompts.REVIEW)
    assert "phase" in tpl.required_vars
    assert "comment" in tpl.required_vars


def test_replacement_template_forbids_fences():
    body = get_template(prompts.REPLACEMENT_CODE).body
    assert "no fences" in body
    assert "empty response deletes" in body.lower()
