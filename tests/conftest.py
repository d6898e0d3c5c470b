from __future__ import annotations

import pytest

import _e2e_data as e2e

from patchcrew.llm import Gateway, ReplayBackend


class ScriptedBackend:
    """Per-template responses for direct unit tests: a string answers every
    call, a list is consumed in the order calls arrive, a callable sees the
    rendered prompt. Calls a stage makes concurrently arrive in any order,
    so script those with a callable. A missing template is a test bug, not
    an LLM failure."""

    mode = "replay"
    network_calls = 0

    def __init__(self, responses: dict):
        self.responses = {
            tid: list(r) if isinstance(r, list) else r
            for tid, r in responses.items()
        }

    def complete(self, key: str, template_id: str, rendered_prompt: str) -> str:
        try:
            handler = self.responses[template_id]
        except KeyError:
            raise AssertionError(
                f"no scripted response for template {template_id}") from None
        if callable(handler):
            return handler(rendered_prompt)
        if isinstance(handler, list):
            if not handler:
                raise AssertionError(
                    f"scripted responses for {template_id} exhausted")
            return handler.pop(0)
        return handler


def scripted_gateway(responses: dict) -> Gateway:
    return Gateway(ScriptedBackend(responses))


@pytest.fixture()
def replay_gateway() -> Gateway:
    return Gateway(ReplayBackend(e2e.CASSETTE_PATH))


@pytest.fixture(scope="session")
def fixture_repo(tmp_path_factory):
    """The toy repository from the replay fixture, built once."""
    repo = tmp_path_factory.mktemp("fixture") / "repo"
    sha = e2e.build_fixture_repo(repo)
    return repo, sha


@pytest.fixture(scope="session")
def fixture_instance_file(fixture_repo, tmp_path_factory):
    repo, sha = fixture_repo
    path = tmp_path_factory.mktemp("instance") / f"{e2e.INSTANCE_ID}.json"
    return e2e.write_instance(path, repo, sha)
