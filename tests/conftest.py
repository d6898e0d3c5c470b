from __future__ import annotations

import hashlib
import json
import os
import subprocess
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import _e2e_data as e2e

from patchcrew import gitops
from patchcrew.custodian import Documents, TermIndex
from patchcrew.llm import Gateway, ReplayBackend


def pytest_configure(config):
    # every git the tests run, the session fixtures' included, reads no
    # git config of the developer's (a commit.gpgsign there fails every
    # commit); a test that sets one through monkeypatch still overrides it
    os.environ.update(GIT_CONFIG_GLOBAL=os.devnull, GIT_CONFIG_NOSYSTEM="1")


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


def blob_id(text: str) -> str:
    """The id git gives a blob of this content."""
    data = text.encode("utf-8")
    return hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()


def reader(files: dict[str, str]):
    """A Custodian.locate reader over files held in memory."""
    return lambda paths: {path: files[path] for path in paths}


def stream(files: dict[str, str]):
    """A TermIndex.update reader over files held in memory."""
    return lambda blobs: ((path, files[path]) for path in blobs)


def documents(files: dict[str, str]) -> Documents:
    """What rank_files ranks, for files held in memory: a term index
    built from them."""
    listing = {path: blob_id(text) for path, text in files.items()}
    index = TermIndex()
    index.update(listing, stream(files))
    return index.documents(listing)


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


class _LoopbackHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length") or 0)
        seen = (self.requestline, self.headers, self.rfile.read(length))
        self.server.seen.append(seen)
        status, headers, body = self.server.answer(*seen)
        head = [f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
                *(f"{name}: {value}" for name, value in headers.items()),
                f"Content-Length: {len(body)}", "Connection: close", "", ""]
        # one send: a reply split into a header and a body write can wait
        # out the client's delayed ACK
        self.wfile.write("\r\n".join(head).encode("latin-1") + body)
        self.close_connection = True

    do_GET = do_POST

    def log_message(self, format, *args):
        pass


def chat_reply(content) -> tuple[int, dict, bytes]:
    """A chat-completion API's answer whose message content is content."""
    body = {"choices": [{"message": {"role": "assistant", "content": content}}]}
    return 200, {"Content-Type": "application/json"}, json.dumps(body).encode()


@pytest.fixture()
def no_proxy_env(monkeypatch):
    """Clears the proxy variables, so an HTTP call goes direct unless the
    test sets one."""
    for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


@pytest.fixture()
def loopback(no_proxy_env):
    """Starts HTTP servers on 127.0.0.1: ``loopback(answer)`` returns one
    whose ``url`` has no path and whose ``seen`` lists each request it got
    as (request line, headers, body). ``answer`` maps those three to the
    reply's (status, headers, body)."""
    running = []

    def start(answer):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _LoopbackHandler)
        server.answer, server.seen = answer, []
        server.url = f"http://127.0.0.1:{server.server_port}"
        # a short poll keeps shutdown() from waiting half a second
        thread = threading.Thread(target=server.serve_forever, args=(0.02,),
                                  daemon=True)
        thread.start()
        running.append((server, thread))
        return server

    yield start
    for server, thread in running:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()
