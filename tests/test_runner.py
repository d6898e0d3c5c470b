from __future__ import annotations

import importlib.util
import subprocess
import tempfile
from pathlib import Path

import pytest

import _e2e_data as e2e

from patchcrew.custodian import load_memory
from patchcrew.errors import CassetteMissError
from patchcrew.llm import Gateway, ReplayBackend
from patchcrew import runner
from patchcrew.model import instance_from_dict
from patchcrew.runner import RunConfig, build_gateway, resolve_instance


def _config(tmp_path, **overrides) -> RunConfig:
    kwargs = dict(llm_mode="replay", cassette_path=str(e2e.CASSETTE_PATH),
                  top_k=e2e.TOP_K, meeting_rounds=e2e.MEETING_ROUNDS,
                  out_dir=tmp_path / "runs")
    kwargs.update(overrides)
    return RunConfig(**kwargs)


def _instance(fixture_repo, **overrides):
    repo, sha = fixture_repo
    data = e2e.instance_dict(repo, sha)
    data.update(overrides)
    return instance_from_dict(data)


# --- configuration -----------------------------------------------------------------

def test_config_validates_mode():
    with pytest.raises(ValueError, match="llm_mode"):
        RunConfig(llm_mode="telepathy")


@pytest.mark.parametrize("mode", ["replay", "record"])
def test_config_requires_cassette_for_tape_modes(mode):
    with pytest.raises(ValueError, match="requires a cassette"):
        RunConfig(llm_mode=mode)


def test_build_gateway_replay_mode():
    gw = build_gateway(RunConfig(llm_mode="replay",
                                 cassette_path=str(e2e.CASSETTE_PATH)))
    assert gw.mode == "replay"
    assert gw.network_calls == 0


# --- full replay runs ------------------------------------------------------------------

def test_resolve_instance_replays_to_expected_patch(fixture_repo, tmp_path):
    outcome = resolve_instance(_instance(fixture_repo), _config(tmp_path))
    assert outcome.produced_change
    expected = e2e.EXPECTED_PATCH_PATH.read_text(encoding="utf-8")
    assert outcome.patch_path.read_text(encoding="utf-8") == expected
    assert outcome.instance_id == e2e.INSTANCE_ID
    assert outcome.elapsed_seconds >= 0
    assert len(outcome.task_results) == 1
    assert outcome.task_results[0].approved


def test_resolve_instance_report_layout(fixture_repo, tmp_path):
    outcome = resolve_instance(_instance(fixture_repo), _config(tmp_path))
    report = outcome.report_dir
    assert (report / "meeting.txt").exists()
    assert (report / "plan.txt").exists()
    assert (report / "notes.txt").exists()
    assert (report / "run.txt").exists()
    attempt = report / "task_0" / "attempt_0"
    assert (attempt / "intervals.txt").read_text(encoding="utf-8") == "[2,2]\n"
    assert (attempt / "diff.patch").read_text(encoding="utf-8").startswith(
        "diff --git a/calc.py b/calc.py\n")
    review = (attempt / "review.txt").read_text(encoding="utf-8")
    assert review.startswith("approved: yes")

    meeting = (report / "meeting.txt").read_text(encoding="utf-8")
    assert meeting.startswith("[Manager]\n")
    assert "# summary" in meeting

    plan = (report / "plan.txt").read_text(encoding="utf-8")
    assert "stage 1: tasks 0" in plan
    assert "file: calc.py" in plan

    run_text = (report / "run.txt").read_text(encoding="utf-8")
    assert f"instance: {e2e.INSTANCE_ID}" in run_text
    assert "mode: replay" in run_text
    assert ("flags: top_k=4 max_review_iters=3 meeting_rounds=1 oracle=false"
            " qa=true hints=true\n") in run_text
    assert "network_calls: 0" in run_text
    assert "bm25_calls: 1" in run_text


def test_resolve_instance_oracle_bypasses_ranking(fixture_repo, tmp_path):
    instance = _instance(fixture_repo, oracle_files=["calc.py"])
    gateway = Gateway(ReplayBackend(e2e.CASSETTE_PATH))
    outcome = resolve_instance(instance, _config(tmp_path, use_oracle=True),
                               gateway=gateway)
    assert outcome.produced_change
    expected = e2e.EXPECTED_PATCH_PATH.read_text(encoding="utf-8")
    assert outcome.patch_path.read_text(encoding="utf-8") == expected
    assert "P2" not in gateway.call_counts
    assert "P3" not in gateway.call_counts
    run_text = (outcome.report_dir / "run.txt").read_text(encoding="utf-8")
    assert "bm25_calls: 0" in run_text
    assert "oracle=true" in run_text


def test_resolve_instance_persists_memory(fixture_repo, tmp_path):
    memory_path = tmp_path / "memory.jsonl"
    resolve_instance(_instance(fixture_repo),
                     _config(tmp_path, memory_path=str(memory_path)))
    memory = load_memory(memory_path)
    assert set(memory.entries) == set(e2e.REPO_FILES)
    assert memory.entries["calc.py"].summary == e2e.SUMMARIES["calc.py"]

    # a second run loads the same file back in and reuses it
    outcome = resolve_instance(_instance(fixture_repo),
                               _config(tmp_path, memory_path=str(memory_path)))
    assert outcome.produced_change


def test_resolve_instance_keeps_memory_when_a_later_stage_fails(
        fixture_repo, tmp_path):
    cassette = e2e.cassette_without("MEETING_OPEN",
                                    tmp_path / "no-meeting.jsonl")
    memory_path = tmp_path / "memory.jsonl"
    with pytest.raises(CassetteMissError, match="MEETING_OPEN:"):
        resolve_instance(_instance(fixture_repo),
                         _config(tmp_path, cassette_path=str(cassette),
                                 memory_path=str(memory_path)))
    assert set(load_memory(memory_path).entries) == set(e2e.REPO_FILES)


def _tree(root) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_replay_report_matches_checked_in_report(fixture_repo, tmp_path):
    outcome = resolve_instance(_instance(fixture_repo), _config(tmp_path))
    produced = _tree(outcome.report_dir)
    del produced["run.txt"]  # carries the wall time
    assert produced == _tree(e2e.EXPECTED_REPORT_DIR)
    assert outcome.patch_path.read_bytes() == e2e.EXPECTED_PATCH_PATH.read_bytes()


def test_resolve_instance_makes_no_checkout(fixture_repo, tmp_path,
                                           monkeypatch):
    def no_checkout(*args, **kwargs):
        raise AssertionError("resolve made a checkout")

    monkeypatch.setattr(runner, "snapshot", no_checkout)
    outcome = resolve_instance(_instance(fixture_repo), _config(tmp_path))
    produced = _tree(outcome.report_dir)
    assert b"workspace_kept: -\n" in produced.pop("run.txt")
    assert produced == _tree(e2e.EXPECTED_REPORT_DIR)
    assert outcome.patch_path.read_bytes() == e2e.EXPECTED_PATCH_PATH.read_bytes()


def test_resolve_instance_keeps_a_detached_checkout_on_request(
        fixture_repo, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    _, sha = fixture_repo
    outcome = resolve_instance(_instance(fixture_repo),
                               _config(tmp_path, keep_workspaces=True))
    run_text = (outcome.report_dir / "run.txt").read_text(encoding="utf-8")
    kept = Path(run_text.split("workspace_kept: ")[1].splitlines()[0])
    assert kept.is_relative_to(tmp_path)
    assert (kept / "calc.py").read_text(encoding="utf-8") == e2e.CALC_OLD
    git = lambda *args: subprocess.run(["git", *args], cwd=kept,
                                       capture_output=True, text=True)
    assert git("rev-parse", "HEAD").stdout.strip() == sha
    assert git("symbolic-ref", "-q", "HEAD").returncode == 1  # detached
    assert git("status", "--porcelain").stdout == ""


def test_gen_cassette_reproduces_the_fixture(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "gen_cassette", e2e.FIXTURE_DIR / "gen_cassette.py")
    gen_cassette = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_cassette)
    assert gen_cassette.main(tmp_path) == 0
    for name in ("cassette.jsonl", "expected.patch"):
        assert ((tmp_path / name).read_bytes()
                == (e2e.FIXTURE_DIR / name).read_bytes())
    assert _tree(tmp_path / "expected_report") == _tree(e2e.EXPECTED_REPORT_DIR)


def test_resolve_instance_is_deterministic(fixture_repo, tmp_path):
    first = resolve_instance(_instance(fixture_repo),
                             _config(tmp_path / "one"))
    second = resolve_instance(_instance(fixture_repo),
                              _config(tmp_path / "two"))
    read = lambda o, rel: (o.report_dir / rel).read_text(encoding="utf-8")
    assert (first.patch_path.read_text(encoding="utf-8")
            == second.patch_path.read_text(encoding="utf-8"))
    for rel in ("meeting.txt", "plan.txt", "notes.txt",
                "task_0/attempt_0/diff.patch"):
        assert read(first, rel) == read(second, rel)


def test_resolve_instance_folds_hints_into_issue(fixture_repo, tmp_path):
    instance = _instance(fixture_repo, hints_text="look at calc.py line 2")
    with pytest.raises(Exception) as info:
        resolve_instance(instance, _config(tmp_path))
    assert "P2:" in str(info.value) or "P3:" in str(info.value)


def test_resolve_instance_no_hints_flag_restores_cassette_keys(fixture_repo,
                                                               tmp_path):
    instance = _instance(fixture_repo, hints_text="look at calc.py line 2")
    outcome = resolve_instance(instance,
                               _config(tmp_path, hints_enabled=False))
    assert outcome.produced_change
