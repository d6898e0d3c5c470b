from __future__ import annotations

import importlib.util
import tempfile

import pytest

import _e2e_data as e2e
from conftest import scripted_gateway

from patchcrew.custodian import load_memory, load_term_index
from patchcrew.errors import CassetteMissError
from patchcrew.gitops import list_repo_files
from patchcrew.llm import Gateway, RecordBackend, ReplayBackend
from patchcrew import custodian, runner
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


def test_plan_names_the_qa_role_each_task_was_reviewed_by(fixture_repo,
                                                           tmp_path):
    plan = lambda outcome: (outcome.report_dir / "plan.txt").read_text(
        encoding="utf-8")
    reviewed = resolve_instance(_instance(fixture_repo),
                                _config(tmp_path / "qa"))
    assert f"qa role:\n{e2e.RESPONSES['P8']}\n" in plan(reviewed)
    unreviewed = resolve_instance(_instance(fixture_repo),
                                  _config(tmp_path / "no-qa", qa_enabled=False))
    assert "qa role:\n(none)\n" in plan(unreviewed)


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
    assert set(memory) == set(e2e.REPO_FILES)
    assert memory["calc.py"].summary == e2e.SUMMARIES["calc.py"]

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
    assert set(load_memory(memory_path)) == set(e2e.REPO_FILES)


def test_a_resolve_that_raises_leaves_no_run_txt(fixture_repo, tmp_path):
    report = resolve_instance(_instance(fixture_repo),
                              _config(tmp_path)).report_dir
    assert (report / "run.txt").exists()
    cassette = e2e.cassette_without("MEETING_OPEN",
                                    tmp_path / "no-meeting.jsonl")
    with pytest.raises(CassetteMissError, match="MEETING_OPEN:"):
        resolve_instance(_instance(fixture_repo),
                         _config(tmp_path, cassette_path=str(cassette)))
    assert not (report / "run.txt").exists()


def _rejecting_review(rendered: str) -> str:
    if "Current phase: decision" in rendered:
        return "DECISION: NO"
    return "Not yet."


def test_a_reused_report_dir_holds_only_the_latest_run(fixture_repo,
                                                      tmp_path):
    def resolve_live(responses):
        return resolve_instance(
            _instance(fixture_repo), _config(tmp_path, llm_mode="live"),
            Gateway(e2e.AuthoredBackend({**e2e.RESPONSES, **responses})))

    report = resolve_live({"P11": _rejecting_review}).report_dir
    assert (report / "task_0" / "attempt_2").is_dir()
    outcome = resolve_instance(_instance(fixture_repo), _config(tmp_path))
    assert [p.name for p in (report / "task_0").iterdir()] == ["attempt_0"]
    produced = _tree(outcome.report_dir)
    del produced["run.txt"]
    assert produced == _tree(e2e.EXPECTED_REPORT_DIR)

    resolve_live({"P3": "Not here.\nDECISION: NO"})  # no task
    assert sorted(p.name for p in report.iterdir()) == [
        "notes.txt", "plan.txt", "run.txt"]


BIG_OLD = "".join(f"value_{i} = {i}\n" for i in range(500))
BIG_NEW = BIG_OLD.replace("value_250 = 250\n", "value_250 = -250\n")


@pytest.mark.parametrize("remembered,reaches_coder",
                         [(BIG_OLD, False), (BIG_NEW, True)],
                         ids=["stale", "current"])
def test_oracle_run_passes_only_a_current_summary_to_the_coder(
        tmp_path, remembered, reaches_coder):
    # with --oracle nothing is summarized, so the memory's entry may
    # describe an older version of the file than the one being edited
    repo = tmp_path / "repo"
    sha = e2e.build_fixture_repo(repo, {"big.py": BIG_NEW})
    memory_path = tmp_path / "memory.jsonl"
    custodian.save_memory({"big.py": custodian.MemoryEntry(
        "REMEMBERED SUMMARY", 0, remembered)}, memory_path)
    prompts: list[str] = []
    gateway = scripted_gateway({
        "P4": "Restore value_250.", "P5": "A developer.", "P6": "A developer.",
        "MEETING_OPEN": "Go.", "MEETING_TURN": "Agreed.",
        "MEETING_SUMMARY": "Agreed.", "P7": "[[0]]", "P9": "[[251,251]]",
        "P10": lambda prompt: prompts.append(prompt) or "value_250 = 250\n"})
    instance = instance_from_dict({
        "instance_id": "big", "repo_path": str(repo), "base_revision": sha,
        "issue_text": "value_250 is negative", "oracle_files": ["big.py"]})
    config = RunConfig(llm_mode="live", use_oracle=True, qa_enabled=False,
                       meeting_rounds=1, memory_path=str(memory_path),
                       out_dir=tmp_path / "runs")
    assert resolve_instance(instance, config, gateway).produced_change
    (prompt,) = prompts
    assert "(lines 211-291)" in prompt
    assert ("REMEMBERED SUMMARY" in prompt) is reaches_coder


def _tree(root) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_replay_report_matches_checked_in_report(fixture_repo, tmp_path):
    outcome = resolve_instance(_instance(fixture_repo), _config(tmp_path))
    produced = _tree(outcome.report_dir)
    del produced["run.txt"]  # carries the wall time
    assert produced == _tree(e2e.EXPECTED_REPORT_DIR)
    assert outcome.patch_path.read_bytes() == e2e.EXPECTED_PATCH_PATH.read_bytes()


class Refusing:
    """A live backend that must not be called."""

    mode = "live"
    network_calls = 0

    def complete(self, key: str, template_id: str, rendered_prompt: str) -> str:
        raise AssertionError(f"live call for {key}")


def test_a_second_record_run_makes_no_live_call(fixture_repo, tmp_path):
    cassette = tmp_path / "cassette.jsonl"
    trees = []
    for n, live in enumerate([e2e.AuthoredBackend(), Refusing()]):
        config = _config(tmp_path / str(n), llm_mode="record",
                         cassette_path=str(cassette))
        outcome = resolve_instance(_instance(fixture_repo), config,
                                   Gateway(RecordBackend(live, cassette)))
        trees.append(_tree(outcome.report_dir))
        trees[-1]["patch"] = outcome.patch_path.read_bytes()
    first, second = trees
    assert "network_calls: 0" in second.pop("run.txt").decode()
    del first["run.txt"]
    assert second == first
    assert first["patch"] == e2e.EXPECTED_PATCH_PATH.read_bytes()


def test_resolve_instance_makes_no_checkout(fixture_repo, tmp_path,
                                           monkeypatch):
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    outcome = resolve_instance(_instance(fixture_repo), _config(tmp_path))
    assert outcome.produced_change
    assert list(temp.iterdir()) == []


# --- incremental locate ------------------------------------------------------------

# 42 functions, so that a one-line edit's diff is shorter than the file
STORE = "def store(cache, key):\n    return cache.put(key)\n" + "".join(
    f"\n\ndef keep_{i}(value):\n    return value + {i}\n" for i in range(41))
EVOLVING = {
    "cache.py": "class Cache:\n    def evict(self):\n        return cache_limit\n",
    "store.py": STORE,
    "util.py": "def clamp(value, low, high):\n    return value\n",
    "docs/notes.md": "Notes on eviction of stale entries.\n",
}
EVOLVING_ISSUE = "cache eviction keeps stale entries past the cache limit"


@pytest.fixture()
def evolving_repo(tmp_path):
    """Two revisions: the second edits store.py and adds fresh.py. Both
    hold blob.bin, which is not UTF-8."""
    repo = tmp_path / "evolving"
    repo.mkdir()
    (repo / "blob.bin").write_bytes(b"\xff\xfe cache eviction")
    first = e2e.build_fixture_repo(repo, EVOLVING)
    (repo / "store.py").write_text(
        STORE.replace("cache.put(key)", "cache.evict(key)"), encoding="utf-8")
    (repo / "fresh.py").write_text("def fresh_cache():\n    return {}\n",
                                   encoding="utf-8")
    second = e2e.commit_all(repo, "second")
    return repo, first, second


def _locate(repo, sha, config):
    data = e2e.instance_dict(repo, sha)
    data["issue_text"] = EVOLVING_ISSUE
    gateway = scripted_gateway({"P1": "an update", "P2": "a summary",
                                "P3": "DECISION: YES"})
    return runner.locate_files(instance_from_dict(data), config, gateway)


def _spy_reads(monkeypatch) -> list[tuple[str, list[str]]]:
    """Each read of the object store that runner makes for one blob or
    more, in order: the reader's name and the paths it is asked for."""
    calls: list[tuple[str, list[str]]] = []
    for name in ("iter_repo_files", "read_repo_files"):
        def spy(repo, blobs, name=name, real=getattr(runner, name)):
            if blobs:
                calls.append((name, list(blobs)))
            return real(repo, blobs)

        monkeypatch.setattr(runner, name, spy)
    return calls


def test_warm_locate_reads_only_unknown_blobs_and_candidates(
        evolving_repo, tmp_path, monkeypatch):
    repo, first, second = evolving_repo
    config = _config(tmp_path, top_k=2,
                     memory_path=str(tmp_path / "memory.jsonl"))
    calls = _spy_reads(monkeypatch)
    located = _locate(repo, first, config)
    top = [rf.path for rf in located.result.ranked[:2]]
    assert calls == [("iter_repo_files", sorted([*EVOLVING, "blob.bin"])),
                     ("read_repo_files", top)]

    calls.clear()
    located = _locate(repo, second, config)
    top = [rf.path for rf in located.result.ranked[:2]]
    # the index streams only the blobs it does not know; the top-k files
    # are read once more, and the candidates come from that read
    assert calls == [("iter_repo_files", ["fresh.py", "store.py"]),
                     ("read_repo_files", top)]
    assert located.candidates == top
    assert located.files == {path: (repo / path).read_text(encoding="utf-8")
                             for path in top}


def test_cold_locate_streams_the_index_through_one_cat_file(
        tmp_path, monkeypatch, cat_file_procs):
    # 300 unknown blobs, which the index reads in one stream
    repo = tmp_path / "wide"
    files = {f"pkg/m{i:03}.py": f"def evict_{i}(cache):\n    return cache\n"
             for i in range(300)}
    sha = e2e.build_fixture_repo(repo, files)
    calls = _spy_reads(monkeypatch)
    located = _locate(repo, sha, _config(tmp_path, top_k=2))
    top = [rf.path for rf in located.result.ranked[:2]]
    assert calls == [("iter_repo_files", sorted(files)),
                     ("read_repo_files", top)]
    assert len(cat_file_procs) == 2  # one for the index, one for the top-k
    assert located.files == {path: files[path] for path in top}


def test_term_index_keeps_only_the_latest_listing(evolving_repo, tmp_path):
    repo, first, second = evolving_repo
    memory_path = tmp_path / "memory.jsonl"
    config = _config(tmp_path, top_k=2, memory_path=str(memory_path))
    _locate(repo, first, config)
    old = list_repo_files(repo, first)
    _locate(repo, second, config)
    new = list_repo_files(repo, second)
    index = load_term_index(f"{memory_path}.bm25")
    assert set(index.docs) == set(new.values())
    assert old["store.py"] not in index.docs
    assert index.lengths[index.docs[new["blob.bin"]]] is None


def test_unchanged_listing_leaves_the_index_file_alone(evolving_repo,
                                                      tmp_path):
    repo, first, second = evolving_repo
    memory_path = tmp_path / "memory.jsonl"
    index_path = tmp_path / "memory.jsonl.bm25"
    config = _config(tmp_path, top_k=2, memory_path=str(memory_path))
    cold = _locate(repo, first, config)
    inode = index_path.stat().st_ino
    warm = _locate(repo, first, config)
    assert index_path.stat().st_ino == inode  # each save makes a new file
    assert warm.result.ranked == cold.result.ranked
    _locate(repo, second, config)
    assert index_path.stat().st_ino != inode


def test_locate_back_at_an_earlier_revision_updates_the_summary(
        evolving_repo, tmp_path):
    # a shared memory meets the revisions of a repository in any order
    repo, first, second = evolving_repo
    memory_path = tmp_path / "memory.jsonl"
    config = _config(tmp_path, top_k=10, memory_path=str(memory_path))
    for sha in (first, second, first):
        _locate(repo, sha, config)
    entry = load_memory(memory_path)["store.py"]
    assert entry.summary == "a summary\nUPDATE: an update\nUPDATE: an update"
    assert entry.updates == 2
    assert entry.content == STORE


def test_locate_without_memory_path_writes_no_index(evolving_repo, tmp_path):
    repo, first, _ = evolving_repo
    located = _locate(repo, first, _config(tmp_path, top_k=2))
    assert located.candidates
    assert not list(tmp_path.glob("*.bm25"))


def test_oracle_resolve_reads_only_the_oracle_files(fixture_repo, tmp_path,
                                                    monkeypatch):
    calls = _spy_reads(monkeypatch)
    instance = _instance(fixture_repo, oracle_files=["calc.py"])
    resolve_instance(instance, _config(tmp_path, use_oracle=True))
    assert calls == [("read_repo_files", ["calc.py"])]


def test_oracle_path_missing_from_the_tree_is_a_new_file(fixture_repo,
                                                         tmp_path):
    instance = _instance(fixture_repo, oracle_files=["fresh.py"])
    outcome = resolve_instance(instance, _config(tmp_path, use_oracle=True),
                               gateway=scripted_gateway(e2e.RESPONSES))
    assert [fd.path for fd in outcome.change.file_diffs] == ["fresh.py"]
    assert outcome.change.file_diffs[0].is_new_file
    assert "new file mode" in outcome.patch_path.read_text(encoding="utf-8")


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
