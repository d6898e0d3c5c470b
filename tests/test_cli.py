from __future__ import annotations

import json

import pytest

import _e2e_data as e2e
from conftest import chat_reply

from patchcrew.cli import main
from patchcrew.custodian import load_memory
from patchcrew.llm import cassette_key, read_cassette


def _run_flags(tmp_path, *extra: str, cassette=e2e.CASSETTE_PATH) -> list[str]:
    return ["--cassette", str(cassette),
            "--top-k", str(e2e.TOP_K),
            "--meeting-rounds", str(e2e.MEETING_ROUNDS),
            "--out-dir", str(tmp_path / "runs"), *extra]


# --- resolve ---------------------------------------------------------------------

def test_resolve_success(fixture_instance_file, tmp_path, capsys):
    code = main(["resolve", str(fixture_instance_file),
                 *_run_flags(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "patch: " in out
    assert "report: " in out
    patch = tmp_path / "runs" / f"{e2e.INSTANCE_ID}.patch"
    assert patch.read_bytes() == e2e.EXPECTED_PATCH_PATH.read_bytes()


def test_record_resolve_over_a_loopback_api(fixture_instance_file, tmp_path,
                                            loopback, monkeypatch):
    """A record run whose every call crosses a socket to a chat API that
    answers from the fixture cassette, by prompt, gives the fixture's patch,
    and the cassette it writes replays to the same patch."""
    answers = {record["rendered_prompt"]: record["response_text"]
               for record in read_cassette(e2e.CASSETTE_PATH).values()}

    def answer(requestline, headers, body):
        prompt = json.loads(body)["messages"][0]["content"]
        return chat_reply(answers[prompt]) if prompt in answers else (
            500, {}, b"no recorded answer")

    server = loopback(answer)
    monkeypatch.setenv("MAGIS_API_URL", server.url + "/v1/chat/completions")
    monkeypatch.setenv("MAGIS_API_KEY", "sk-test")
    recorded = tmp_path / "recorded.jsonl"
    code = main(["resolve", str(fixture_instance_file), "--llm-mode", "record",
                 *_run_flags(tmp_path, cassette=recorded)])
    assert code == 0
    patch = tmp_path / "runs" / f"{e2e.INSTANCE_ID}.patch"
    assert patch.read_bytes() == e2e.EXPECTED_PATCH_PATH.read_bytes()
    prompts = [json.loads(body)["messages"][0]["content"]
               for _, _, body in server.seen]
    assert set(prompts) <= set(answers)
    run_text = (tmp_path / "runs" / e2e.INSTANCE_ID / "run.txt").read_text(
        encoding="utf-8")
    assert f"network_calls: {len(server.seen)}\n" in run_text

    replayed = tmp_path / "replayed"
    assert main(["resolve", str(fixture_instance_file),
                 *_run_flags(replayed, cassette=recorded)]) == 0
    assert (replayed / "runs" / f"{e2e.INSTANCE_ID}.patch").read_bytes() \
        == e2e.EXPECTED_PATCH_PATH.read_bytes()


def test_resolve_cassette_miss_is_exit_3(fixture_repo, tmp_path, capsys):
    repo, sha = fixture_repo
    data = e2e.instance_dict(repo, sha)
    data["issue_text"] = "a different issue the cassette has never seen"
    instance = tmp_path / "other.json"
    instance.write_text(json.dumps(data), encoding="utf-8")
    code = main(["resolve", str(instance), *_run_flags(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "error: " in err
    assert "P2:" in err or "P3:" in err


def test_resolve_invalid_instance_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"instance_id": "x"}), encoding="utf-8")
    code = main(["resolve", str(bad), *_run_flags(tmp_path)])
    assert code == 2
    assert "error: " in capsys.readouterr().err


def test_resolve_missing_cassette_flag_is_exit_2(fixture_instance_file,
                                                 tmp_path, capsys):
    code = main(["resolve", str(fixture_instance_file),
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert "requires a cassette" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["resolve", "locate"])
@pytest.mark.parametrize("flag", ["--top-k", "--max-review-iters",
                                  "--meeting-rounds"])
def test_a_run_flag_below_one_is_exit_2_before_any_git_or_llm_call(
        fixture_instance_file, tmp_path, capsys, monkeypatch, command, flag):
    started: list[object] = []

    def refuse(*args, **kwargs):
        started.append(args)
        raise OSError("nothing may be started")

    monkeypatch.setattr("subprocess.run", refuse)
    monkeypatch.setattr("subprocess.Popen", refuse)
    monkeypatch.setattr("patchcrew.llm.RecordBackend.complete", refuse)
    memory_path = tmp_path / "memory.jsonl"
    code = main([command, str(fixture_instance_file), *_run_flags(tmp_path),
                 "--memory-path", str(memory_path), flag, "0"])
    assert code == 2
    assert f"error: {flag} must be >= 1" in capsys.readouterr().err
    assert started == []
    assert list(tmp_path.iterdir()) == []  # no memory, index or run files


# --- locate ----------------------------------------------------------------------

def test_locate_ranks_and_marks_candidates(fixture_instance_file, tmp_path,
                                           capsys):
    code = main(["locate", str(fixture_instance_file), *_run_flags(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["rank", "score", "path"]
    calc_rows = [l for l in lines if "calc.py" in l]
    assert calc_rows and calc_rows[0].endswith("*")
    assert "candidates: 1" in out
    marked = [l for l in lines if l.endswith("*")]
    assert len(marked) == 1


def test_locate_reads_and_writes_memory(fixture_instance_file, tmp_path,
                                        capsys):
    memory_path = tmp_path / "memory.jsonl"
    code = main(["locate", str(fixture_instance_file), *_run_flags(tmp_path),
                 "--memory-path", str(memory_path)])
    assert code == 0
    assert set(load_memory(memory_path)) == set(e2e.REPO_FILES)

    # every summary is remembered, so a cassette without P2 records suffices
    no_summaries = e2e.cassette_without("P2", tmp_path / "no-p2.jsonl")
    capsys.readouterr()
    code = main(["locate", str(fixture_instance_file),
                 *_run_flags(tmp_path, cassette=no_summaries),
                 "--memory-path", str(memory_path)])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert "candidates: 1" in out


def test_locate_oracle_bypass(fixture_repo, tmp_path, capsys):
    repo, sha = fixture_repo
    data = e2e.instance_dict(repo, sha)
    data["oracle_files"] = ["calc.py"]
    instance = tmp_path / "oracle.json"
    instance.write_text(json.dumps(data), encoding="utf-8")
    code = main(["locate", str(instance), *_run_flags(tmp_path), "--oracle"])
    out = capsys.readouterr().out
    assert code == 0
    assert "custodian bypassed (bm25_calls=0)" in out
    assert "calc.py" in out
    assert "rank" not in out


@pytest.mark.parametrize("oracle,named", [
    (["calc.py", "calc.py"], "listed more than once: 'calc.py'"),
    (["./calc.py", "calc.py"], "normal form 'calc.py': './calc.py'"),
], ids=["repeated", "dot-prefix"])
def test_resolve_oracle_file_in_two_spellings_is_exit_2(
        fixture_repo, tmp_path, capsys, oracle, named):
    repo, sha = fixture_repo
    data = e2e.instance_dict(repo, sha)
    data["oracle_files"] = oracle
    instance = tmp_path / "oracle.json"
    instance.write_text(json.dumps(data), encoding="utf-8")
    code = main(["resolve", str(instance), *_run_flags(tmp_path), "--oracle"])
    assert code == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "runs" / f"{e2e.INSTANCE_ID}.patch").exists()


# --- evaluate ---------------------------------------------------------------------

@pytest.fixture()
def eval_dirs(fixture_repo, tmp_path):
    from test_evalkit_driver import GOOD_PATCH, STALE_PATCH, WRONG_PATCH
    repo, sha = fixture_repo
    instances = tmp_path / "instances"
    changes = tmp_path / "changes"
    instances.mkdir()
    changes.mkdir()
    patches = {"good-a": GOOD_PATCH, "good-b": GOOD_PATCH,
               "wrong-c": WRONG_PATCH, "stale-d": STALE_PATCH}
    for iid, patch_text in patches.items():
        e2e.write_instance(instances / f"{iid}.json", repo, sha,
                           instance_id=iid)
        (changes / f"{iid}.patch").write_text(patch_text, encoding="utf-8")
    return instances, changes


def test_evaluate_reports_ratios(eval_dirs, tmp_path, capsys):
    instances, changes = eval_dirs
    out_dir = tmp_path / "eval-out"
    code = main(["evaluate", "--instances", str(instances),
                 "--changes", str(changes), "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert "Applied 75.00 / Resolved 50.00" in out
    assert (out_dir / "results.csv").exists()
    summary = (out_dir / "summary.txt").read_text(encoding="utf-8")
    assert summary.startswith("Applied 75.00 / Resolved 50.00")


def test_evaluate_empty_changes_is_exit_1(eval_dirs, tmp_path, capsys):
    instances, _ = eval_dirs
    empty = tmp_path / "empty-changes"
    empty.mkdir()
    code = main(["evaluate", "--instances", str(instances),
                 "--changes", str(empty), "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert code == 1
    assert "Applied 0.00 / Resolved 0.00" in out
    assert "no generated changes found" in out


def test_evaluate_no_instances_is_exit_2(tmp_path, capsys):
    (tmp_path / "i").mkdir()
    (tmp_path / "c").mkdir()
    code = main(["evaluate", "--instances", str(tmp_path / "i"),
                 "--changes", str(tmp_path / "c"),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "no instance files" in capsys.readouterr().err


# --- analyze ------------------------------------------------------------------------

def _write_results(tmp_path, n_easy, n_hard, easy_resolved, hard_resolved,
                   all_resolved=False):
    from test_evalkit_driver import _synthetic_report
    from patchcrew.evalkit.driver import write_results_csv
    report = _synthetic_report(n_easy, n_hard, easy_resolved, hard_resolved,
                               all_resolved)
    path = tmp_path / "results.csv"
    write_results_csv(report, path)
    return path


def test_analyze_prints_fits_and_histogram(tmp_path, capsys):
    path = _write_results(tmp_path, 15, 15, 13, 2)
    code = main(["analyze", "--results", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "# Code Files" in out
    assert " *" in out
    assert "Overlap ratio histogram:" in out


def test_analyze_single_class_is_exit_1(tmp_path, capsys):
    path = _write_results(tmp_path, 6, 6, 6, 6, all_resolved=True)
    code = main(["analyze", "--results", str(path)])
    assert code == 1
    assert "both resolved and" in capsys.readouterr().err


def test_analyze_too_few_rows_is_exit_2(tmp_path, capsys):
    path = _write_results(tmp_path, 4, 4, 3, 1)
    code = main(["analyze", "--results", str(path)])
    assert code == 2
    assert "at least 10 rows" in capsys.readouterr().err


def test_analyze_missing_file_is_exit_2(tmp_path, capsys):
    code = main(["analyze", "--results", str(tmp_path / "nope.csv")])
    assert code == 2


# --- cassette helpers ------------------------------------------------------------------

def test_cassette_key_matches_library(capsys):
    variables = {"issue": "x", "summary": "y"}
    code = main(["cassette", "key", "P3", json.dumps(variables)])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == cassette_key("P3", variables)


def test_cassette_key_rejects_bad_vars(capsys):
    assert main(["cassette", "key", "P3", "not json"]) == 2
    assert "JSON object" in capsys.readouterr().err
    assert main(["cassette", "key", "P3", '{"a": 1}']) == 2
    assert "object of strings" in capsys.readouterr().err


def test_cassette_list_shows_keys_and_templates(capsys):
    code = main(["cassette", "list", str(e2e.CASSETTE_PATH)])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 22
    assert all("\t" in line for line in lines)
    assert any(line.endswith("\tP10") for line in lines)


def test_cassette_list_missing_file_is_exit_2(tmp_path, capsys):
    assert main(["cassette", "list", str(tmp_path / "nope.jsonl")]) == 2
