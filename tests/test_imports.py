"""The import budget of evaluation: importing the package, its CLI and its
evaluation kit, evaluating a patch and analysing a results file load none
of the modules that only other paths need. numpy is no dependency at all;
hashlib (which maps OpenSSL's libcrypto) is imported by cassette keys and
content hashes, datetime by an HTTP-date Retry-After, requests by a live
LLM call; evaluation makes none of these."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import _e2e_data as e2e
import patchcrew
from test_evalkit_driver import GOOD_PATCH, _synthetic_report

from patchcrew.evalkit.driver import write_results_csv

NOT_LOADED = ("_hashlib", "hashlib", "datetime", "numpy", "requests")

_SCRIPT = """
import sys
import patchcrew, patchcrew.cli, patchcrew.evalkit
instances, changes, out, results = sys.argv[1:]
assert patchcrew.cli.main(["evaluate", "--instances", instances,
                           "--changes", changes, "--out", out]) == 0
assert patchcrew.cli.main(["analyze", "--results", results]) == 0
print(sorted(name for name in sys.modules
             if name.split(".")[0] in {not_loaded!r}))
"""


def test_evaluation_stays_within_its_import_budget(fixture_repo, tmp_path):
    repo, sha = fixture_repo
    instances, changes = tmp_path / "instances", tmp_path / "changes"
    instances.mkdir()
    changes.mkdir()
    e2e.write_instance(instances / "one.json", repo, sha, instance_id="one")
    (changes / "one.patch").write_text(GOOD_PATCH, encoding="utf-8")
    (instances / "one.ref.patch").write_text(GOOD_PATCH, encoding="utf-8")
    results = tmp_path / "results.csv"
    write_results_csv(_synthetic_report(n_easy=5, n_hard=5, easy_resolved=4,
                                        hard_resolved=1), results)
    package_root = Path(patchcrew.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT.format(not_loaded=set(NOT_LOADED)),
         str(instances), str(changes), str(tmp_path / "out"), str(results)],
        env={**os.environ, "PYTHONPATH": str(package_root)},
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert "Applied 100.00 / Resolved 100.00" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "[]"
