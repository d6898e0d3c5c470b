"""Import budgets. Importing the package, its CLI and its evaluation kit,
evaluating a patch and analysing a results file load none of the modules
that only other paths need: numpy is no dependency at all, datetime is
imported by an HTTP-date Retry-After and the HTTP client (``urllib.request``
and ``http.client``) by a live LLM call, and evaluation makes neither. A
replayed resolve loads neither the HTTP client nor OpenSSL: cassette keys
take SHA-256 from CPython's builtin module (``_sha2``, or ``_sha256``
before Python 3.12), not from hashlib, which maps OpenSSL's libcrypto.
Module names match exactly: ``pathlib`` already loads ``urllib.parse``."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import _e2e_data as e2e
import patchcrew
from test_evalkit_driver import GOOD_PATCH, _synthetic_report

from patchcrew.evalkit.driver import write_results_csv

HTTP_CLIENT = ("http.client", "urllib.request")
NOT_LOADED = ("_hashlib", "hashlib", "datetime", "numpy", *HTTP_CLIENT)
OPENSSL = ("_hashlib", "hashlib", "ssl", "_ssl")


def _run_fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    """script in a fresh interpreter that imports this checkout's package."""
    package_root = Path(patchcrew.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": str(package_root)},
        capture_output=True, text=True, check=False)


_SCRIPT = """
import sys
import patchcrew, patchcrew.cli, patchcrew.evalkit
instances, changes, out, results = sys.argv[1:]
assert patchcrew.cli.main(["evaluate", "--instances", instances,
                           "--changes", changes, "--out", out]) == 0
assert patchcrew.cli.main(["analyze", "--results", results]) == 0
print(sorted(name for name in sys.modules if name in {not_loaded!r}))
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
    proc = _run_fresh(_SCRIPT.format(not_loaded=set(NOT_LOADED)),
                      str(instances), str(changes), str(tmp_path / "out"),
                      str(results))
    assert proc.returncode == 0, proc.stderr
    assert "Applied 100.00 / Resolved 100.00" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "[]"


_RESOLVE_SCRIPT = """
import sys
import patchcrew.cli
assert patchcrew.cli.main(sys.argv[1:]) == 0
print(sorted(name for name in sys.modules if name in {not_loaded!r}))
"""


def test_replayed_resolve_loads_no_openssl(fixture_instance_file, tmp_path):
    out = tmp_path / "runs"
    proc = _run_fresh(_RESOLVE_SCRIPT.format(
                          not_loaded={*OPENSSL, *HTTP_CLIENT}),
                      "resolve", str(fixture_instance_file),
                      "--cassette", str(e2e.CASSETTE_PATH),
                      "--top-k", str(e2e.TOP_K),
                      "--meeting-rounds", str(e2e.MEETING_ROUNDS),
                      "--out-dir", str(out))
    assert proc.returncode == 0, proc.stderr
    patch = out / f"{e2e.INSTANCE_ID}.patch"
    assert patch.read_bytes() == e2e.EXPECTED_PATCH_PATH.read_bytes()
    assert proc.stdout.splitlines()[-1] == "[]"
