"""patchcrew has no binary dependency: importing the package, its CLI and
its evaluation kit, and analysing a results file, load no numpy."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import patchcrew
from test_evalkit_driver import _synthetic_report

from patchcrew.evalkit.driver import write_results_csv

_SCRIPT = """
import sys
import patchcrew, patchcrew.cli, patchcrew.evalkit
result = patchcrew.evalkit.analyze_results(sys.argv[1])
assert any(f.fit is not None for f in result.fits)
print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
"""


def test_no_numpy_on_any_path(tmp_path):
    path = tmp_path / "results.csv"
    write_results_csv(_synthetic_report(n_easy=5, n_hard=5, easy_resolved=4,
                                        hard_resolved=1), path)
    package_root = Path(patchcrew.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(path)],
        env={**os.environ, "PYTHONPATH": str(package_root)},
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
