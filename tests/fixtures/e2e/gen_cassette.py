"""Regenerate the end-to-end replay fixture.

Runs the full pipeline against the toy repository from ``_e2e_data`` with
authored responses behind a recording gateway, then writes the resulting
``cassette.jsonl``, ``expected.patch`` and ``expected_report/`` (the report
tree minus ``run.txt``, whose wall time varies) next to this script. Run it
after changing the fixture data, any prompt variable layout or the report
format:

    python3 tests/fixtures/e2e/gen_cassette.py

Every stage's calls are made one at a time (``calls_in_turn``), so the
cassette lists its records in a fixed order and a regenerated fixture
equals the checked-in one byte for byte.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

import _e2e_data as data  # noqa: E402

from patchcrew.custodian import Custodian  # noqa: E402
from patchcrew.llm import Gateway, RecordBackend  # noqa: E402
from patchcrew.model import load_instance  # noqa: E402
from patchcrew.runner import RunConfig, resolve_instance  # noqa: E402


def main(out_dir: Path = Path(__file__).resolve().parent) -> int:
    cassette = out_dir / "cassette.jsonl"
    if cassette.exists():
        cassette.unlink()

    work = Path(tempfile.mkdtemp(prefix="gen-e2e-"))
    try:
        sha = data.build_fixture_repo(work / "repo")
        instance_path = data.write_instance(work / "instance.json",
                                            work / "repo", sha)
        instance = load_instance(instance_path)

        gateway = Gateway(RecordBackend(data.AuthoredBackend(), cassette))
        config = RunConfig(llm_mode="record", cassette_path=str(cassette),
                           top_k=data.TOP_K,
                           meeting_rounds=data.MEETING_ROUNDS,
                           out_dir=work / "runs")
        with data.calls_in_turn():
            outcome = resolve_instance(instance, config, gateway=gateway)
        if not outcome.produced_change:
            print("pipeline produced no change; fixture data is broken",
                  file=sys.stderr)
            return 1

        # the summary-update exchange used by the memoization tests
        custodian = Custodian(gateway)
        custodian.summarize_file(data.MEMO_PATH, data.MEMO_OLD)
        custodian.summarize_file(data.MEMO_PATH, data.MEMO_NEW)

        patch_text = outcome.patch_path.read_text(encoding="utf-8")
        (out_dir / "expected.patch").write_text(patch_text, encoding="utf-8")
        report = out_dir / "expected_report"
        shutil.rmtree(report, ignore_errors=True)
        shutil.copytree(outcome.report_dir, report,
                        ignore=shutil.ignore_patterns("run.txt"))
        print(f"wrote {cassette} ({len(cassette.read_text().splitlines())} "
              f"records)")
        print(f"wrote {out_dir / 'expected.patch'} and {report}")
        print(patch_text, end="")
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
