"""The benchmark in perfbench/ times patchcrew's layers by wrapping their
functions by name (perfbench/spans.py). A name it no longer finds is
skipped, and every per-layer metric built on it reads 0 without an error,
so a rename or removal here must fail a test instead."""

from __future__ import annotations

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_finds_every_function_it_wraps(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    assert spans.Tracer().skipped == []
