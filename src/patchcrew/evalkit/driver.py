"""Batch evaluation and correlation analysis.

evaluate_directory pairs instance files with generated patch files by
instance id, applies each patch's bytes to a fresh snapshot with ``git
apply``, runs the instance's verification commands, and collects
per-instance outcomes into a results CSV plus a human-readable summary,
which names the reason each change was not generated or not applied. A
reference patch named ``<instance_id>.ref.patch`` beside an instance file
enables the overlap ratio for that instance; one that does not parse (a
rename, say) is skipped with a warning, and that instance gets no overlap.

Every instance file, generated patch and reference patch is loaded first,
so a bad instance file fails before any workspace exists. The instances
then run concurrently, each in a workspace of its own, on as many threads
as the process has CPUs (``os.sched_getaffinity``): test suites are mostly
CPU-bound, and more at once would only stretch each command toward its
timeout. Rows keep instance-file order whatever order instances finish in.
An exception in one instance lets every other run to its end; then the
first one, in instance-file order, is raised.

analyze_results fits one logistic regression per complexity index against
resolution over the generated rows and prints coefficient, p-value, and a
significance star, plus a text histogram of overlap ratios.
"""

from __future__ import annotations

import csv
import logging
import os
from dataclasses import astuple, dataclass, fields
from pathlib import Path

from ..diffs import CodeChange, parse_diff
from ..errors import DegenerateDataError, DiffParseError, InstanceError
from ..gitops import apply_change, destroy, snapshot
from ..llm import map_concurrently
from ..model import IssueInstance, load_instance
from .execution import CommandResult, run_tests
from .logistic import LogisticFit, logistic_fit
from .metrics import (ComplexityIndices, InstanceOutcome, SUMMARY_ROWS,
                      applied_ratio, change_overlap_ratio, complexity_of,
                      format_summary_table, resolved_ratio, summarize_indices)

log = logging.getLogger(__name__)

RESULTS_COLUMNS = (
    "instance_id", "generated", "applied", "t_old_passed", "t_new_passed",
    "resolved", "overlap_ratio",
    *(f.name for f in fields(ComplexityIndices)),
)

_ZERO_COMPLEXITY = ComplexityIndices(0, 0, 0, 0, 0, 0, 0, 0)

# Positions say where a change sits, not how big it is, so they are not
# regressed on.
ANALYSIS_INDICES = tuple(
    row for row in SUMMARY_ROWS
    if row[1] not in ("change_start_index", "change_end_index"))


@dataclass(frozen=True)
class InstanceEvaluation:
    outcome: InstanceOutcome
    notes: str = ""
    # the commands of an applied change that did not pass
    failed_commands: tuple[CommandResult, ...] = ()


@dataclass
class EvaluationReport:
    rows: list[InstanceEvaluation]
    warnings: list[str]

    def outcomes(self) -> list[InstanceOutcome]:
        return [r.outcome for r in self.rows]

    def applied(self) -> float:
        return applied_ratio(self.outcomes())

    def resolved(self) -> float:
        return resolved_ratio(self.outcomes())

    def generated_count(self) -> int:
        return sum(1 for r in self.rows if r.outcome.generated)


def headline(report: EvaluationReport) -> str:
    return (f"Applied {report.applied() * 100:.2f} / "
            f"Resolved {report.resolved() * 100:.2f}")


def _patch_text(patch: bytes) -> str:
    """The text parse_diff reads. Bytes that are not UTF-8 (the lines of a
    Latin-1 file) pass through as surrogates; git applies the bytes."""
    return patch.decode("utf-8", "surrogateescape")


def _load_generated_change(path: Path) -> tuple[CodeChange | None, bytes, str]:
    if not path.exists():
        return None, b"", "no patch file"
    patch = path.read_bytes()
    try:
        change = parse_diff(_patch_text(patch))
    except DiffParseError as exc:
        return None, patch, f"patch unparseable: {exc}"
    if change.is_empty():
        return None, patch, "patch is empty"
    return change, patch, ""


def evaluate_instance(instance: IssueInstance, change: CodeChange | None,
                      patch: bytes, *,
                      reference: CodeChange | None = None,
                      keep_workspaces: bool = False,
                      run_root: Path | None = None,
                      note: str = "") -> InstanceEvaluation:
    """Evaluate one generated change: ``patch`` holds the bytes git
    applies, ``change`` the same patch parsed for complexity and overlap
    (None when no change was generated)."""
    generated = change is not None
    applied = False
    t_old = t_new = False
    failed: tuple[CommandResult, ...] = ()
    if generated:
        workspace = snapshot(instance.repo_path, instance.base_revision,
                             root=run_root)
        try:
            error = apply_change(workspace, patch)
            applied = error is None
            if not applied:
                note = ((note + "; " if note else "")
                        + "; ".join(error.splitlines()))
            else:
                tests = run_tests(workspace, instance.test_spec,
                                  instance_id=instance.instance_id)
                t_old, t_new = tests.t_old_passed, tests.t_new_passed
                failed = tuple(r for r in tests.records if not r.passed)
        finally:
            if not keep_workspaces:
                destroy(workspace)
    overlap = None
    if generated and reference is not None:
        overlap = change_overlap_ratio(reference, change)
    outcome = InstanceOutcome(
        instance_id=instance.instance_id,
        generated=generated,
        applied=applied,
        t_old_passed=t_old,
        t_new_passed=t_new,
        overlap_ratio=overlap,
        complexity=complexity_of(change) if generated else _ZERO_COMPLEXITY,
    )
    return InstanceEvaluation(outcome=outcome, notes=note,
                              failed_commands=failed)


def evaluate_directory(instances_dir: str | Path, changes_dir: str | Path, *,
                       keep_workspaces: bool = False,
                       run_root: Path | None = None) -> EvaluationReport:
    instances_dir = Path(instances_dir)
    changes_dir = Path(changes_dir)
    instance_files = sorted(instances_dir.glob("*.json"))
    if not instance_files:
        raise InstanceError(f"no instance files in {instances_dir}")
    jobs = []
    warnings: list[str] = []
    for path in instance_files:
        instance = load_instance(path)
        change, patch, note = _load_generated_change(
            changes_dir / f"{instance.instance_id}.patch")
        reference = None
        ref_path = instances_dir / f"{instance.instance_id}.ref.patch"
        if ref_path.exists():
            try:
                reference = parse_diff(_patch_text(ref_path.read_bytes()))
            except DiffParseError as exc:
                warnings.append(f"unparseable reference patch skipped: "
                                f"{ref_path.name}: {exc}")
                log.warning("%s", warnings[-1])
        jobs.append((instance, change, patch, reference, note))

    def evaluate(job) -> InstanceEvaluation:
        instance, change, patch, reference, note = job
        return evaluate_instance(instance, change, patch, reference=reference,
                                 keep_workspaces=keep_workspaces,
                                 run_root=run_root, note=note)

    rows = map_concurrently(evaluate, jobs,
                            workers=len(os.sched_getaffinity(0)))
    known_ids = {instance.instance_id for instance, *_ in jobs}
    for patch in sorted(changes_dir.glob("*.patch")):
        if patch.stem not in known_ids:
            warnings.append(f"unmatched change file skipped: {patch.name}")
            log.warning("unmatched change file skipped: %s", patch.name)
    return EvaluationReport(rows=rows, warnings=warnings)


def write_results_csv(report: EvaluationReport, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_COLUMNS)
        for row in report.rows:
            o = row.outcome
            writer.writerow([
                o.instance_id,
                _bool(o.generated), _bool(o.applied),
                _bool(o.t_old_passed), _bool(o.t_new_passed),
                _bool(o.resolved),
                "" if o.overlap_ratio is None else repr(o.overlap_ratio),
                *astuple(o.complexity),
            ])


def _bool(value: bool) -> str:
    return "true" if value else "false"


def render_summary(report: EvaluationReport) -> str:
    lines = [headline(report), ""]
    outcomes = report.outcomes()
    lines.append(f"Instances evaluated: {len(outcomes)}")
    lines.append(f"Generated: {report.generated_count()}  "
                 f"Applied: {sum(1 for o in outcomes if o.applied)}  "
                 f"Resolved: {sum(1 for o in outcomes if o.resolved)}")
    lines.append("")
    lines.append(f"{'Setting':<16} {'% Applied':>10} {'% Resolved':>11}")
    lines.append(f"{'this run':<16} {report.applied() * 100:>10.2f} "
                 f"{report.resolved() * 100:>11.2f}")

    resolved = [o.complexity for o in outcomes if o.resolved]
    applied_only = [o.complexity for o in outcomes
                    if o.applied and not o.resolved]
    if resolved:
        lines += ["", "Complexity of resolved changes:",
                  format_summary_table(summarize_indices(resolved))]
    if applied_only:
        lines += ["", "Complexity of applied-but-not-resolved changes:",
                  format_summary_table(summarize_indices(applied_only))]
    failing = [f"{r.outcome.instance_id}: {c.command!r} "
               + ("timed out" if c.timed_out else f"exited {c.exit_code}")
               for r in report.rows for c in r.failed_commands]
    if failing:
        lines += ["", "Failing commands of applied-but-not-resolved changes:",
                  *failing]
    notes = [f"{r.outcome.instance_id}: {r.notes}" for r in report.rows
             if r.notes]
    if notes:
        lines += ["", "Why changes were not generated or not applied:", *notes]

    overlaps = [o.overlap_ratio for o in outcomes if o.overlap_ratio is not None]
    if overlaps:
        lines += ["", f"Overlap ratio over {len(overlaps)} instances with a "
                      f"reference: mean {sum(overlaps) / len(overlaps):.4f}"]
    for warning in report.warnings:
        lines += ["", f"warning: {warning}"]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class IndexFit:
    label: str
    field: str
    fit: LogisticFit | None
    error: str = ""

    @property
    def significant(self) -> bool:
        return (self.fit is not None and self.fit.converged
                and self.fit.p_values[1] < 0.05)


@dataclass(frozen=True)
class AnalysisResult:
    fits: tuple[IndexFit, ...]
    histogram: tuple[tuple[float, float, int], ...]
    n_rows: int
    n_generated: int


def read_results_csv(path: str | Path) -> list[dict[str, str]]:
    with Path(path).open(encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or set(RESULTS_COLUMNS) - set(reader.fieldnames):
            raise ValueError(f"{path}: not a results file (missing columns)")
        return list(reader)


def analyze_results(path: str | Path) -> AnalysisResult:
    """One univariate logistic fit per complexity index against resolution,
    over the rows whose change was generated."""
    rows = read_results_csv(path)
    if len(rows) < 10:
        raise ValueError(f"analysis needs at least 10 rows, got {len(rows)}")
    generated = [r for r in rows if r["generated"] == "true"]
    labels = [1.0 if r["resolved"] == "true" else 0.0 for r in generated]
    if len(set(labels)) < 2:
        raise DegenerateDataError(
            "analysis needs both resolved and unresolved instances among "
            "the generated rows")

    fits: list[IndexFit] = []
    for label, field_name in ANALYSIS_INDICES:
        feature = [float(r[field_name]) for r in generated]
        try:
            fit = logistic_fit(feature, labels)
            fits.append(IndexFit(label=label, field=field_name, fit=fit))
        except ValueError as exc:
            fits.append(IndexFit(label=label, field=field_name, fit=None,
                                 error=str(exc)))

    overlaps = [float(r["overlap_ratio"]) for r in rows if r["overlap_ratio"]]
    bins = [0] * 10
    for v in overlaps:
        bins[min(int(v * 10), 9)] += 1
    histogram = tuple((i / 10, (i + 1) / 10, bins[i]) for i in range(10))
    return AnalysisResult(fits=tuple(fits), histogram=histogram,
                          n_rows=len(rows), n_generated=len(generated))


def format_analysis(result: AnalysisResult) -> str:
    lines = [f"Logistic regression of resolution on each complexity index "
             f"({result.n_generated} generated of {result.n_rows} rows)",
             "",
             f"{'Index':<20} {'Coef':>10} {'P-value':>10}  "]
    for index_fit in result.fits:
        if index_fit.fit is None:
            lines.append(f"{index_fit.label:<20} {'n/a':>10} {'n/a':>10}  "
                         f"({index_fit.error})")
            continue
        fit = index_fit.fit
        star = " *" if index_fit.significant else ""
        note = "" if fit.converged else f"  [{fit.diagnostic}]"
        lines.append(f"{index_fit.label:<20} {fit.coefficients[1]:>10.4f} "
                     f"{fit.p_values[1]:>10.4f} {star}{note}")
    lines += ["", "Overlap ratio histogram:"]
    for lo, hi, count in result.histogram:
        lines.append(f"{lo:.1f}-{hi:.1f}  {count}")
    return "\n".join(lines) + "\n"
