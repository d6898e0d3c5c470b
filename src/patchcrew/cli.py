"""Command-line entry point.

Subcommands:
  resolve    run the full pipeline on one instance file
  locate     rank and filter candidate files only
  evaluate   apply generated patches and run verification commands
  analyze    regress resolution on complexity indices from a results file
  cassette   key derivation and listing helpers for replay cassettes

Exit codes: 0 success, 1 degenerate outcome (empty change, nothing to
evaluate, single-class labels), 2 invalid input, 3 LLM transport or replay
failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import evalkit
from .errors import (CassetteMissError, DegenerateDataError, DiffParseError,
                     GitError, InstanceError, PatchcrewError, TemplateError,
                     TransportError)
from .llm import cassette_key, read_cassette
from .model import load_instance
from .runner import (LLM_MODES, RunConfig, build_gateway, locate_files,
                     resolve_instance)

EXIT_OK = 0
EXIT_DEGENERATE = 1
EXIT_INVALID = 2
EXIT_LLM = 3


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--llm-mode", choices=LLM_MODES, default="replay",
                        help="backend: replay (default), record, or live")
    parser.add_argument("--cassette", metavar="PATH",
                        help="cassette file for replay/record modes")
    parser.add_argument("--top-k", type=int, default=10,
                        help="files considered by the custodian (default 10)")
    parser.add_argument("--max-review-iters", type=int, default=3,
                        help="review-loop bound per task (default 3)")
    parser.add_argument("--meeting-rounds", type=int, default=2,
                        help="developer rounds in the kick-off meeting "
                             "(default 2)")
    parser.add_argument("--memory-path", metavar="PATH",
                        help="persist the custodian memory at this path")
    parser.add_argument("--keep-workspaces", action="store_true",
                        help="retain temporary checkouts for debugging")
    parser.add_argument("--oracle", action="store_true",
                        help="use the instance's oracle_files, skipping "
                             "file locating")
    parser.add_argument("--no-qa", action="store_true",
                        help="disable the QA review loop")
    parser.add_argument("--no-hints", action="store_true",
                        help="ignore the instance's hints_text")
    parser.add_argument("--out-dir", default="runs", metavar="DIR",
                        help="output directory for patches and reports")


def _config_from(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        llm_mode=args.llm_mode,
        cassette_path=args.cassette,
        top_k=args.top_k,
        max_review_iters=args.max_review_iters,
        meeting_rounds=args.meeting_rounds,
        memory_path=args.memory_path,
        keep_workspaces=args.keep_workspaces,
        use_oracle=args.oracle,
        qa_enabled=not args.no_qa,
        hints_enabled=not args.no_hints,
        out_dir=Path(args.out_dir),
    )


def cmd_resolve(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    config = _config_from(args)
    outcome = resolve_instance(instance, config)
    print(f"patch: {outcome.patch_path}")
    print(f"report: {outcome.report_dir}")
    for note in outcome.notes:
        print(f"note: {note}")
    if not outcome.produced_change:
        print("no change produced")
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_locate(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    config = _config_from(args)
    if config.use_oracle and instance.oracle_files:
        print("oracle files supplied, custodian bypassed (bm25_calls=0)")
        for path in instance.oracle_files:
            print(path)
        return EXIT_OK
    located = locate_files(instance, config, build_gateway(config))
    result = located.result
    kept = set(result.candidates)
    print(f"{'rank':>4}  {'score':>10}  path")
    for rf in result.ranked[:config.top_k]:
        marker = " *" if rf.path in kept else ""
        print(f"{rf.rank:>4}  {rf.bm25_score:>10.4f}  {rf.path}{marker}")
    print(f"candidates: {len(result.candidates)}")
    for note in located.custodian.notes:
        print(f"note: {note}")
    return EXIT_OK if result.candidates else EXIT_DEGENERATE


def cmd_evaluate(args: argparse.Namespace) -> int:
    report = evalkit.evaluate_directory(args.instances, args.changes,
                                        keep_workspaces=args.keep_workspaces)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    evalkit.write_results_csv(report, out_dir / "results.csv")
    summary = evalkit.render_summary(report)
    (out_dir / "summary.txt").write_text(summary, encoding="utf-8")
    print(evalkit.headline(report))
    print(f"results: {out_dir / 'results.csv'}")
    for warning in report.warnings:
        print(f"warning: {warning}")
    if report.generated_count() == 0:
        print("no generated changes found")
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    result = evalkit.analyze_results(args.results)
    print(evalkit.format_analysis(result), end="")
    return EXIT_OK


def cmd_cassette(args: argparse.Namespace) -> int:
    if args.cassette_command == "key":
        try:
            variables = json.loads(args.vars)
        except json.JSONDecodeError as exc:
            print(f"error: vars must be a JSON object: {exc}", file=sys.stderr)
            return EXIT_INVALID
        if not isinstance(variables, dict) \
                or any(not isinstance(v, str) for v in variables.values()):
            print("error: vars must be a JSON object of strings",
                  file=sys.stderr)
            return EXIT_INVALID
        print(cassette_key(args.template_id, variables))
        return EXIT_OK
    # list
    try:
        records = read_cassette(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    for key, record in records.items():
        print(f"{key}\t{record['template_id']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patchcrew",
        description="Multi-agent issue resolution over git repositories.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_resolve = sub.add_parser("resolve", help="resolve one instance")
    p_resolve.add_argument("instance", help="instance file (JSON)")
    _add_run_flags(p_resolve)
    p_resolve.set_defaults(func=cmd_resolve)

    p_locate = sub.add_parser("locate", help="rank and filter files only")
    p_locate.add_argument("instance", help="instance file (JSON)")
    _add_run_flags(p_locate)
    p_locate.set_defaults(func=cmd_locate)

    p_eval = sub.add_parser("evaluate", help="score generated patches")
    p_eval.add_argument("--instances", required=True, metavar="DIR",
                        help="directory of instance files")
    p_eval.add_argument("--changes", required=True, metavar="DIR",
                        help="directory of <instance_id>.patch files")
    p_eval.add_argument("--out", default="eval-out", metavar="DIR",
                        help="output directory (default eval-out)")
    p_eval.add_argument("--keep-workspaces", action="store_true",
                        help="retain temporary checkouts")
    p_eval.set_defaults(func=cmd_evaluate)

    p_analyze = sub.add_parser("analyze",
                               help="correlate complexity with resolution")
    p_analyze.add_argument("--results", required=True, metavar="FILE",
                           help="results.csv from evaluate")
    p_analyze.set_defaults(func=cmd_analyze)

    p_cassette = sub.add_parser("cassette", help="cassette helpers")
    cassette_sub = p_cassette.add_subparsers(dest="cassette_command",
                                             required=True)
    p_key = cassette_sub.add_parser("key", help="derive a record key")
    p_key.add_argument("template_id")
    p_key.add_argument("vars", help="JSON object of template variables")
    p_key.set_defaults(func=cmd_cassette)
    p_list = cassette_sub.add_parser("list", help="list cassette records")
    p_list.add_argument("file")
    p_list.set_defaults(func=cmd_cassette)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (CassetteMissError, TransportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LLM
    except DegenerateDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (InstanceError, DiffParseError, GitError, TemplateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except PatchcrewError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
