"""Command-line entry point: one subcommand per pipeline stage.

Example::

    srquery ingest --config run.json
    srquery formulate --config run.json --prompt q4 --example-mode hqe
    srquery execute --config run.json
    srquery evaluate --config run.json
    srquery report --config run.json
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys

from . import pipeline
from . import __version__
from .pipeline import AppConfig


def _load_config(args: argparse.Namespace) -> AppConfig:
    """The file's configuration with every given flag applied, checked by
    ``AppConfig.__post_init__`` like a value from the file."""
    overrides = {"runs_per_topic": getattr(args, "runs", None),
                 "parallelism": getattr(args, "parallelism", None),
                 "execution_backend": getattr(args, "backend", None)}
    return dataclasses.replace(AppConfig.from_file(args.config),
                               **{k: v for k, v in overrides.items() if v is not None})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srquery",
        description="Generate, refine, execute, and evaluate systematic-review Boolean queries.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, runs: bool = False) -> None:
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        if runs:
            p.add_argument("--runs", type=int, default=None,
                           help="generations per topic (default from config)")
            p.add_argument("--parallelism", type=int, default=None,
                           help="concurrent topics (default from config)")

    common(sub.add_parser("ingest", help="validate inputs and register original queries"))

    p = sub.add_parser("formulate", help="single-prompt query formulation (q1-q5)")
    common(p, runs=True)
    p.add_argument("--prompt", required=True, choices=pipeline.FORMULATE_PROMPTS)
    p.add_argument("--example-mode", default="none", choices=("none", "hqe", "re"))

    p = sub.add_parser("refine", help="single-prompt query refinement (q6-q7)")
    common(p, runs=True)
    p.add_argument("--prompt", required=True, choices=pipeline.REFINE_PROMPTS)
    p.add_argument("--seed-source", required=True, choices=pipeline.SEED_SOURCES)
    p.add_argument("--example-mode", default="none", choices=("none", "hqe", "re"))

    p = sub.add_parser("guided", help="four-step guided formulation from seed studies")
    common(p, runs=True)

    p = sub.add_parser("execute", help="run generated queries against an index")
    common(p)
    p.add_argument("--backend", default=None, choices=("local", "entrez"),
                   help="override the configured execution backend")

    common(sub.add_parser("evaluate", help="score executed runs against the qrels"))
    common(sub.add_parser("analyze", help="significance, variability, and failure analysis"))
    common(sub.add_parser("report", help="write per-topic and macro-average CSVs"))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = _load_config(args)
        if args.command == "ingest":
            summary = pipeline.cmd_ingest(cfg)
            print(json.dumps(summary, indent=2, sort_keys=True))
        elif args.command == "formulate":
            records = pipeline.cmd_formulate(cfg, args.prompt, args.example_mode)
            _print_outcome(records)
        elif args.command == "refine":
            records = pipeline.cmd_refine(cfg, args.prompt, args.seed_source, args.example_mode)
            _print_outcome(records)
        elif args.command == "guided":
            records = pipeline.cmd_guided(cfg)
            _print_outcome(records)
        elif args.command == "execute":
            records = pipeline.cmd_execute(cfg)
            _print_outcome(records)
        elif args.command == "evaluate":
            records = pipeline.cmd_evaluate(cfg)
            _print_outcome(records)
        elif args.command == "analyze":
            report = pipeline.cmd_analyze(cfg)
            print(f"analysis written for {len(report['methods'])} methods "
                  f"under {cfg.report_dir}")
        elif args.command == "report":
            path = pipeline.cmd_report(cfg)
            print(f"report written to {path}")
    except (FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


def _print_outcome(records) -> None:
    ok = sum(1 for r in records if r.status == "ok")
    errors = [r for r in records if r.status == "error"]
    skipped = sum(1 for r in records if r.status == "skipped")
    print(f"{ok} ok, {len(errors)} failed, {skipped} skipped, {len(records)} records appended")
    for record in errors[:10]:
        print(f"  {record.run_id}: {record.error}")


if __name__ == "__main__":
    sys.exit(main())
