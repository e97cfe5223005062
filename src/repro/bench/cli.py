"""Command-line entry point: ``python -m repro.bench <experiment> [...]``."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.experiments import EXPERIMENTS, get_experiment
from repro.bench.reporting import report_to_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures (ids: see repro.bench.experiments).",
    )
    parser.add_argument(
        "experiment",
        nargs="+",
        help=f"experiment id(s), or 'all'; known: {', '.join(sorted(EXPERIMENTS))}",
    )
    parser.add_argument("--scale", type=float, default=1.0, help="workload scale factor (default 1.0)")
    parser.add_argument("--timeout", type=float, default=None, help="per-run timeout in seconds (experiment default if omitted)")
    parser.add_argument("--repeats", type=int, default=1, help="repetitions per point (paper used 3)")
    parser.add_argument("--out", default="bench_results", help="directory for JSON results")
    parser.add_argument("--no-save", action="store_true", help="do not write JSON results")
    parser.add_argument("--chart", action="store_true", help="render figure-style sparkline charts")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke mode: clamp --scale to 0.25 and imply --no-save "
        "(equivalence/determinism gates still run at full strictness)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.smoke:
        args.scale = min(args.scale, 0.25)
        args.no_save = True
    names = list(EXPERIMENTS) if "all" in args.experiment else args.experiment
    wrong_rows = False
    for name in names:
        runner = get_experiment(name)
        report = runner(scale=args.scale, timeout=args.timeout, repeats=args.repeats)
        print(report_to_text(report))
        # A row whose identity gate failed (``identical`` exactly False)
        # fails the command, so a smoke run catches wrong rows, not only
        # crashes.
        for row in report.rows:
            if row.get("identical") is False:
                wrong_rows = True
                print(f"error: {report.experiment}: row not identical: {row}", file=sys.stderr)
        if args.chart:
            from repro.bench.plots import charts_for_experiment

            charts = charts_for_experiment(report.experiment, report.rows)
            if charts:
                print()
                print(charts)
        print()
        if not args.no_save:
            target = report.save_json(args.out)
            print(f"[saved {target}]")
    return 1 if wrong_rows else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
