"""Command-line front end: analyze | survey | repro.

Exit codes: 0 success, 1 reproduction-check failure, 2 input error.  The
environment variable AGREES_SEED overrides --seed for every subcommand.
Stdout is byte-stable for identical invocations; timing goes to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .engine import ClassifyConfig, classify
from .errors import AgreesError
from .families import FAMILY_PARAMS
from .fields import field_from_config
from .groebner import Ideal
from .parse import parse_ideal_spec
from .poly import BASE_RING
from .rees import rees_defining_ideal
from .report import (
    document_json,
    render_pretty,
    report_document,
    write_survey_csv,
)
from .repro import CHECKS, run_all, run_check
from .survey import parse_range, run_survey

# every family parameter, in first-appearance order
_RANGE_FLAGS = tuple(dict.fromkeys(p for params in FAMILY_PARAMS.values() for p in params))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agrees",
        description="Decide, certify, or refute the almost Gorenstein property "
                    "of the Rees algebra of an m-primary ideal in k[x,y] "
                    "localized at (x,y).")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="classify a single ideal")
    analyze.add_argument("--ideal", required=True,
                         help="comma-separated generators, e.g. 'x^3, x^2 y^3, y^6'")
    analyze.add_argument("--field", default="q", help="q (exact rationals) or fp:<prime>")
    analyze.add_argument("--seed", type=int, default=0)
    fmt = analyze.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON report (default)")
    fmt.add_argument("--pretty", action="store_true", help="human-readable report")
    analyze.add_argument("--rees", action="store_true",
                         help="include Rees presentation bidegrees")

    survey = sub.add_parser("survey", help="classify a parameter family")
    survey.add_argument("--family", required=True, choices=sorted(FAMILY_PARAMS))
    for flag in _RANGE_FLAGS:
        survey.add_argument(f"--{flag}", help="range lo..hi or a single value")
    survey.add_argument("--field", default="fp:2147483647",
                        help="q (exact rationals) or fp:<prime>; surveys default "
                             "to fp:2147483647")
    survey.add_argument("--seed", type=int, default=0)
    survey.add_argument("--jobs", type=int, default=1)
    survey.add_argument("--out", help="CSV path (stdout when omitted)")

    repro = sub.add_parser("repro", help="run named reproduction checks")
    repro.add_argument("check", nargs="?", help="check id (see --all output)")
    repro.add_argument("--all", action="store_true", help="run every check")
    repro.add_argument("--seed", type=int, default=0)
    repro.add_argument("--list", action="store_true", help="list check ids")
    return parser


def _effective_seed(args) -> int:
    env = os.environ.get("AGREES_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise AgreesError(f"AGREES_SEED must be an integer, got {env!r}") from None
    return args.seed


def _run_analyze(args) -> int:
    seed = _effective_seed(args)
    field = field_from_config(args.field)
    started = time.perf_counter()
    gens = parse_ideal_spec(args.ideal, BASE_RING, field)
    ideal = Ideal(gens)
    report = classify(ideal, ClassifyConfig(seed=seed))
    bidegrees = None
    if args.rees:
        bidegrees = rees_defining_ideal(ideal).bidegrees
    doc = report_document(
        report, input_text=args.ideal, ideal_gens=gens,
        field_name=field.name, seed=seed, rees_bidegrees=bidegrees)
    elapsed = time.perf_counter() - started
    if args.pretty:
        sys.stdout.write(render_pretty(doc, ideal=ideal))
    else:
        sys.stdout.write(document_json(doc))
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return 0


def _run_survey(args) -> int:
    seed = _effective_seed(args)
    field_from_config(args.field)  # validate early
    ranges = {}
    for flag in _RANGE_FLAGS:
        value = getattr(args, flag)
        if value is not None:
            ranges[flag] = parse_range(value)
    started = time.perf_counter()
    rows, skipped = run_survey(
        args.family, ranges, seed=seed, field_config=args.field, jobs=args.jobs)
    if args.out:
        with open(args.out, "w", newline="") as handle:
            write_survey_csv(rows, handle)
    else:
        write_survey_csv(rows, sys.stdout)
    elapsed = time.perf_counter() - started
    print(f"{len(rows)} rows, {skipped} invalid tuples skipped, "
          f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return 0


def _run_repro(args) -> int:
    seed = _effective_seed(args)
    if args.list:
        for check_id in CHECKS:
            print(check_id)
        return 0
    if args.all:
        results = run_all(seed)
    elif args.check:
        results = [run_check(args.check, seed)]
    else:
        raise AgreesError("repro needs a check id or --all")
    width = max(len(r.check_id) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.check_id:<{width}}  {status}")
        print(f"{'':<{width}}  expected: {r.expected}")
        print(f"{'':<{width}}  got:      {r.got}")
        if r.detail:
            print(f"{'':<{width}}  detail:   {r.detail}")
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed", file=sys.stderr)
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            return _run_analyze(args)
        if args.command == "survey":
            return _run_survey(args)
        return _run_repro(args)
    except (AgreesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
