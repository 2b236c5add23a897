"""Parameter-family surveys: tuple expansion, parallel classification, CSV.

Workers receive plain picklable task tuples and rebuild their ideals from
scratch; every tuple gets its own derived seed, so --jobs k produces output
identical to --jobs 1.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from itertools import product

from .engine import ClassifyConfig, classify, derive_seed
from .errors import BadParameters
from .families import FAMILY_PARAMS, family_exponents, make_family
from .fields import field_from_config
from .report import SurveyRow, witness_summary


def parse_range(text: str) -> range:
    """'3..10' (inclusive, lo <= hi) or a single integer."""
    lo, hi = text.split("..", 1) if ".." in text else (text, text)
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise BadParameters(f"bad range {text!r}") from None
    if lo > hi:
        raise BadParameters(f"empty range {text!r}: {lo} > {hi}")
    return range(lo, hi + 1)


def param_names(family: str) -> tuple[str, ...]:
    if family not in FAMILY_PARAMS:
        raise BadParameters(
            f"unknown family {family!r}; choose from {sorted(FAMILY_PARAMS)}")
    return FAMILY_PARAMS[family]


def expand_tuples(family: str, ranges: dict[str, range]) -> tuple[list[tuple[int, ...]], int]:
    """All valid parameter tuples in lexicographic order, plus a skipped
    count; `ranges` must name exactly the family's parameters."""
    names = param_names(family)
    if set(ranges) != set(names):
        raise BadParameters(f"family {family!r} takes ranges for exactly {list(names)}, "
                            f"got {sorted(ranges)}")

    def valid(values: tuple[int, ...]) -> bool:
        try:
            family_exponents(family, dict(zip(names, values)))
            return True
        except BadParameters:
            return False

    candidates = list(product(*(ranges[n] for n in names)))
    tuples = [values for values in candidates if valid(values)]
    return tuples, len(candidates) - len(tuples)


def classify_tuple(task) -> SurveyRow:
    """One classification; module-level so process pools can pickle it."""
    family, values, seed, field_config = task
    field = field_from_config(field_config)
    ideal = make_family(family, dict(zip(FAMILY_PARAMS[family], values)), field=field)
    cfg = ClassifyConfig(seed=derive_seed(seed, family, *values))
    report = classify(ideal, cfg)
    ref = report.refutation
    return SurveyRow(
        family=family,
        params=tuple(zip(FAMILY_PARAMS[family], values)),
        verdict=report.verdict.value,
        o=report.order,
        mu_I=report.min_gens,
        mu_J=report.colon_min_gens,
        min_sum=None if ref is None else ref.min_sum,
        threshold=None if ref is None else ref.threshold,
        witness=witness_summary(report.witness),
    )


def run_survey(family: str, ranges: dict[str, range], *, seed: int,
               field_config: str, jobs: int = 1) -> tuple[list[SurveyRow], int]:
    """Classify every valid tuple; rows come back sorted by parameter tuple.

    At most `jobs` worker processes run, and never more than there are
    tuples or CPUs: a pool may start all its workers at the first submit."""
    if jobs < 1:
        raise BadParameters(f"jobs must be at least 1, got {jobs}")
    tuples, skipped = expand_tuples(family, ranges)
    tasks = [(family, values, seed, field_config) for values in tuples]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(classify_tuple, tasks))
    else:
        rows = [classify_tuple(t) for t in tasks]
    rows.sort(key=lambda r: r.param_values())
    return rows, skipped
