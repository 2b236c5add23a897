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
from .groebner import Ideal
from .poly import BASE_RING
from .report import SurveyRow, witness_summary
from .staircase import ideal_of_staircase, staircase_normalize, staircase_product

SURVEY_FAMILIES = tuple(FAMILY_PARAMS) + ("products",)

_PARAM_NAMES = dict(FAMILY_PARAMS, products=("m1", "n1", "m2", "n2"))


def parse_range(text: str) -> range:
    """'3..10' (inclusive) or a single integer."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        try:
            return range(int(lo), int(hi) + 1)
        except ValueError:
            raise BadParameters(f"bad range {text!r}") from None
    try:
        v = int(text)
    except ValueError:
        raise BadParameters(f"bad range {text!r}") from None
    return range(v, v + 1)


def param_names(family: str) -> tuple[str, ...]:
    if family not in _PARAM_NAMES:
        raise BadParameters(
            f"unknown family {family!r}; choose from {sorted(_PARAM_NAMES)}")
    return _PARAM_NAMES[family]


def expand_tuples(family: str, ranges: dict[str, range]) -> tuple[list[tuple[int, ...]], int]:
    """All valid parameter tuples in lexicographic order, plus a skipped count."""
    names = param_names(family)
    missing = [n for n in names if n not in ranges]
    if missing:
        raise BadParameters(f"family {family!r} needs ranges for {missing}")

    def valid(values: tuple[int, ...]) -> bool:
        params = dict(zip(names, values))
        if family == "products":
            return params["m1"] >= 2 and params["m1"] <= params["n1"] \
                and params["m2"] >= 2 and params["m2"] <= params["n2"]
        try:
            family_exponents(family, params)
            return True
        except BadParameters:
            return False

    candidates = list(product(*(ranges[n] for n in names)))
    tuples = [values for values in candidates if valid(values)]
    return tuples, len(candidates) - len(tuples)


def _build_ideal(family: str, values: tuple[int, ...], field) -> Ideal:
    names = _PARAM_NAMES[family]
    params = dict(zip(names, values))
    if family == "products":
        s1 = staircase_normalize(
            family_exponents("power-order", {"m": params["m1"], "n": params["n1"]}))
        s2 = staircase_normalize(
            family_exponents("power-order", {"m": params["m2"], "n": params["n2"]}))
        prod = staircase_product(s1, s2)
        return ideal_of_staircase(prod, BASE_RING, field)
    return make_family(family, params, field=field)


def classify_tuple(task) -> SurveyRow:
    """One classification; module-level so process pools can pickle it."""
    family, values, seed, field_config = task
    field = field_from_config(field_config)
    ideal = _build_ideal(family, values, field)
    cfg = ClassifyConfig(seed=derive_seed(seed, family, *values))
    report = classify(ideal, cfg)
    ref = report.refutation
    return SurveyRow(
        family=family,
        params=tuple(zip(_PARAM_NAMES[family], values)),
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
