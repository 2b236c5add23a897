"""The three workloads: their inputs, one closed-loop pass, and output checks.

Every pass builds fresh `Ideal` objects (`Ideal._gb_cache` is per instance,
so reusing instances would let later passes skip Buchberger runs).  Each
analyzed ideal gets its own fixed engine seed derived from its label, and the
survey runs with engine seed 0, from which `agrees survey` derives one seed per
tuple.  The engine seed decides how much random search an ideal needs (the
twins' reduction search does 22k to 42k normal forms per pass depending on
it), so a workload seed that picked engine seeds would change the amount of
work between runs.  The workload seed instead picks the order in which the
closed loop submits the ideals, a fresh permutation for every pass.
"""

from __future__ import annotations

import gc
import io
import signal
import time
from dataclasses import dataclass
from fractions import Fraction

SURVEY_FIELD = "fp:2147483647"

# (family, {parameter: (lo, hi)}) with inclusive ranges, as `agrees survey` takes
# them.  The grids are sized so that one pass takes a few seconds and several
# passes fit in a run; each keeps representatives of the known defects:
# contracted-o3 (6,1,3) and (7,1,3) find no reduction, (5,2,4), (6,2,3),
# (7,2,3) and (7,3,6) exhaust the witness pool, and the remark43 twin flips
# from NOT_AG to UNKNOWN.
SURVEY_GRID = (
    ("contracted-o3", {"n": (3, 7), "alpha": (1, 6), "beta": (1, 6)}),
    ("three-gen", {"n": (3, 9), "alpha": (1, 8)}),
    ("power-order", {"m": (2, 5), "n": (2, 10)}),
    ("remark43", {"m": (4, 4)}),
)

TWIN_SOURCES = (
    ("order-two", {"n": (2, 8)}),
    ("three-gen", {"n": (3, 4), "alpha": (1, 3)}),
    ("power-order", {"m": (2, 3), "n": (2, 4)}),
    ("contracted-o3", {"n": (3, 4), "alpha": (1, 3), "beta": (1, 3)}),
    ("remark43", {"m": (4, 4)}),
)
# the flagship (6,3,5) under x -> x + y/3, whose coefficients are proper fractions
FLAGSHIP = ("contracted-o3", {"n": 6, "alpha": 3, "beta": 5}, Fraction(1, 3))

REES_SOURCES = (
    ("order-two", {"n": (2, 8)}),
    ("three-gen", {"n": (3, 8), "alpha": (1, 7)}),
    ("power-order", {"m": (2, 4), "n": (2, 4)}),
    ("contracted-o3", {"n": (3, 5), "alpha": (1, 4), "beta": (1, 4)}),
)

DECIDED = ("GORENSTEIN", "AG_CERTIFIED", "NOT_AG")

# untraced passes per run; each ideal runs once per pass
PASSES = {"monomial-survey": 6, "coordinate-twins": 3, "rees-presentations": 4}


@dataclass
class Case:
    """One input ideal.  `text` is what the engine parses; `exps` is the
    monomial source (the ideal itself, or the ideal a twin was made from)."""

    family: str
    params: dict
    exps: list
    text: str = ""
    coeff: Fraction | None = None
    engine_seed: int = 0

    @property
    def label(self) -> str:
        p = ",".join(f"{k}={v}" for k, v in self.params.items())
        twin = "" if self.coeff is None else f" x->x+({self.coeff})y"
        return f"{self.family}({p}){twin}"


@dataclass
class Outcome:
    """What one pass produced for one case."""

    latency: float | None = None
    scale: float = 1.0
    verdict: str = ""
    output: str = ""
    report: object = None
    presentation: object = None
    error: str = ""


@dataclass
class PassResult:
    wall: float
    outcomes: list
    document: str
    cases: list = None


# c in the coordinate change x -> x + c*y; x -> x - 2y costs about a quarter
# more wall time than x -> x + 2y at this commit
TWIN_COEFFICIENT = Fraction(2)
# engine seed of the survey, as `agrees survey --seed 0`
SURVEY_SEED = 0


def engine_seed(mods, case: "Case") -> int:
    """Fixed engine seed of one analyzed ideal, as `agrees survey` derives one
    per tuple: a single shared seed would draw the same random coefficient
    patterns for every ideal with the same generator count."""
    return mods.engine.derive_seed(SURVEY_SEED, case.label)


def _ranges(spec: dict) -> dict:
    return {k: range(lo, hi + 1) for k, (lo, hi) in spec.items()}


def _family_members(mods, family: str, spec: dict) -> list[tuple[dict, list]]:
    if family == "order-two":
        # contracted order-two ideals (x^2, x y^b, y^n) with 2b >= n
        lo, hi = spec["n"]
        return [({"n": n, "b": b}, [(2, 0), (1, b), (0, n)])
                for n in range(lo, hi + 1) for b in range((n + 1) // 2, n)]
    names = mods.families.FAMILY_PARAMS[family]
    tuples, _ = mods.survey.expand_tuples(family, _ranges(spec))
    out = []
    for values in tuples:
        params = dict(zip(names, values))
        out.append((params, mods.families.family_exponents(family, params)))
    return out


def _monomial_text(exps) -> str:
    def mono(a, b):
        parts = [f"x^{a}" if a > 1 else "x" if a else "", f"y^{b}" if b > 1 else "y" if b else ""]
        return "*".join(p for p in parts if p) or "1"

    return ", ".join(mono(a, b) for a, b in exps)


def _twin_text(mods, exps, c: Fraction) -> str:
    poly, fld = mods.poly, mods.fields.QQ
    x = poly.Polynomial.variable(poly.BASE_RING, fld, "x")
    y = poly.Polynomial.variable(poly.BASE_RING, fld, "y")
    shifted = x + y.scale(fld.fraction(c.numerator, c.denominator))
    return ", ".join(str(shifted ** a * y ** b) for a, b in exps)


# -- input generation ------------------------------------------------------------

def _seeded(mods, cases: list[Case]) -> list[Case]:
    for case in cases:
        case.engine_seed = engine_seed(mods, case)
    return cases


def build_survey(mods, smoke: bool) -> list[Case]:
    cases = []
    for family, spec in SURVEY_GRID:
        members = _family_members(mods, family, spec)
        for params, exps in members[:1] if smoke else members:
            cases.append(Case(family, params, exps))
    return cases


def build_twins(mods, smoke: bool) -> list[Case]:
    c = TWIN_COEFFICIENT
    cases = []
    for family, spec in TWIN_SOURCES:
        members = _family_members(mods, family, spec)
        for params, exps in members[:1] if smoke else members:
            cases.append(Case(family, params, exps, _twin_text(mods, exps, c), c))
    family, params, third = FLAGSHIP
    exps = mods.families.family_exponents(family, params)
    cases.append(Case(family, dict(params), exps, _twin_text(mods, exps, third), third))
    return _seeded(mods, cases)


def build_rees(mods, smoke: bool) -> list[Case]:
    cases = []
    for family, spec in REES_SOURCES:
        members = _family_members(mods, family, spec)
        for params, exps in members[:1] if smoke else members:
            cases.append(Case(family, params, exps, _monomial_text(exps)))
    return _seeded(mods, cases)


# -- one pass ----------------------------------------------------------------------

# The host this benchmark was written on runs a single thread at two speeds,
# in stretches of seconds to minutes, the slower one 1.5-1.9x slower; a run
# cannot outlast them.  Every timed interval is therefore accompanied by
# timings of a fixed reference computation (see `timed`), and times are
# reported scaled to a host on which it takes NOMINAL_REFERENCE_S (about its
# fastest time on that host).  The reference multiplies two polynomials over q
# held as dicts from exponent pairs, as the engine holds them; the engine's
# slowdown follows it more closely than it follows a plain integer loop.
_REFERENCE_POLY = {(i, j): Fraction(i + 1, j + 2) for i in range(4) for j in range(4)}
NOMINAL_REFERENCE_S = 0.00065
SAMPLE_INTERVAL_S = 0.05


def reference_s() -> float:
    """The faster of two timings of the reference product: the host's speed
    now.  The collector is off meanwhile, so the engine's heap does not
    change its time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(2):
            start = time.perf_counter()
            product = {}
            for (a, b), c in _REFERENCE_POLY.items():
                for (d, e), f in _REFERENCE_POLY.items():
                    product[a + d, b + e] = product.get((a + d, b + e), 0) + c * f
            took = time.perf_counter() - start
            best = took if best is None else min(best, took)
        return best
    finally:
        if enabled:
            gc.enable()


def timed(fn):
    """(fn(), seconds it took, factor that scales them to nominal host speed).

    The reference is timed right before and after fn and, from an interval
    timer, every SAMPLE_INTERVAL_S while fn runs, so that a slow stretch
    starting or ending inside a long call is weighed by its share of the
    call.  The time the samples take is not counted as fn's."""
    refs = [reference_s()]
    sampling = [0.0]

    def on_timer(signum, frame):
        start = time.perf_counter()
        refs.append(reference_s())
        sampling[0] += time.perf_counter() - start

    previous = signal.signal(signal.SIGALRM, on_timer)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    try:
        start = time.perf_counter()
        result = fn()
        took = time.perf_counter() - start - sampling[0]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    refs.append(reference_s())
    return result, took, NOMINAL_REFERENCE_S * len(refs) / sum(refs)


def timed_unscaled(fn):
    """(fn(), seconds it took, 1.0): for traced runs, whose spans should hold
    only the engine's work."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start, 1.0


def _measure(op, timer) -> Outcome:
    """Run op once and time it.  op returns (verdict, output, report,
    presentation) and builds every object it uses."""
    out = Outcome()
    try:
        (out.verdict, out.output, out.report, out.presentation), out.latency, out.scale = \
            timer(op)
    except Exception as exc:  # recorded as a failed operation
        out.latency = None
        out.error = f"{type(exc).__name__}: {exc}"
    return out


def _survey_pass(mods, api, cases: list[Case], order: list[int],
                 timer) -> tuple[list[Outcome], str]:
    """`agrees survey --jobs 1 --seed 0` over the grid; reports are captured
    where `classify_tuple` looks `classify` up, for the untimed checks."""
    captured = []
    inner = mods.survey.classify

    def capture(ideal, config=None):
        report = inner(ideal, config)
        captured.append(report)
        return report

    index = {(c.family, tuple(c.params.values())): i for i, c in enumerate(cases)}
    tasks = {}
    for family, spec in SURVEY_GRID:
        tuples, _ = api.expand_tuples(family, _ranges(spec))
        tasks.update((index[family, values], (family, values, SURVEY_SEED, SURVEY_FIELD))
                     for values in tuples if (family, values) in index)
    outcomes, rows = {}, {}
    mods.survey.classify = capture
    try:
        for i in order:
            def op(i=i):
                del captured[:]
                rows[i] = api.classify_tuple(tasks[i])
                return rows[i].verdict, repr(rows[i]), captured[0], None

            outcomes[i] = _measure(op, timer)
    finally:
        mods.survey.classify = inner
    buf = io.StringIO()
    api.write_survey_csv(sorted(rows.values(), key=lambda r: r.param_values()), buf)
    return [outcomes[i] for i in range(len(cases))], buf.getvalue()


def _analyze_pass(mods, api, cases: list[Case], order: list[int], timer,
                  rees: bool) -> tuple[list[Outcome], str]:
    """`agrees analyze [--rees]` over q for every case."""
    ring, fld = mods.poly.BASE_RING, mods.fields.QQ
    Ideal, ClassifyConfig = mods.groebner.Ideal, mods.engine.ClassifyConfig
    outcomes = {}
    for i in order:
        def op(case=cases[i]):
            gens = api.parse_ideal_spec(case.text, ring, fld)
            ideal = Ideal(gens)
            report = api.classify(ideal, ClassifyConfig(seed=case.engine_seed))
            presentation = api.rees_defining_ideal(ideal) if rees else None
            doc = api.report_document(
                report, input_text=case.text, ideal_gens=gens, field_name=fld.name,
                seed=case.engine_seed,
                rees_bidegrees=None if presentation is None else presentation.bidegrees)
            return report.verdict.value, api.document_json(doc), report, presentation

        outcomes[i] = _measure(op, timer)
    ordered = [outcomes[i] for i in range(len(cases))]
    return ordered, "".join(o.output for o in ordered)


def run_pass(workload: str, mods, api, cases: list[Case], order: list[int],
             timer=timed) -> PassResult:
    """One closed-loop pass that submits the cases in `order` and times each
    with `timer`; outcomes are indexed like `cases`."""
    if sorted(order) != list(range(len(cases))):
        raise ValueError("order must be a permutation of the cases")
    start = time.perf_counter()
    if workload == "monomial-survey":
        outcomes, document = _survey_pass(mods, api, cases, order, timer)
    else:
        outcomes, document = _analyze_pass(mods, api, cases, order, timer,
                                           workload == "rees-presentations")
    wall = time.perf_counter() - start
    return PassResult(wall=wall, outcomes=outcomes, document=document)


BUILDERS = {
    "monomial-survey": build_survey,
    "coordinate-twins": build_twins,
    "rees-presentations": build_rees,
}
WORKLOADS = tuple(BUILDERS)


# -- untimed output checks ---------------------------------------------------------

def contradicted_verdicts(family: str, params: dict) -> set[str]:
    """Verdicts that contradict the closed forms the repro checks rely on."""
    positive = {"AG_CERTIFIED", "GORENSTEIN"}
    if family == "contracted-o3":
        n, a, b = params["n"], params["alpha"], params["beta"]
        if n < a + b and n + a < 2 * b and b < 2 * a:
            return positive
        stable = b <= 2 * a and n <= a + b and n + a <= 2 * b
        if stable and n + a == 2 * b:
            return {"NOT_AG"}
        return set()
    if family == "three-gen":
        return {"NOT_AG"} if 2 * params["alpha"] == params["n"] else positive
    if family == "power-order":
        return {"NOT_AG", "GORENSTEIN"}
    if family == "remark43":
        return positive
    if family == "order-two":
        return {"NOT_AG"}
    return set()


def _fresh_ideal(mods, case: Case, field_obj):
    if case.text:
        gens = mods.parse.parse_ideal_spec(case.text, mods.poly.BASE_RING, field_obj)
        return mods.groebner.Ideal(gens)
    poly = mods.poly
    return mods.groebner.Ideal(
        [poly.Polynomial.monomial(poly.BASE_RING, field_obj, e) for e in case.exps])


def check_case(mods, case: Case, out: Outcome, seed: int, index: int,
               field_config: str, source=None) -> list[str]:
    """Every way `out` can contradict what is known about `case`."""
    if out.error:
        return [out.error]
    engine = mods.engine
    report = out.report
    problems = []
    if report is None:
        return ["no report captured"]
    if report.verdict.value != out.verdict:
        problems.append(f"output verdict {out.verdict} differs from report {report.verdict.value}")
    fld = mods.fields.field_from_config(field_config)
    ideal = _fresh_ideal(mods, case, fld)
    verdict = report.verdict.value
    if verdict == "AG_CERTIFIED" and not engine.validate_report(ideal, report):
        problems.append("AG_CERTIFIED witness fails exact re-verification")
    if verdict == "NOT_AG" and None in (report.refutation, report.colon_gens, report.reduction):
        problems.append("NOT_AG carries no refutation evidence")
    elif verdict == "NOT_AG":
        Ideal = mods.groebner.Ideal
        J = Ideal(list(report.colon_gens))
        Q = Ideal(list(report.reduction.Q))
        again = engine.necessary_bound(ideal, J, seed=engine.derive_seed(seed, "recheck", index),
                                       Q=Q, trials=report.refutation.trials)
        if not again.min_sum > again.threshold:
            problems.append(f"NOT_AG not re-confirmed with a fresh seed "
                            f"(min_sum {again.min_sum} <= threshold {again.threshold})")
    stair = mods.staircase.staircase_normalize(case.exps)
    if verdict == "NOT_AG" and mods.staircase.newton_closure(stair) == stair:
        problems.append("integrally closed input refuted")
    if verdict in contradicted_verdicts(case.family, case.params):
        problems.append(f"{verdict} contradicts the closed form for {case.family}")
    if source is not None:
        for name in ("order", "min_gens", "colength"):
            if getattr(report, name) != getattr(source, name):
                problems.append(f"{name} {getattr(report, name)} differs from the "
                                f"monomial source's {getattr(source, name)}")
        if verdict in DECIDED and source.verdict.value in DECIDED \
                and verdict != source.verdict.value:
            problems.append(f"{verdict} contradicts the monomial source's "
                            f"{source.verdict.value}")
    if out.presentation is not None and not mods.rees.substitution_check(ideal, out.presentation):
        problems.append("Rees presentation fails the substitution check")
    return problems


def check_pass(workload: str, mods, cases: list[Case], result: PassResult,
               seed: int) -> dict[int, list[str]]:
    """Semantic checks on one pass; maps case index to its problems."""
    field_config = SURVEY_FIELD if workload == "monomial-survey" else "q"
    failures = {}
    for i, (case, out) in enumerate(zip(cases, result.outcomes)):
        source = None
        if workload == "coordinate-twins":
            mono = _fresh_ideal(mods, Case(case.family, case.params, case.exps), mods.fields.QQ)
            source = mods.engine.classify(mono, mods.engine.ClassifyConfig(seed=case.engine_seed))
        problems = check_case(mods, case, out, seed, i, field_config, source)
        if problems:
            failures[i] = problems
    return failures
