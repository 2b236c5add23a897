"""Per-layer spans recorded from outside the engine.

Each traced function is replaced, for the duration of a traced pass, by a
wrapper bound under the name its caller looks up at call time (a module
global such as ``agrees.engine.find_reduction`` or a class attribute such as
``Ideal.groebner_basis``).  Nothing under ``src/`` is edited.  A span's self
time is its duration minus the time covered by spans it started; nested
calls of the same span count once towards inclusive time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

SPANS = (
    "parse",
    "engine.classify",
    "engine.reduction",
    "engine.reduction_number",
    "engine.origin_check",
    "engine.colon",
    "engine.certificate",
    "engine.witness_test",
    "engine.verify",
    "engine.refuter",
    "engine.rank",
    "groebner.basis",
    "groebner.buchberger",
    "groebner.intersection",
    "staircase",
    "rees",
    "report",
    "survey",
)

# staircase-module names that the engine imports and calls
ENGINE_STAIRCASE_NAMES = (
    "hull_vertices",
    "ideal_of_staircase",
    "mono_colength",
    "newton_closure",
    "staircase_colon",
    "staircase_normalize",
    "staircase_of_ideal",
    "staircase_product",
)

COUNT_METRICS = (
    ("groebner.nf.calls", "count", "lower"),
    ("groebner.buchberger.max_basis", "count", "lower"),
)
RATIO_METRICS = (
    ("groebner.basis.cache_hit_ratio", "higher"),
    ("engine.reduction.origin_reject_ratio", "lower"),
    ("engine.certificate.hit_ratio", "higher"),
    ("engine.witness_test.monomial_ratio", "higher"),
)
RUN_METRICS = (
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
)


def per_layer_spec() -> list[dict]:
    """Every per-layer metric as it appears in BENCHMARK.json."""
    out = []
    for span in SPANS:
        out.append({"name": f"{span}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{span}.self_s", "unit": "s", "better": "lower"})
        out.append({"name": f"{span}.incl_s", "unit": "s", "better": "lower"})
    for name, unit, better in COUNT_METRICS:
        out.append({"name": name, "unit": unit, "better": better})
    for name, better in RATIO_METRICS:
        out.append({"name": name, "unit": "ratio", "better": better})
    for name, unit, better in RUN_METRICS:
        out.append({"name": name, "unit": unit, "better": better})
    return out


class Tracer:
    """Span statistics and counters for one traced pass."""

    def __init__(self):
        self.calls = {s: 0 for s in SPANS}
        self.incl = {s: 0.0 for s in SPANS}
        self.self_time = {s: 0.0 for s in SPANS}
        self.depth = {s: 0 for s in SPANS}
        self.root_time = 0.0
        self._stack: list[list[float]] = []
        self.nf_calls = 0
        self.max_basis = 0
        self.basis_hits = 0
        self.origin_in_reduction = 0
        self.origin_rejects = 0
        self.witnesses = 0
        self.monomial_tests = 0

    def span(self, name: str, fn, before=None, after=None):
        """Wrap fn so each call records one `name` span.

        `before(args, kwargs)` and `after(result, args, kwargs)` update
        counters outside the timed interval.
        """
        stack = self._stack
        calls, incl, self_time, depth = self.calls, self.incl, self.self_time, self.depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                calls[name] += 1
                self_time[name] += elapsed - frame[0]
                if depth[name] == 0:
                    incl[name] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.root_time += elapsed
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def counted_nf(self, fn):
        def wrapper(*args, **kwargs):
            self.nf_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- counter hooks ------------------------------------------------------

    def _basis_before(self, args, kwargs):
        ideal = args[0]
        order = args[1] if len(args) > 1 else kwargs.get("order")
        if order is None:
            order = self._grevlex
        if order in ideal._gb_cache:
            self.basis_hits += 1

    def _buchberger_after(self, result, args, kwargs):
        self.max_basis = max(self.max_basis, len(result))

    def _origin_after(self, result, args, kwargs):
        if self.depth["engine.reduction"]:
            self.origin_in_reduction += 1
            if not result:
                self.origin_rejects += 1

    def _certificate_after(self, result, args, kwargs):
        if result is not None:
            self.witnesses += 1

    def _witness_before(self, args, kwargs):
        # mirrors the staircase test at the top of engine._sum_equals
        ref_stair, parts = args[1], args[3]
        nonzero = [p for p in parts if not p.is_zero]
        if nonzero and ref_stair is not None and all(p.is_monomial for p in nonzero):
            self.monomial_tests += 1

    # -- installation -------------------------------------------------------

    def bindings(self, mods, api) -> list[tuple[object, str, object]]:
        """(owner, attribute, wrapper) for every traced name."""
        engine, groebner, rees, survey = mods.engine, mods.groebner, mods.rees, mods.survey
        self._grevlex = mods.poly.GREVLEX
        out = []

        def wrap(name, owners, attr, **hooks):
            # each owner's current binding is wrapped, so hooks the benchmark
            # installed itself stay in place underneath the span
            for owner in owners:
                out.append((owner, attr, self.span(name, getattr(owner, attr), **hooks)))

        wrap("parse", [api], "parse_ideal_spec")
        wrap("engine.classify", [api, survey], "classify")
        wrap("engine.reduction", [engine], "find_reduction")
        wrap("engine.reduction_number", [engine], "_reduction_number")
        wrap("engine.origin_check", [engine], "is_origin_primary", after=self._origin_after)
        wrap("engine.colon", [engine], "canonical_colon")
        wrap("engine.certificate", [engine], "certificate_search",
             after=self._certificate_after)
        wrap("engine.witness_test", [engine], "_sum_equals", before=self._witness_before)
        wrap("engine.verify", [engine], "verify_witness")
        wrap("engine.refuter", [engine], "necessary_bound")
        wrap("engine.rank", [engine], "_rank")
        wrap("groebner.basis", [groebner.Ideal], "groebner_basis", before=self._basis_before)
        wrap("groebner.buchberger", [groebner, rees], "_buchberger",
             after=self._buchberger_after)
        wrap("groebner.intersection", [groebner], "ideal_intersection")
        out.append((groebner, "_nf_dict", self.counted_nf(groebner._nf_dict)))
        for attr in ENGINE_STAIRCASE_NAMES:
            wrap("staircase", [engine], attr)
        wrap("rees", [api], "rees_defining_ideal")
        for attr in ("report_document", "document_json", "write_survey_csv"):
            wrap("report", [api], attr)
        wrap("report", [survey], "witness_summary")
        for attr in ("expand_tuples", "classify_tuple"):
            wrap("survey", [api], attr)
        return out

    @contextmanager
    def installed(self, mods, api):
        saved = []
        try:
            for owner, attr, wrapper in self.bindings(mods, api):
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def counts(self) -> dict:
        """Everything that must repeat exactly between two traced passes."""
        out = {f"{s}.calls": self.calls[s] for s in SPANS}
        out.update({
            "groebner.nf.calls": self.nf_calls,
            "groebner.buchberger.max_basis": self.max_basis,
            "basis_hits": self.basis_hits,
            "origin_in_reduction": self.origin_in_reduction,
            "origin_rejects": self.origin_rejects,
            "witnesses": self.witnesses,
            "monomial_tests": self.monomial_tests,
        })
        return out

    def ratios(self) -> dict:
        def share(num, den):
            return num / den if den else 0.0

        return {
            "groebner.basis.cache_hit_ratio":
                share(self.basis_hits, self.calls["groebner.basis"]),
            "engine.reduction.origin_reject_ratio":
                share(self.origin_rejects, self.origin_in_reduction),
            "engine.certificate.hit_ratio":
                share(self.witnesses, self.calls["engine.witness_test"]),
            "engine.witness_test.monomial_ratio":
                share(self.monomial_tests, self.calls["engine.witness_test"]),
        }
