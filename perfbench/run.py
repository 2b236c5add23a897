"""End-to-end and per-layer benchmark of the agrees engine.

    python3 perfbench/run.py --workload monomial-survey --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --workload rees-presentations --smoke

One process, one thread, closed loop: the next ideal starts when the previous
one has finished.  The engine is imported from `src/` of the checkout this
file sits in and driven through its public entry points.

A run makes a fixed number of passes over the workload's ideals (see
`workloads.PASSES`), each submitting them in an order drawn from `--seed`;
`--seconds` only caps the run, which starts no pass once it has elapsed.
Before each pass it sets up five times (a fresh import of `agrees` plus input
generation); `setup_s` is the median of all set-ups.  Every pass therefore
starts from fresh modules and fresh `Ideal` objects.  An ideal's latency is
the median of its runs, one per pass.

Every time (set-ups and ideals) is scaled to nominal host speed: a fixed
reference computation is timed right before and after it and every 50 ms
during it, and the time is multiplied by `NOMINAL_REFERENCE_S` over the mean
of those timings (see `workloads.timed`).  On the shared host this benchmark
was written on, the single thread runs at two speeds in stretches of seconds
to minutes, the slower one 1.5-1.9x slower, so unscaled times of whole runs
spread by up to half their median.  The unscaled figures are recorded with
the run environment.

With `--trace 1` the run makes a traced, an untraced and a traced pass, with
spans bound around each layer's functions (see tracing.py), and reports the
per-layer metrics.  No reference timings run in these passes, so spans hold
only the engine's work and every time is as measured.  The tracing overhead,
traced minus untraced pass wall, is therefore exposed to the host's speed
changes and can even read negative.  Traced counts must repeat exactly and
spans must cover at least 95% of traced wall time, or the run is marked
incorrect.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The line before it records the run environment.  `attempted`
counts (pass, ideal) operations; one fails when it raises, when its output
differs from the first pass, or when the ideal fails an output check.

Which end-to-end figures each layer's metrics should move:
- engine.certificate, engine.witness_test: ideals_per_s and latency_tail_ms on
  monomial-survey, less on coordinate-twins, none on rees-presentations.
- engine.reduction, engine.origin_check, engine.reduction_number:
  latency_p50_ms and ideals_per_s on coordinate-twins, little on
  monomial-survey (pure-power fast path; origin checks are ~4% of its traced
  time), none on rees-presentations.
- engine.refuter, engine.rank: at most ~3% on coordinate-twins and ~1%
  elsewhere; no measurable change expected.
- groebner.buchberger, groebner.nf, groebner.basis: all three workloads;
  elimination work only on rees-presentations.
- staircase: monomial-survey only, under 1% of its time; no measurable change.
- rees: rees-presentations only.
- parse, report, survey: negligible everywhere; kept to show work moved there.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS_PER_PASS = 5
TRACED_PASSES = 2
MIN_COVERAGE = 0.95
TAIL_BEYOND = 10

END_TO_END = (
    ("ideals_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("decided_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

class SetupError(Exception):
    """The engine sources are not where this checkout should have them."""


def import_engine() -> SimpleNamespace:
    """Fresh import of every agrees module the benchmark touches."""
    init = SRC / "agrees" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"engine sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "agrees" or m.startswith("agrees.")]:
        del sys.modules[name]
    names = ("engine", "families", "fields", "groebner", "parse", "poly", "rees",
             "report", "staircase", "survey")
    mods = SimpleNamespace(**{n: importlib.import_module(f"agrees.{n}") for n in names})
    if Path(mods.engine.__file__).resolve().parent != init.parent.resolve():
        raise SetupError(f"imported agrees from {mods.engine.__file__}, not {init.parent}")
    return mods


def entry_points(mods) -> SimpleNamespace:
    """The public calls a workload makes; the tracer rebinds these."""
    return SimpleNamespace(
        parse_ideal_spec=mods.parse.parse_ideal_spec,
        classify=mods.engine.classify,
        rees_defining_ideal=mods.rees.rees_defining_ideal,
        report_document=mods.report.report_document,
        document_json=mods.report.document_json,
        write_survey_csv=mods.report.write_survey_csv,
        expand_tuples=mods.survey.expand_tuples,
        classify_tuple=mods.survey.classify_tuple,
    )


def setup(workload: str, smoke: bool, times: list):
    """Fresh engine modules and inputs, built SETUPS_PER_PASS times; the last
    build is returned and (seconds, scale) of every build is appended to
    `times`."""
    for _ in range(SETUPS_PER_PASS):
        def build():
            mods = import_engine()
            return mods, workloads.BUILDERS[workload](mods, smoke)

        (mods, cases), took, scale = workloads.timed(build)
        times.append((took, scale))
    return mods, cases


def commit_id() -> str:
    """HEAD of the enclosing git checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail_of(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with at
    least TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def compare_passes(passes, failed_pairs: set):
    """Mark every (pass, case) whose output differs from the first pass."""
    first = passes[0]
    for k, later in enumerate(passes[1:], start=1):
        diffs = [i for i, (a, b) in enumerate(zip(first.outcomes, later.outcomes))
                 if a.output != b.output or a.verdict != b.verdict]
        if not diffs and later.document != first.document:
            diffs = range(len(later.outcomes))
        failed_pairs.update((k, i) for i in diffs)


def account(passes, check_failures: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every (pass, case) operation."""
    failed_pairs = set()
    for k, p in enumerate(passes):
        for i, out in enumerate(p.outcomes):
            if out.error or i in check_failures:
                failed_pairs.add((k, i))
    compare_passes(passes, failed_pairs)
    attempted = sum(len(p.outcomes) for p in passes)
    messages = [f"case {i}: {'; '.join(msgs)}" for i, msgs in sorted(check_failures.items())]
    messages += [f"pass {k} case {i}: output differs from pass 0"
                 for k, i in sorted(failed_pairs) if k and i not in check_failures
                 and not passes[k].outcomes[i].error]
    return attempted, len(failed_pairs), messages


def _time_metrics(passes, n_cases, setup_times, scaled: bool) -> tuple[dict, tuple]:
    """The timing metrics from the median of each ideal's runs, with every
    time scaled to nominal host speed or as measured; also (samples,
    percentile, beyond) of the tail."""
    latencies = []
    for i in range(n_cases):
        runs = [o.latency * (o.scale if scaled else 1.0)
                for o in (p.outcomes[i] for p in passes) if o.latency is not None]
        if runs:
            latencies.append(statistics.median(runs))
    if not latencies:
        raise RuntimeError("no ideal completed")
    tail, percentile, beyond = tail_of(latencies)
    return {
        "ideals_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_tail_ms": 1000.0 * tail,
        "setup_s": statistics.median(t * (s if scaled else 1.0) for t, s in setup_times),
    }, (len(latencies), percentile, beyond)


def end_to_end_metrics(passes, cases, setup_times) -> tuple[dict, dict]:
    values, (samples, percentile, beyond) = _time_metrics(passes, len(cases), setup_times, True)
    unscaled, _ = _time_metrics(passes, len(cases), setup_times, False)
    decided = sum(1 for o in passes[0].outcomes if o.verdict in workloads.DECIDED)
    values["decided_frac"] = decided / len(cases)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]} for name, _ in END_TO_END}
    scales = [o.scale for p in passes for o in p.outcomes if o.latency is not None]
    info = {
        "latency_samples": samples,
        "tail_percentile": round(percentile, 3),
        "tail_samples_beyond": beyond,
        "decided": decided,
        "unscaled": {k: round(v, 6) for k, v in unscaled.items()},
        "scale_median": round(statistics.median(scales), 4),
    }
    return metrics, info


def per_layer_metrics(tracers, untraced, traced, problems: list) -> dict:
    """Per-layer metrics of the traced passes `traced`, recorded by `tracers`;
    `untraced` are the passes run in between."""
    counts = [t.counts() for t in tracers]
    for other in counts[1:]:
        diff = sorted(k for k in counts[0] if counts[0][k] != other[k])
        if diff:
            problems.append(f"traced counts differ between passes: {', '.join(diff)}")
    coverage = min(t.root_time / p.wall for t, p in zip(tracers, traced))
    if coverage < MIN_COVERAGE:
        problems.append(f"spans cover {coverage:.3f} of traced wall time, "
                        f"below {MIN_COVERAGE}")
    n = len(tracers)
    values = {}
    for span in tracing.SPANS:
        values[f"{span}.calls"] = tracers[0].calls[span]
        values[f"{span}.self_s"] = sum(t.self_time[span] for t in tracers) / n
        values[f"{span}.incl_s"] = sum(t.incl[span] for t in tracers) / n
    values["groebner.nf.calls"] = tracers[0].nf_calls
    values["groebner.buchberger.max_basis"] = tracers[0].max_basis
    values.update(tracers[0].ratios())
    values["trace.overhead_s"] = (statistics.mean(p.wall for p in traced)
                                  - statistics.mean(p.wall for p in untraced))
    values["trace.coverage"] = coverage
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in tracing.per_layer_spec()}


def _strip(result):
    """Keep only what the cross-pass comparison and the metrics need."""
    for out in result.outcomes:
        out.report = out.presentation = None
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    setup_times = []
    passes, traced, tracers = [], [], []
    order_rng = random.Random(seed)
    check_failures = {}
    # no reference timings inside the passes of a traced run: its spans should
    # hold only the engine's work
    timer = workloads.timed_unscaled if trace else workloads.timed

    def one_pass(tracer=None):
        # a fresh import before every pass spreads the set-up samples over the run
        mods, cases = setup(workload, smoke, setup_times)
        api = entry_points(mods)
        order = list(range(len(cases)))
        order_rng.shuffle(order)
        if tracer is None:
            result = workloads.run_pass(workload, mods, api, cases, order, timer)
        else:
            with tracer.installed(mods, api):
                result = workloads.run_pass(workload, mods, api, cases, order, timer)
        if not passes and not traced:
            check_failures.update(workloads.check_pass(workload, mods, cases, result, seed))
        result.cases = cases
        return _strip(result)

    started = time.perf_counter()
    if trace:
        # traced, untraced, traced: the overhead estimate is symmetric in time
        for k in range(TRACED_PASSES):
            if k:
                passes.append(one_pass())
            tracers.append(tracing.Tracer())
            traced.append(one_pass(tracers[-1]))
    else:
        while len(passes) < workloads.PASSES[workload] and (
                not passes or time.perf_counter() - started < seconds):
            passes.append(one_pass())
    measured = time.perf_counter() - started

    cases = passes[0].cases
    attempted, failed, messages = account(passes + traced, check_failures)
    digest = hashlib.sha256(passes[0].document.encode()).hexdigest()
    if trace:
        metrics = per_layer_metrics(tracers, passes, traced, messages)
        info = {}
    else:
        metrics, info = end_to_end_metrics(passes, cases, setup_times)
    env = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "commit": commit_id(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "ideals": len(cases),
        "passes": len(passes) + len(traced),
        "pass_walls_s": [round(p.wall, 4) for p in passes + traced],
        "measured_s": round(measured, 3),
        "setup_samples": len(setup_times),
        "output_digest": digest,
        "failures": messages[:20],
        **info,
    }
    return {
        "env": env,
        "result": {
            "correct": failed == 0 and not messages,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    results = {}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    width = max(len(name) for r in results.values() for name in r["metrics"])
    for workload, result in results.items():
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              f"failed_frac={result['failed'] / result['attempted']:.4f}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<{width}}  {metric['value']:.6g} {metric['unit']}")
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one ideal per family")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for message in out["env"]["failures"]:
        print(f"failure: {message}", file=sys.stderr)
    print(json.dumps({"env": out["env"]}, sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
