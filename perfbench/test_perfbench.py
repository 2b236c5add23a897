"""Tests of the benchmark itself: python -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def mods():
    return run.import_engine()


def _run(*args, cwd=HERE.parent):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=cwd)


def test_spec_matches_the_metrics_the_runner_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {(m["name"], m["unit"]) for m in SPEC["end_to_end"]} == set(run.END_TO_END)
    assert SPEC["per_layer"] == tracing.per_layer_spec()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct, beyond = run.tail_of([float(i) for i in range(188)])
    assert value == 177.0
    assert sum(1 for i in range(188) if i > value) == beyond == 10
    assert pct == pytest.approx(100 * 178 / 188)
    assert run.tail_of([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def _classified(mods, family, params):
    exps = mods.families.family_exponents(family, params)
    case = workloads.Case(family, params, exps)
    ideal = workloads._fresh_ideal(mods, case, mods.fields.QQ)
    report = mods.engine.classify(ideal, mods.engine.ClassifyConfig(seed=0))
    out = workloads.Outcome(latency=0.0, verdict=report.verdict.value, report=report)
    return case, out


def test_true_verdicts_pass_the_checks(mods):
    for family, params in (("power-order", {"m": 3, "n": 5}),
                           ("contracted-o3", {"n": 6, "alpha": 3, "beta": 5})):
        case, out = _classified(mods, family, params)
        assert workloads.check_case(mods, case, out, 0, 0, "q") == []


def test_planted_wrong_verdict_is_reported(mods):
    case, out = _classified(mods, "power-order", {"m": 3, "n": 5})
    assert out.verdict == "AG_CERTIFIED"
    planted = dataclasses.replace(out.report, verdict=mods.engine.Verdict.NOT_AG,
                                  refutation=None)
    bad = workloads.Outcome(latency=0.0, verdict="NOT_AG", report=planted)
    problems = workloads.check_case(mods, case, bad, 0, 0, "q")
    assert any("no refutation evidence" in p for p in problems)
    assert any("closed form" in p for p in problems)
    case, out = _classified(mods, "contracted-o3", {"n": 6, "alpha": 3, "beta": 5})
    assert out.verdict == "NOT_AG"
    x = mods.poly.Polynomial.variable(mods.poly.BASE_RING, mods.fields.QQ, "x")
    witness = mods.engine.AGWitness(f=x, g=x ** 3, h=x)
    planted = dataclasses.replace(out.report, verdict=mods.engine.Verdict.AG_CERTIFIED,
                                  witness=witness)
    bad = workloads.Outcome(latency=0.0, verdict="AG_CERTIFIED", report=planted)
    problems = workloads.check_case(mods, case, bad, 0, 0, "q")
    assert any("re-verification" in p for p in problems)
    assert any("closed form" in p for p in problems)


def test_twin_contradicting_its_source_is_reported(mods):
    case, out = _classified(mods, "power-order", {"m": 3, "n": 5})
    source = dataclasses.replace(out.report, colength=out.report.colength + 1,
                                 verdict=mods.engine.Verdict.NOT_AG)
    problems = workloads.check_case(mods, case, out, 0, 0, "q", source=source)
    assert any("colength" in p for p in problems)
    assert any("monomial source" in p for p in problems)


def test_output_mismatch_between_passes_is_a_failure():
    same = [workloads.Outcome(latency=0.1, verdict="NOT_AG", output="a")]
    other = [workloads.Outcome(latency=0.1, verdict="NOT_AG", output="b")]
    passes = [workloads.PassResult(1.0, same, "a"), workloads.PassResult(1.0, other, "b")]
    attempted, failed, messages = run.account(passes, {})
    assert (attempted, failed) == (2, 1)
    assert "differs" in messages[0]


def test_times_are_scaled_by_the_reference_loop():
    # one ideal, run in two passes: 10 ms on a host at half nominal speed
    # and 8 ms at nominal speed
    slow = workloads.Outcome(latency=0.010, scale=0.5, verdict="NOT_AG")
    fast = workloads.Outcome(latency=0.008, scale=1.0, verdict="NOT_AG")
    passes = [workloads.PassResult(1.0, [slow], ""), workloads.PassResult(1.0, [fast], "")]
    setups = [(0.2, 0.5), (0.1, 1.0), (0.3, 0.5)]
    scaled, _ = run._time_metrics(passes, 1, setups, True)
    assert scaled["latency_p50_ms"] == pytest.approx(6.5)
    assert scaled["setup_s"] == pytest.approx(0.1)
    unscaled, _ = run._time_metrics(passes, 1, setups, False)
    assert unscaled["latency_p50_ms"] == pytest.approx(9.0)
    assert unscaled["setup_s"] == pytest.approx(0.2)
    _, took, scale = workloads.timed(lambda: None)
    assert took >= 0 and scale > 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(trace):
    proc = _run("--workload", "monomial-survey", "--smoke", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = json.loads(lines[-2])["env"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for key in ("commit", "python", "nproc", "seed", "passes", "output_digest"):
        assert key in env
    # the pass count is fixed, whatever the speed of the host or the code
    expected = 1 + run.TRACED_PASSES if trace == "1" else workloads.PASSES["monomial-survey"]
    assert env["passes"] == expected


def test_exits_nonzero_without_the_engine(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "rees-presentations", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
