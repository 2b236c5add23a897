"""Command-line surface: byte stability, schemas, exit codes, parallelism."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from agrees.engine import classify, validate_report, verify_witness
from agrees.fields import QQ, field_from_config
from agrees.groebner import Ideal
from agrees.parse import parse_ideal_spec, parse_polynomial
from agrees.poly import BASE_RING

BASE = [sys.executable, "-m", "agrees.cli"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("AGREES_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, env=env, timeout=600)


def test_analyze_json_schema():
    out = run_cli("analyze", "--ideal", "x^3, x^2 y^3, x y^5, y^6")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["schema"] == "agrees/1"
    assert doc["verdict"] == "NOT_AG"
    assert doc["refutation"]["min_sum"] == 5
    assert doc["refutation"]["threshold"] == 4
    assert doc["colon"]["min_gens"] == 3
    # keys are sorted at every level
    assert list(doc) == sorted(doc)
    assert list(doc["refutation"]) == sorted(doc["refutation"])


def test_analyze_fixed_key_set():
    doc = json.loads(run_cli("analyze", "--ideal", "x^3, y^6").stdout)
    assert doc["verdict"] == "GORENSTEIN"
    for key in ("witness", "refutation", "rees_bidegrees"):
        assert key in doc and doc[key] is None


def test_analyze_certified_witness():
    out = run_cli("analyze", "--ideal", "x^2, x y^4, y^5")
    doc = json.loads(out.stdout)
    assert doc["verdict"] == "AG_CERTIFIED"
    assert run_cli("analyze", "--ideal", "x^2, x y^4, y^5").stdout == out.stdout
    w = doc["witness"]
    I = Ideal(parse_ideal_spec("x^2, x y^4, y^5", BASE_RING, QQ))
    J = Ideal([parse_polynomial(g, BASE_RING, QQ) for g in doc["colon"]["generators"]])
    f, g, h = (parse_polynomial(w[k], BASE_RING, QQ) for k in ("f", "g", "h"))
    assert verify_witness(I, J, f, g, h)


def test_analyze_byte_stable():
    a = run_cli("analyze", "--ideal", "x^2, x y^4, y^5", "--seed", "7")
    b = run_cli("analyze", "--ideal", "x^2, x y^4, y^5", "--seed", "7")
    assert a.stdout == b.stdout
    assert "elapsed" in a.stderr  # timing stays off stdout


# sha256 of `agrees analyze --rees --seed 0 --field F` stdout, pinned across
# commits: the flagship contracted-o3 (6,3,5) under x -> x + y/3, over q and
# over fp:2147483647, and remark43 m=4 under x -> x + 2y.  Over q these run
# every kernel on integer rows with denominators to clear, over fp on monic
# residue rows, so a kernel change that moves a byte fails here.
FLAGSHIP_TWIN = ("x^3 + x^2*y + 1/3*x*y^2 + 1/27*y^3, x^2*y^3 + 2/3*x*y^4 + 1/9*y^5, "
                 "x*y^5 + 1/3*y^6, y^6")
PINNED_ANALYZE = {
    "flagship-twin": (
        FLAGSHIP_TWIN, "q",
        "d267dc76ad3404143640f29cdd35a92efe26b596968582680baa693904f9c066"),
    "flagship-twin-fp": (
        FLAGSHIP_TWIN, "fp:2147483647",
        "b5991acba91fbc518ac1392f2b3bf473861ed218042c7884c655d54e9a10f49a"),
    "remark43-m4-twin": (
        "x^4 + 8*x^3*y + 24*x^2*y^2 + 32*x*y^3 + 16*y^4, y^8, "
        "x^3*y^3 + 6*x^2*y^4 + 12*x*y^5 + 8*y^6, x^2*y^5 + 4*x*y^6 + 4*y^7, x*y^7 + 2*y^8", "q",
        "11b81f64efa73469b4d9f0c1acd25c64a90d255c0b3415c8bfea0ebb1262604c"),
}


@pytest.mark.parametrize("name", sorted(PINNED_ANALYZE))
def test_analyze_bytes_are_pinned(name):
    text, field, digest = PINNED_ANALYZE[name]
    out = run_cli("analyze", "--ideal", text, "--rees", "--seed", "0", "--field", field)
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(PINNED_ANALYZE))
def test_pinned_reports_validate(name):
    text, field, _ = PINNED_ANALYZE[name]
    I = Ideal(parse_ideal_spec(text, BASE_RING, field_from_config(field)))
    assert validate_report(I, classify(I))


def test_analyze_pretty_includes_staircase():
    out = run_cli("analyze", "--ideal", "x^2, x y^4, y^5", "--pretty")
    assert out.returncode == 0
    assert "AG_CERTIFIED" in out.stdout
    assert "staircase" in out.stdout and "#" in out.stdout


def test_analyze_rees_flag():
    doc = json.loads(run_cli("analyze", "--ideal", "x^3, y^6", "--rees").stdout)
    assert doc["rees_bidegrees"] == [[1, 3]]


def test_analyze_prime_field():
    doc = json.loads(
        run_cli("analyze", "--ideal", "x^3, x^2 y^3, y^5",
                "--field", "fp:2147483647").stdout)
    assert doc["verdict"] == "NOT_AG"
    assert doc["refutation"]["primes"] == [2147483647]


def test_analyze_input_errors_exit_two():
    assert run_cli("analyze", "--ideal", "x^^2").returncode == 2
    assert run_cli("analyze", "--ideal", "z + y").returncode == 2
    assert run_cli("analyze", "--ideal", "x^2").returncode == 2  # not m-primary
    assert run_cli("analyze", "--ideal", "x, y", "--field", "fp:15").returncode == 2


def test_seed_env_override():
    doc = json.loads(
        run_cli("analyze", "--ideal", "x^3, y^6", "--seed", "3",
                env_extra={"AGREES_SEED": "11"}).stdout)
    assert doc["seed"] == 11


def test_survey_csv_shape():
    out = run_cli("survey", "--family", "three-gen", "--n", "3..5",
                  "--alpha", "1..4", "--seed", "0")
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert lines[0] == "family,params,verdict,o,mu_I,mu_J,min_sum,threshold,witness"
    rows = [line.split(",") for line in lines[1:]]
    params = [r[1] for r in rows]
    assert params == sorted(params, key=lambda p: [int(kv.split("=")[1]) for kv in p.split(";")])
    assert "invalid tuples skipped" in out.stderr
    verdicts = {r[1]: r[2] for r in rows}
    assert verdicts["n=4;alpha=2"] == "AG_CERTIFIED"
    assert verdicts["n=3;alpha=2"] == "NOT_AG"


def test_survey_jobs_deterministic():
    args = BASE + ["survey", "--family", "power-order", "--m", "2..3", "--n", "2..5"]
    env = dict(os.environ)
    env.pop("AGREES_SEED", None)
    one = subprocess.run(args + ["--jobs", "1"], capture_output=True, env=env, timeout=600)
    two = subprocess.run(args + ["--jobs", "2"], capture_output=True, env=env, timeout=600)
    assert one.stdout == two.stdout
    # RFC-4180 line endings on the raw byte stream
    assert one.stdout.count(b"\r\n") == one.stdout.count(b"\n")


def test_survey_has_one_range_flag_per_family_parameter():
    # the range flags are derived from FAMILY_PARAMS: one per parameter
    # name, in first-appearance order, which is the order --help lists
    import argparse

    from agrees.cli import _build_parser
    from agrees.families import FAMILY_PARAMS

    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    fixed = {"help", "family", "field", "seed", "jobs", "out"}
    flags = [a.option_strings for a in sub.choices["survey"]._actions if a.dest not in fixed]
    names = list(dict.fromkeys(p for params in FAMILY_PARAMS.values() for p in params))
    assert flags == [[f"--{name}"] for name in names]
    assert names == ["n", "alpha", "beta", "m", "m1", "n1", "m2", "n2"]


def test_survey_out_file(tmp_path):
    path = tmp_path / "rows.csv"
    out = run_cli("survey", "--family", "remark43", "--m", "4..4",
                  "--out", str(path))
    assert out.returncode == 0 and out.stdout == ""
    content = path.read_text()
    assert "remark43,m=4,NOT_AG" in content


def test_survey_jobs_below_one_exit_two():
    for jobs in ("0", "-3"):
        out = run_cli("survey", "--family", "power-order", "--m", "2", "--n", "2..4",
                      "--jobs", jobs)
        assert out.returncode == 2 and out.stdout == ""
        assert "jobs must be at least 1" in out.stderr


def test_survey_missing_range_exit_two():
    assert run_cli("survey", "--family", "three-gen", "--n", "3..5").returncode == 2
    assert run_cli("survey", "--family", "three-gen", "--n", "bad",
                   "--alpha", "1..2").returncode == 2
    assert run_cli("survey", "--family", "three-gen", "--n", "5..3",
                   "--alpha", "1..4").returncode == 2
    # a range flag the family does not take is an error, not dropped
    assert run_cli("survey", "--family", "remark43", "--m", "4", "--n", "3").returncode == 2


def test_repro_single_check():
    out = run_cli("repro", "thm14-simplest")
    assert out.returncode == 0
    assert "PASS" in out.stdout and "NOT_AG" in out.stdout


def test_repro_unknown_check():
    assert run_cli("repro", "definitely-not-a-check").returncode == 2


def test_repro_list():
    out = run_cli("repro", "--list")
    ids = out.stdout.split()
    assert "thm14-simplest" in ids and "prop41-boundary" in ids
    assert out.returncode == 0


# sha256 of `agrees repro --all` stdout, pinned across commits: its
# contracted-property-suite and oracle-agreement checks take their colons
# through groebner.ideal_colon and compare them with the staircase colon
REPRO_ALL_SHA256 = "0d226e92d96b263c46533c21552001ec7b1885d6f95554e4cabea6ab9e16ed07"


def test_repro_all_bytes_are_pinned():
    out = run_cli("repro", "--all")
    assert out.returncode == 0
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == REPRO_ALL_SHA256


def test_repro_prop41():
    out = run_cli("repro", "prop41-boundary")
    assert out.returncode == 0 and "0 mismatches" in out.stdout
