"""Survey expansion, workers, and the product-family probe."""

import os

import pytest

from agrees import survey
from agrees.errors import BadParameters
from agrees.survey import classify_tuple, expand_tuples, parse_range, run_survey


def test_parse_range_forms():
    assert list(parse_range("3..6")) == [3, 4, 5, 6]
    assert list(parse_range("4")) == [4]
    with pytest.raises(BadParameters):
        parse_range("a..b")
    with pytest.raises(BadParameters):
        parse_range("5..3")  # reversed, not an empty survey


def test_expand_counts_invalid_tuples():
    tuples, skipped = expand_tuples(
        "three-gen", {"n": range(3, 6), "alpha": range(1, 5)})
    assert all(2 * a >= n for n, a in tuples)
    assert skipped == 12 - len(tuples)
    assert tuples == sorted(tuples)
    tuples, skipped = expand_tuples(
        "contracted-o3", {"n": range(3, 8), "alpha": range(1, 7), "beta": range(1, 8)})
    assert tuples == [(n, alpha, beta) for n in range(3, 8) for alpha in range(1, 7)
                      for beta in range(1, 8) if alpha < beta < n]
    assert skipped == 5 * 6 * 7 - len(tuples)


def test_expand_requires_all_ranges():
    with pytest.raises(BadParameters):
        expand_tuples("contracted-o3", {"n": range(3, 5)})
    with pytest.raises(BadParameters):
        expand_tuples("not-a-family", {"n": range(3, 5)})
    with pytest.raises(BadParameters):
        expand_tuples("remark43", {"m": range(4, 5), "n": range(3, 4)})


def test_classify_tuple_row():
    row = classify_tuple(("power-order", (2, 5), 0, "q"))
    assert row.verdict == "AG_CERTIFIED"
    assert row.params == (("m", 2), ("n", 5))
    assert row.o == 2 and row.mu_I == 3 and row.mu_J == 2
    assert row.witness.startswith("f=")


def test_products_family_probe():
    rows, skipped = run_survey(
        "products",
        {"m1": range(2, 3), "n1": range(2, 4), "m2": range(2, 3), "n2": range(2, 4)},
        seed=0, field_config="q", jobs=1)
    assert skipped == 0 and len(rows) == 4
    # products of contracted ideals stay contracted: mu = o + 1 throughout
    assert all(r.mu_I == r.o + 1 for r in rows)
    assert {r.verdict for r in rows} <= {"AG_CERTIFIED", "NOT_AG", "UNKNOWN"}


def test_rows_deterministic_for_fixed_seed():
    spec = ("three-gen", {"n": range(3, 6), "alpha": range(1, 5)})
    a, _ = run_survey(spec[0], spec[1], seed=5, field_config="fp:2147483647", jobs=1)
    b, _ = run_survey(spec[0], spec[1], seed=5, field_config="fp:2147483647", jobs=2)
    assert a == b


def test_jobs_are_capped_by_tuples_and_cpus(monkeypatch):
    # a pool may start every worker at its first submit, so --jobs is capped
    # by the tuple count and the CPU count; the pool is a stand-in that
    # records its size and maps in this process, so no worker is started
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(survey, "ProcessPoolExecutor", SerialPool)
    spec = ("power-order", {"m": range(2, 3), "n": range(2, 5)})  # 3 tuples

    def run(jobs, cpus):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        rows, _ = run_survey(*spec, seed=0, field_config="fp:2147483647", jobs=jobs)
        return rows

    serial = run(1, 8)
    assert len(serial) == 3 and sizes == []
    assert run(500, 8) == serial and sizes == [3]
    assert run(500, 2) == serial and sizes == [3, 2]
    assert run(2, 8) == serial and sizes == [3, 2, 2]
    assert run(500, None) == serial and sizes == [3, 2, 2]  # CPU count unknown: one worker, no pool
    for jobs in (0, -4):
        with pytest.raises(BadParameters):
            run(jobs, 8)
    assert sizes == [3, 2, 2]
