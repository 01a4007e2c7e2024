"""Tests of the benchmark itself: job generation, digest, tail rule, failures.

Run with ``python3 -m pytest bench/tests`` from the root of the repository.
"""

import random

import pytest

import run as bench
import workloads
from tracer import Tracer


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_generator_is_deterministic_per_seed(workload):
    keys = lambda seed: [j.key for j in workloads.make_jobs(workload, seed)]  # noqa: E731
    assert keys(7) == keys(7)
    assert keys(7) != keys(8)


def _cheap_jobs():
    """A few jobs of three workloads: about a second in all."""
    return (workloads.make_jobs("sweep-pet", 3)[:3]
            + workloads.make_jobs("pairs-align", 3)[:4]
            + workloads.make_jobs("chain-probe", 3)[6:7])


def test_digest_is_identical_with_tracing_on_and_off():
    jobs = _cheap_jobs()
    plain, _ = bench.run_jobs(jobs, len(jobs), workloads.no_span)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = bench.run_jobs(jobs, len(jobs), tracer.span)
    finally:
        tracer.uninstall()
    assert tracer.summary()["spans"] > len(jobs)
    assert all(ok for *_, ok in plain)
    assert bench.digest(jobs, plain) == bench.digest(jobs, traced)


def test_tracer_restores_every_binding():
    from plaid import cli, copying, tiling
    before = (tiling.build_tiling, copying.build_tiling, cli.build_tiling)
    tracer = Tracer()
    tracer.install()
    assert copying.build_tiling is not before[1]
    tracer.uninstall()
    assert (tiling.build_tiling, copying.build_tiling, cli.build_tiling) == before


@pytest.mark.parametrize("n", [5, 19, 20, 39, 40, 99, 100, 250, 999, 1000, 4000])
def test_tail_percentile_keeps_ten_samples_beyond(n):
    rng = random.Random(n)
    values = [rng.expovariate(1.0) for _ in range(n)]
    p, value, beyond = bench.tail(values)
    assert beyond == sum(1 for v in values if v > value)
    if n >= 20:
        assert beyond >= 10
        higher = [q for q in bench.TAIL_LADDER if q > p]
        if higher:  # the next percentile up would leave fewer than ten
            v = bench.percentile(sorted(values), higher[0])
            assert sum(1 for x in values if x > v) < 10
    else:
        assert p == 50.0


def test_tail_percentile_respects_the_cap():
    values = [float(i) for i in range(1000)]
    assert bench.tail(values)[0] == 99.0
    assert bench.tail(values, cap=90.0)[0] == 90.0


def test_a_job_that_raises_counts_as_failed_and_the_run_continues():
    def boom(span):
        raise ArithmeticError("forced")

    good = workloads.make_jobs("pairs-align", 3)[0]
    jobs = [good, workloads.Job("boom", boom, lambda v: True), good]
    records, _ = bench.run_jobs(jobs, 6, workloads.no_span)
    assert len(records) == 6
    assert bench.count_failed(records) == 2
    assert "ArithmeticError: forced" in records[1][2]
    assert records[0][3] and records[2][3] and records[5][3]


def test_runs_measure_whole_passes():
    jobs = _cheap_jobs()
    records, _, passes = bench.run_passes(jobs, 0, workloads.no_span)
    assert passes == 1 and len(records) == len(jobs)
