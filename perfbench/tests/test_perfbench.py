"""Tests of the benchmark itself: its input generator, its checks, and that
tracing leaves every output unchanged.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""
import dataclasses
import hashlib
import os
import random
from pathlib import Path

import pytest

from axiombox import gf2
from axiombox import stabilizer as stab

import gen
import hostspeed
import ladder
import run
import spans
import workloads as wl

LADDER = (4, 5, 6, 8, 16, 32, 64, 128)


@pytest.mark.parametrize("n", LADDER)
def test_generated_axioms_commute_and_are_independent(n):
    system = gen.random_system(random.Random(n), n)
    vectors = [gf2.BitVector.from_mask(v, 2 * n) for v in system.stab]
    for p in range(n):
        for q in range(p + 1, n):
            assert gf2.symplectic_product(vectors[p], vectors[q]) == 0
    assert gf2.rank(gf2.BitMatrix(vectors, num_cols=2 * n)) == n
    for p, d in enumerate(system.destab):
        assert [gen.sp(d, s, n) for s in system.stab] == [int(p == q) for q in range(n)]


def test_generator_stream_is_pinned():
    # Benchmark inputs must not drift: a change here changes every workload.
    system = gen.random_system(gen.job_rng("w", 7, 3), 16)
    assert hashlib.sha256(repr(system).encode()).hexdigest()[:16] == "78eb276493cde31b"


@pytest.mark.parametrize("m,r", [(6, 3), (6, 6), (8, 8), (12, 5), (4, 0)])
def test_observables_commute_with_controlled_rank_growth(m, r):
    rng = random.Random(m * 100 + r)
    system = gen.random_system(rng, 16)
    obs = gen.commuting_observables(rng, system, m, r)
    for i, a in enumerate(obs.vectors):
        assert all(gen.sp(a, b, 16) == 0 for b in obs.vectors[i + 1 :])
    assert gen.rank(list(system.stab) + list(obs.vectors)) - 16 == r
    assert sum(1 for i, p in enumerate(obs.prim) if p == 1 << i) == r


def test_distribution_check_matches_the_library_and_catches_a_wrong_one():
    rng = random.Random(5)
    system = gen.random_system(rng, 6)
    obs = gen.commuting_observables(rng, system, 5, 2)
    state = stab.prepare(wl.axiom_pairs(system))
    outcomes = stab.joint_distribution(state, wl.observables(system, obs)).outcomes
    problems = []
    wl.check_distribution(system, obs, outcomes, problems)
    assert problems == []
    flipped = {tuple(-s for s in k): p for k, p in outcomes.items()}
    wl.check_distribution(system, obs, flipped, problems)
    assert problems


def test_wide_check_catches_a_wrong_deterministic_outcome():
    w = wl.WORKLOADS["wide_tableau"]
    job = w.job(1, 1)  # N=32
    evolved, truths, results = w.run(job)
    problems = []
    w.check(job, (evolved, truths, results), problems)
    assert problems == []
    bad = dataclasses.replace(results[0], outcome=-results[0].outcome)
    w.check(job, (evolved, truths, [bad] + results[1:]), problems)
    assert problems


# The first jobs of each cycle that stay small, so the test is quick.
SMALL_JOBS = {
    "wide_tableau": [1, 2, 4],
    "query_mix": [0, 1, 2, 3, 5],  # every job kind
}


@pytest.mark.parametrize("name", sorted(SMALL_JOBS))
def test_traced_and_untraced_digests_match(name):
    w = wl.WORKLOADS[name]
    plain = run.Tally(w, 10)
    for index in SMALL_JOBS[name]:
        plain.run(w.job(3, index))
    tracer = spans.Tracer()
    traced = run.Tally(w, 10)
    with tracer:
        for index in SMALL_JOBS[name]:
            traced.run(w.job(3, index), tracer.span("job"))
    assert plain.failed == traced.failed == 0, plain.problems + traced.problems
    assert plain.hexdigest == traced.hexdigest
    assert any(s[0].startswith("stabilizer.") for s in tracer.spans)
    assert stab.prepare.__module__ == "axiombox.stabilizer"  # unwrapped again


def test_spans_self_time_excludes_children():
    recorded = [
        ("job", 0.0, 10.0, -1, None),
        ("stabilizer.prepare", 1.0, 9.0, 0, None),
        ("gf2.in_span", 2.0, 5.0, 1, None),
        ("gf2.in_span", 6.0, 7.0, 1, None),
    ]
    self_time = spans.analyse(recorded)
    assert self_time == [2.0, 4.0, 3.0, 1.0]
    assert spans.self_seconds(recorded, self_time) == {"stabilizer": 4.0, "gf2": 4.0}


def test_small_jobs_give_every_layer_metric_a_value():
    # They stand in for whatever a workload's own jobs never call.
    tracer = spans.Tracer()
    problems = []
    with tracer, tracer.span("probe"):
        ladder.small_jobs(1, problems)
    assert problems == []
    metrics = run.layer_metrics(tracer)
    assert all(metrics.values()), [k for k, v in metrics.items() if not v]
    assert 0 < metrics["stabilizer.joint_distribution.useful_ratio"] <= 1


def test_throughput_is_jobs_over_summed_latency():
    metrics = run.end_to_end([0.1, 0.1, 0.3], [1.0])
    assert metrics["throughput_jobs_per_s"] == pytest.approx(6.0)


def test_reference_speed_scales_by_the_host_reading():
    nominal = hostspeed.NOMINAL_S
    scaled = hostspeed.at_reference_speed([0.1, 0.3], [nominal, 2 * nominal])
    assert scaled == pytest.approx([0.1, 0.15])


def test_calibrated_tally_reads_the_host_around_every_job():
    w = wl.WORKLOADS["wide_tableau"]
    tally = run.Tally(w, 0)
    tally.run(w.job(1, 1))
    assert tally.failed == 0 and len(tally.host) == len(tally.latencies) == 1
    assert 0 < tally.host[0] < tally.latencies[0]


def test_setup_is_timed_with_a_host_reading_from_the_same_interpreter():
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times, host = run.measure_setup(root, env, 1)
    assert len(times) == len(host) == 1
    assert 0 < times[0] and 0 < host[0] < 1
