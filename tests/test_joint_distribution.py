"""joint_distribution against a frozen copy of the branching walk it replaced.

``walk_distribution`` is that walk as it stood: it measures the observables in
order and, on every random outcome, branches into both forced results.  It
makes up to 2^(r+1) calls to ``measure_forced``, so it is kept here only as
the reference for exact equality.
"""
import math

import pytest

from axiombox import pauli
from axiombox import stabilizer as stab
from axiombox.experiment import philox_rng
from axiombox.stabilizer import MeasurementKind, OutcomeDistribution


def walk_distribution(t, obs_list):
    outcomes = {}

    def walk(state, index, prob, signs):
        if index == len(obs_list):
            outcomes[signs] = outcomes.get(signs, 0.0) + prob
            return
        obs = obs_list[index]
        first = stab.measure_forced(state, obs, 1)
        if first.kind is MeasurementKind.DETERMINISTIC:
            walk(first.post_state, index + 1, prob, signs + (first.outcome,))
        else:
            walk(first.post_state, index + 1, prob * 0.5, signs + (1,))
            second = stab.measure_forced(state, obs, -1)
            walk(second.post_state, index + 1, prob * 0.5, signs + (-1,))

    walk(t, 0, 1.0, ())
    return OutcomeDistribution(outcomes, len(obs_list))


def random_case(n, m, seed):
    """A prepared state, partly collapsed by some of the observables, and m
    commuting observables mixing random ones, products of earlier ones (their
    outcomes are XORs of earlier ones), identities and negations."""
    rng = philox_rng(seed, 1000 * n + m)
    state = stab.prepare(stab.random_axioms(n, rng))
    observables = stab.random_commuting_observables(n, m, rng)
    for obs in observables[: int(rng.integers(0, m + 1))]:
        if rng.random() < 0.3:
            state = stab.measure(state, obs, rng).post_state
    for i in range(2, m):
        if rng.random() < 0.3:
            a, b = rng.choice(i, size=2, replace=False)
            product = pauli.observable_product(observables[a], observables[b])
            observables[i] = product.negated() if rng.random() < 0.5 else product
    return state, observables


SMALL = [(n, m, seed) for n in range(1, 7) for m in (0, 1, n, 2 * n + 2) for seed in range(6)]
WIDE = [(n, m, seed) for n in (8, 12, 16) for m in (6, 9, 12) for seed in range(2)]


@pytest.mark.parametrize("n,m,seed", SMALL + WIDE)
def test_equals_frozen_walk(n, m, seed):
    state, observables = random_case(n, m, seed)
    assert stab.joint_distribution(state, observables).outcomes == (
        walk_distribution(state, observables).outcomes
    )


@pytest.mark.parametrize("n,m,seed", [(4, 10, 0), (8, 12, 1), (16, 12, 2), (16, 6, 3)])
def test_at_most_r_plus_one_passes(monkeypatch, n, m, seed):
    state, observables = random_case(n, m, seed)
    calls = []
    forced = stab.measure_forced
    monkeypatch.setattr(
        stab, "measure_forced", lambda *args: calls.append(1) or forced(*args)
    )
    dist = stab.joint_distribution(state, observables)
    r = int(math.log2(len(dist.outcomes)))
    assert set(dist.outcomes.values()) == {0.5 ** r}
    assert 0 < len(calls) <= (r + 1) * m


def test_equals_frozen_walk_at_full_rank():
    rng = philox_rng(16, 12)
    state = stab.prepare(stab.random_axioms(16, rng))
    observables = stab.random_commuting_observables(16, 12, rng)
    dist = stab.joint_distribution(state, observables)
    assert len(dist.outcomes) == 2 ** 12
    assert dist.outcomes == walk_distribution(state, observables).outcomes


def test_rejects_an_observable_of_another_size():
    state = stab.prepare(stab.random_axioms(2, philox_rng(2, 2)))
    observables = [pauli.parse_observable("ZZ"), pauli.parse_observable("ZZZ")]
    with pytest.raises(ValueError, match="size mismatch: 3 vs 2 qubits"):
        stab.joint_distribution(state, observables)
