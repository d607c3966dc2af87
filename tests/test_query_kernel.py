"""The one Pauli query kernel, ``stabilizer._scan``, around its generator prefix.

The kernel tests the first ``_PREFIX`` generators, then decides a definite
outcome from one destabilizer pass and resumes the generator scan only when
the product of the picked generators is not the observable.  Destabilizer
d_p anticommutes only with g_p, so d_p XOR any mix of generators and of
destabilizers above p puts the first anticommuting generator at p: these
tests place it on either side of the prefix's end and at the last
generator, and compare ``measure_forced`` with the frozen eager measurement
of ``tests/test_measure_kernel.py``, ``classify`` with the frozen reduce of
``tests/test_tableau_dependence.py``, and ``quantum_truth`` with the
definite outcome of ``measure_forced``.
"""
import itertools

import numpy as np
import pytest
from test_measure_kernel import frozen_measure, state_of
from test_tableau_dependence import frozen_classify, frozen_pivots

from axiombox import logic, pauli
from axiombox import stabilizer as stab
from axiombox.gf2 import BitVector, _swap_halves
from axiombox.logic import AxiomSet, Proposition
from axiombox.stabilizer import MeasurementKind, StabilizerTableau

K = stab._PREFIX
SIZES = [1, 3, K - 1, K, K + 1, 16, 40, 128]


def axiom_set(n, seed):
    rng = np.random.default_rng(seed)
    pairs = stab.random_axioms(n, rng)
    return AxiomSet([v for v, _ in pairs], [int(s < 0) for _, s in pairs]), rng


def mix(rng, masks):
    out = 0
    for bit, m in zip(rng.integers(0, 2, len(masks)), masks):
        if bit:
            out ^= m
    return out


def first_hit_at(t, p, rng):
    """d_p XOR a random mix of generators and of destabilizers above p."""
    return t._destabs[p] ^ mix(rng, t._gens) ^ mix(rng, t._destabs[p + 1:])


def pivots(n):
    """First-anticommuting positions: both sides of the prefix's end, the
    last generator, and every position of a tableau shorter than the prefix."""
    if n <= K:
        return list(range(n))
    return sorted({K - 1, K, K + 1, n - 1} & set(range(n)))


def observable(mask, n, negative):
    obs = pauli.from_proposition(BitVector.from_mask(mask, 2 * n))
    return obs.negated() if negative else obs


def assert_measures_as_frozen(t, obs):
    for forced in (1, -1):
        result = stab.measure_forced(t, obs, forced)
        bit, kind, post = frozen_measure(t, obs, lambda: int(forced < 0))
        assert (result.outcome, result.kind) == (-1 if bit else 1, kind)
        assert state_of(result.post_state) == state_of(post)
        result.post_state.check_invariants()


def assert_classifies_as_frozen(axioms, mask):
    j = Proposition(BitVector.from_mask(mask, 2 * axioms.n_qubits))
    got, want = logic.classify(j, axioms), frozen_classify(j, axioms, frozen_pivots(axioms))
    assert got == want


@pytest.mark.parametrize("n", SIZES)
def test_first_anticommuting_generator_around_the_prefix(n):
    axioms, rng = axiom_set(n, 2400 + n)
    for p in pivots(n):
        for _ in range(4):
            mask = first_hit_at(axioms, p, rng)
            swapped = _swap_halves(mask, n)
            hits = [q for q, g in enumerate(axioms._gens) if (swapped & g).bit_count() & 1]
            assert hits[0] == p
            assert stab._scan(axioms, mask, swapped) == (p, None)
            assert_measures_as_frozen(axioms, observable(mask, n, rng.integers(0, 2)))
            assert_classifies_as_frozen(axioms, mask)


@pytest.mark.parametrize("n", SIZES)
def test_definite_observables(n):
    """The identity, each generator, products of random subsets and of
    generators past the prefix only."""
    axioms, rng = axiom_set(n, 2500 + n)
    gens = axioms._gens
    masks = [0, *gens, *(mix(rng, gens) for _ in range(8)), mix(rng, gens[K:])]
    for mask in masks:
        q, definite = stab._scan(axioms, mask, _swap_halves(mask, n))
        assert q is None and definite is not None
        for negative in (0, 1):
            assert_measures_as_frozen(axioms, observable(mask, n, negative))
        assert_classifies_as_frozen(axioms, mask)


def test_identity_is_definite_with_no_factors():
    axioms, _ = axiom_set(K + 3, 2600)
    assert stab._scan(axioms, 0, 0) == (None, ([], 0, 0))
    identity = pauli.SignedObservable.identity(K + 3)
    assert stab.measure_forced(axioms, identity, -1).outcome == 1
    assert stab.measure_forced(axioms, identity.negated(), 1).outcome == -1


@pytest.mark.parametrize("n", [2, K + 2, 40])
def test_broken_pairing_raises(n):
    """A destabilizer pairing broken off the diagonal picks the wrong factors
    for g_1, which commutes with every generator: the resumed scan finds no
    anticommuting generator, and the kernel says so instead of guessing."""
    axioms, _ = axiom_set(n, 2700 + n)
    d = list(axioms._destabs)
    broken = StabilizerTableau(n, axioms._gens, axioms._signs, [d[0] ^ d[1], *d[1:]])
    g1 = axioms._gens[1]
    with pytest.raises(AssertionError, match="observable not in generator span"):
        stab._scan(broken, g1, _swap_halves(g1, n))


def definite_bit(state, j):
    result = stab.measure_forced(state, j.observable(), 1)
    if result.kind is not MeasurementKind.DETERMINISTIC:
        return None
    return 0 if result.outcome == 1 else 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quantum_truth_is_the_definite_outcome_of_every_proposition(n):
    for seed in range(4):
        axioms, _ = axiom_set(n, 2800 + 10 * n + seed)
        states = [axioms, stab.prepare(stab.random_axioms(n, np.random.default_rng(seed)))]
        for state, mask in itertools.product(states, range(4 ** n)):
            j = Proposition(BitVector.from_mask(mask, 2 * n))
            assert logic.quantum_truth(j, state) == definite_bit(state, j)


@pytest.mark.parametrize("n", [16, 40])
def test_quantum_truth_is_the_definite_outcome_past_the_prefix(n):
    axioms, rng = axiom_set(n, 2900 + n)
    gens = axioms._gens
    masks = [mix(rng, gens) for _ in range(20)]
    masks += [first_hit_at(axioms, p, rng) for p in pivots(n) for _ in range(3)]
    masks += [int.from_bytes(rng.bytes(n), "little") % 4 ** n for _ in range(20)]
    truths = []
    for mask in masks:
        j = Proposition(BitVector.from_mask(mask, 2 * n))
        truths.append(logic.quantum_truth(j, axioms))
        assert truths[-1] == definite_bit(axioms, j)
    assert {0, 1, None} <= set(truths)


def test_quantum_truth_checks_the_length():
    axioms, _ = axiom_set(2, 3000)
    j = Proposition(BitVector.zeros(6))
    with pytest.raises(ValueError, match="length mismatch: proposition 6, axioms expect 4"):
        logic.quantum_truth(j, axioms)
