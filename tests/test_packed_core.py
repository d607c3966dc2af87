"""The packed tableau core against a frozen copy of the object-based engine.

``frozen_measure`` is the measurement the tableau made while it stored
``SignedObservable`` generators and ``BitVector`` destabilizers: every
symplectic product on ``BitVector``s, every sign from ``pauli.multiply`` and
``pauli.observable_product``.  It is kept here only as the reference: seeded
sequences of ``measure`` and ``measure_forced`` must give the same outcome,
kind, post-state, destabilizers and rng draws in both engines.
"""
import pytest

from axiombox import pauli
from axiombox import stabilizer as stab
from axiombox.experiment import philox_rng
from axiombox.gf2 import BitVector, symplectic_product
from axiombox.pauli import PauliOperator, SignedObservable
from axiombox.stabilizer import MeasurementKind


def frozen_phase_bit(target, factors):
    product = PauliOperator.identity(target.n_qubits)
    for f in factors:
        product = pauli.multiply(product, f)
    if product.vector != target.vector:
        raise AssertionError("observable not in generator span")
    return (target.phase - product.phase) % 4 // 2


def frozen_collapse(gens, destabs, obs, anticommuting, outcome):
    q = anticommuting[0]
    pivot = gens[q]
    pv = pivot.vector
    gens, destabs = list(gens), list(destabs)
    for p in anticommuting[1:]:
        gens[p] = pauli.observable_product(gens[p], pivot)
    ov = obs.vector
    for p, d in enumerate(destabs):
        if p != q and symplectic_product(ov, d):
            destabs[p] = d ^ pv
    destabs[q] = pv
    gens[q] = SignedObservable(obs.base, outcome * obs.sign)
    return gens, destabs


def frozen_measure(gens, destabs, obs, rng, outcome):
    """(outcome, kind, generators, destabilizers) after measuring ``obs``."""
    ov = obs.vector
    anticommuting = [p for p, g in enumerate(gens) if symplectic_product(ov, g.vector)]
    if not anticommuting:
        factors = [g for g, d in zip(gens, destabs) if symplectic_product(ov, d)]
        definite = obs.sign * (-1) ** frozen_phase_bit(obs.base, [g.base for g in factors])
        for g in factors:
            definite *= g.sign
        return definite, MeasurementKind.DETERMINISTIC, gens, destabs
    if outcome is None:
        outcome = 1 if rng.random() < 0.5 else -1
    gens, destabs = frozen_collapse(gens, destabs, obs, anticommuting, outcome)
    return outcome, MeasurementKind.RANDOM, gens, destabs


class CountingRng:
    """A seeded stream that counts its ``random()`` draws."""

    def __init__(self, seed):
        self._rng = philox_rng(seed, 99)
        self.draws = 0

    def random(self):
        self.draws += 1
        return self._rng.random()


def next_observable(rng, n, gens, destabs, history):
    """A generator product (definite), a random mask, a generator product
    times some destabilizers (random), or a repeat of an earlier one."""
    choice = int(rng.integers(0, 4))
    if choice == 3 and history:
        return history[int(rng.integers(0, len(history)))]
    mask = 0
    if choice == 0:
        for g, bit in zip(gens, rng.integers(0, 2, size=n)):
            mask ^= g.vector.mask if bit else 0
    elif choice == 1:
        mask = int.from_bytes(rng.bytes(16), "little") & ((1 << 2 * n) - 1)
    else:
        for g, d, bit in zip(gens, destabs, rng.integers(0, 4, size=n)):
            mask ^= (g.vector.mask if bit & 1 else 0) ^ (d.mask if bit & 2 else 0)
    obs = pauli.from_proposition(BitVector.from_mask(mask, 2 * n))
    return obs.negated() if rng.integers(0, 2) else obs


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 16, 32, 64, 128])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_packed_core_equals_frozen_engine(n, seed):
    rng = philox_rng(seed, 500 + n)
    state = stab.prepare(stab.random_axioms(n, rng))
    gens, destabs = list(state.generators), list(state.destabilizers)
    packed_rng, frozen_rng = CountingRng(seed), CountingRng(seed)
    history = []
    for _ in range(min(4 * n, 80) + 8):
        obs = next_observable(rng, n, gens, destabs, history)
        history.append(obs)
        if rng.integers(0, 2):
            result = stab.measure(state, obs, packed_rng)
            outcome, kind, gens, destabs = frozen_measure(gens, destabs, obs, frozen_rng, None)
        else:
            forced = 1 if rng.integers(0, 2) else -1
            result = stab.measure_forced(state, obs, forced)
            outcome, kind, gens, destabs = frozen_measure(gens, destabs, obs, None, forced)
        state = result.post_state
        assert (result.outcome, result.kind) == (outcome, kind)
        assert state.to_text() == "".join(pauli.format_observable(g) + "\n" for g in gens)
        assert [d.mask for d in state.destabilizers] == [d.mask for d in destabs]
        assert packed_rng.draws == frozen_rng.draws
    state.check_invariants()
