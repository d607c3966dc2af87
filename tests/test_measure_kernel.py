"""The measurement kernel against a frozen copy of its per-row-call version.

``frozen_measure``, ``frozen_collapse`` and ``frozen_commute_pairwise`` are
the bodies the tableau ran while each row test was one symplectic-form call
and each collapsed row's sign one two-factor ``phase_bit`` call.  They are
kept here only as the reference: seeded sequences of random and
deterministic measurements, drawn, forced and with affine sign forms, must
give the same outcome, kind, generators, signs, destabilizers and draws.
The sizes straddle the 64-bit word boundaries of both mask halves.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import axiombox
from axiombox import gf2, pauli
from axiombox import stabilizer as stab
from axiombox.experiment import philox_rng
from axiombox.gf2 import BitVector
from axiombox.stabilizer import MeasurementKind, StabilizerTableau

SIZES = [1, 2, 3, 4, 5, 6, 7, 8, 17, 63, 64, 65, 128, 256]
SRC = str(Path(axiombox.__file__).parents[1])


def frozen_symplectic(a, b, n):
    return ((a & (b >> n)) ^ ((a >> n) & b)).bit_count() & 1


def frozen_phase_bit(target, factors, n):
    v = e = 0
    for f in factors:
        e += (f & f >> n).bit_count() + 2 * (v >> n & f).bit_count()
        v ^= f
    if v != target:
        raise AssertionError("observable not in generator span")
    return ((target & target >> n).bit_count() - e) % 4 // 2


def frozen_commute_pairwise(masks, n):
    return not any(
        frozen_symplectic(a, b, n) for i, a in enumerate(masks) for b in masks[i + 1 :]
    )


def frozen_collapse(t, ov, sign, anticommuting):
    n = t._n
    q = anticommuting[0]
    gens, signs, destabs = list(t._gens), list(t._signs), list(t._destabs)
    gq, sq = gens[q], signs[q]
    for p in anticommuting[1:]:
        signs[p] ^= sq ^ frozen_phase_bit(gens[p] ^ gq, [gens[p], gq], n)
        gens[p] ^= gq
    for p, d in enumerate(destabs):
        if p != q and frozen_symplectic(ov, d, n):
            destabs[p] = d ^ gq
    destabs[q] = gq
    gens[q], signs[q] = ov, sign
    return StabilizerTableau(n, gens, signs, destabs)


def frozen_measure(t, obs, random_bit):
    n = t._n
    ov = obs.base._mask
    anticommuting = [p for p, g in enumerate(t._gens) if frozen_symplectic(ov, g, n)]
    if not anticommuting:
        factors = [p for p, d in enumerate(t._destabs) if frozen_symplectic(ov, d, n)]
        bit = int(obs.sign < 0) ^ frozen_phase_bit(ov, [t._gens[p] for p in factors], n)
        for p in factors:
            bit ^= t._signs[p]
        return bit, MeasurementKind.DETERMINISTIC, t
    bit = random_bit()
    post = frozen_collapse(t, ov, bit ^ int(obs.sign < 0), anticommuting)
    return bit, MeasurementKind.RANDOM, post


class Bits:
    """The three ways a random branch gets its bit: drawn from a seeded
    stream (counting the draws), forced, or a fresh affine variable."""

    def __init__(self, seed):
        self._rng = philox_rng(seed, 98)
        self.draws = 0
        self.fresh = 2

    def drawn(self):
        self.draws += 1
        return int(self._rng.random() >= 0.5)

    def variable(self):
        self.fresh <<= 1
        return self.fresh >> 1


def random_mask(rng, n):
    return int.from_bytes(rng.bytes((2 * n + 7) // 8), "little") & ((1 << 2 * n) - 1)


def next_observable(rng, state, history):
    """A generator product (definite), a random mask, a generator product
    times some destabilizers (random), or a repeat of an earlier one."""
    n = state.n_qubits
    choice = int(rng.integers(0, 4))
    if choice == 3 and history:
        return history[int(rng.integers(0, len(history)))]
    mask = 0
    if choice == 0:
        for g, bit in zip(state._gens, rng.integers(0, 2, size=n)):
            mask ^= g if bit else 0
    elif choice == 1:
        mask = random_mask(rng, n)
    else:
        for g, d, bit in zip(state._gens, state._destabs, rng.integers(0, 4, size=n)):
            mask ^= (g if bit & 1 else 0) ^ (d if bit & 2 else 0)
    obs = pauli.from_proposition(BitVector.from_mask(mask, 2 * n))
    return obs.negated() if rng.integers(0, 2) else obs


def state_of(t):
    return t._gens, t._signs, t._destabs


def eager_measure(t, obs, random_bit):
    """``(outcome bit, kind, post-state)``, the collapse run at once."""
    bit, kind, collapse = stab._measure_deferred(t, obs, random_bit)
    return bit, kind, stab._collapse(*collapse) if collapse else t


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_measure_equals_frozen_kernel(n, seed):
    rng = philox_rng(seed, 700 + n)
    state = frozen = stab.prepare(stab.random_axioms(n, rng))
    mine, theirs = Bits(seed), Bits(seed)
    history, kinds = [], set()
    for _ in range(min(4 * n, 64) + 8):
        obs = next_observable(rng, state, history)
        history.append(obs)
        mode = int(rng.integers(0, 3))
        if mode == 0:
            pick = (mine.drawn, theirs.drawn)
        elif mode == 1:
            forced = int(rng.integers(0, 2))
            pick = (lambda: forced, lambda: forced)
        else:
            pick = (mine.variable, theirs.variable)
        bit, kind, state = eager_measure(state, obs, pick[0])
        want_bit, want_kind, frozen = frozen_measure(frozen, obs, pick[1])
        assert (bit, kind) == (want_bit, want_kind)
        assert state_of(state) == state_of(frozen)
        assert (mine.draws, mine.fresh) == (theirs.draws, theirs.fresh)
        kinds.add(kind)
    assert kinds == set(MeasurementKind)
    state.check_invariants()


@pytest.mark.parametrize("n", SIZES)
def test_commute_pairwise_equals_frozen(n):
    rng = philox_rng(n, 71)
    count = min(2 * n, 40)
    commuting = [o.base._mask for o in stab.random_commuting_observables(n, count, rng)]
    cases = [[], commuting[:1], commuting, [random_mask(rng, n) for _ in range(count)]]
    for _ in range(6):  # one bit flipped in one mask: usually no longer commuting
        masks = list(commuting)
        k = int(rng.integers(0, len(masks)))
        masks[k] ^= 1 << int(rng.integers(0, 2 * n))
        cases.append(masks)
    results = [gf2._commute_pairwise(masks, n) for masks in cases]
    assert results == [frozen_commute_pairwise(masks, n) for masks in cases]
    assert results[:3] == [True, True, True] and False in results


@pytest.mark.parametrize("n", SIZES)
def test_row_tests_equal_symplectic_products(n):
    """One AND and popcount against the swapped mask is the symplectic form,
    and the two-factor phase bits are ``phase_bit``'s, for any pair."""
    rng = philox_rng(n, 72)
    masks = [random_mask(rng, n) for _ in range(40)] + [0, (1 << 2 * n) - 1]
    for a in masks:
        swapped = gf2._swap_halves(a, n)
        assert swapped >> 2 * n == 0 and gf2._swap_halves(swapped, n) == a
        assert [(swapped & b).bit_count() & 1 for b in masks] == [
            frozen_symplectic(a, b, n) for b in masks
        ]
        assert pauli._pair_phase_bits(masks, a, n) == [
            frozen_phase_bit(b ^ a, [b, a], n) for b in masks
        ]


def test_measurement_makes_no_per_row_calls(monkeypatch):
    """At N=64 the row scans make no per-row calls: one swap and one
    ``_scan`` per measurement, and one ``_pair_phase_bits`` per collapse."""
    n = 64
    rng = philox_rng(n, 73)
    state = stab.prepare(stab.random_axioms(n, rng))
    observables = []
    for _ in range(40):
        observables.append(next_observable(rng, state, observables))
    calls = {"scan": 0, "pair": 0, "swap": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(stab, "_scan", counting("scan", stab._scan))
    monkeypatch.setattr(pauli, "_pair_phase_bits", counting("pair", pauli._pair_phase_bits))
    monkeypatch.setattr(stab, "_swap_halves", counting("swap", stab._swap_halves))
    kinds = []
    for k, obs in enumerate(observables):
        result = stab.measure_forced(state, obs, 1 if k % 3 else -1)
        kinds.append(result.kind)
        state = result.post_state
    random = kinds.count(MeasurementKind.RANDOM)
    assert 0 < random < len(kinds)
    assert calls == {
        "scan": len(kinds),
        "pair": random,
        "swap": len(kinds),
    }


def broken_tableaus(n):
    """(message, n, gens, signs, destabs) of tableaus that break one invariant."""
    t = stab.prepare(stab.random_axioms(n, philox_rng(n, 74)))
    t.check_invariants()
    g, s, d = list(t._gens), list(t._signs), list(t._destabs)
    return [
        ("need n generators", n, g[:-1], s, d),
        ("commute pairwise", n, [g[0], d[0], *g[2:]], s, d),
        ("independent", n, [g[0], g[0], *g[2:]], s, d),
        ("pairing", n, g, s, [d[0] ^ d[1], *d[1:]]),  # off the diagonal only
        ("pairing", n, g, s, [d[1], d[0], *d[2:]]),
    ]


@pytest.mark.parametrize("n", [2, 5, 64, 65])
def test_check_invariants_catches_broken_tableaus(n):
    for message, *fields in broken_tableaus(n):
        with pytest.raises(AssertionError, match=message):
            StabilizerTableau(*fields).check_invariants()


def test_check_invariants_raises_under_optimize():
    """The checks are explicit raises, not ``assert`` statements that ``-O``
    strips: every broken tableau still raises in an optimized interpreter."""
    cases = [case for n in (2, 65) for case in broken_tableaus(n)]
    code = (
        "from axiombox.stabilizer import StabilizerTableau\n"
        "assert False, 'asserts must be off'\n"
        f"for message, *fields in {cases!r}:\n"
        "    try:\n"
        "        StabilizerTableau(*fields).check_invariants()\n"
        "    except AssertionError as e:\n"
        "        print(message in str(e))\n"
        "    else:\n"
        "        print(False)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True"] * len(cases)
