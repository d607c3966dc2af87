"""Masks handed across the library's internal boundaries.

``apply_blackbox`` and ``conjugate_by_blackbox`` read each sign flip off a
mask with ``blackbox._parity``, and ``pauli._observable`` builds a signed observable
straight from a mask for ``parse_observable``, ``from_proposition``, a
tableau's ``generators`` and ``random_commuting_observables``.  These tests
pin both to frozen copies of the value-object paths they replace, and count
the ``BitVector`` and ``SignedObservable`` objects built, so
that no round trip through them comes back.
"""
from collections import Counter

import numpy as np
import pytest

from axiombox import blackbox as bb
from axiombox import pauli
from axiombox import stabilizer as stab
from axiombox.blackbox import BlackBoxConfig
from axiombox.gf2 import BitVector
from axiombox.pauli import SignedObservable
from axiombox.stabilizer import StabilizerTableau


# Frozen reference: apply_blackbox and the generators as they were, through a
# BitVector per generator and a SignedObservable per proposition vector, with
# the crossing formula of proposition_truth copied in.

def frozen_proposition_truth(j, cfg):
    if len(j) != 2 * cfg.n:
        raise ValueError(f"proposition vector length {len(j)} does not match {cfg.n} functions")
    return ((j.mask >> cfg.n & cfg._f0) ^ (j.mask & cfg._f1)).bit_count() & 1


def frozen_apply_blackbox(t, cfg):
    if cfg.n != t._n:
        raise ValueError(f"size mismatch: {t._n} qubits vs {cfg.n} functions")
    vectors = [BitVector.from_mask(g, 2 * t._n) for g in t._gens]
    signs = [s ^ frozen_proposition_truth(v, cfg) for v, s in zip(vectors, t._signs)]
    return StabilizerTableau(t._n, t._gens, signs, t._destabs)


def frozen_conjugate_by_blackbox(obs, cfg):
    if obs.n_qubits != cfg.n:
        raise ValueError(f"size mismatch: {obs.n_qubits} qubits vs {cfg.n} functions")
    return obs.negated() if frozen_proposition_truth(obs.vector, cfg) else obs


def frozen_observable(mask, n, sign):
    return SignedObservable(pauli.from_proposition(BitVector.from_mask(mask, 2 * n)).base, sign)


def random_mask(rng, n):
    return int.from_bytes(rng.bytes(n), "little") % 4 ** n


class TestApplyBlackbox:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_config(self, n):
        rng = np.random.default_rng(2310 + n)
        states = [stab.prepare(stab.random_axioms(n, rng)) for _ in range(6)]
        for cfg in BlackBoxConfig.all_configs(n):
            for t in states:
                got = stab.apply_blackbox(t, cfg)
                assert got == frozen_apply_blackbox(t, cfg)
                assert type(got) is StabilizerTableau

    @pytest.mark.parametrize("n", [32, 128])
    def test_random_configs(self, n):
        rng = np.random.default_rng(2320 + n)
        t = stab.prepare(stab.random_axioms(n, rng))
        for _ in range(20):
            cfg = BlackBoxConfig.from_labels(rng.integers(0, 4, n))
            assert stab.apply_blackbox(t, cfg) == frozen_apply_blackbox(t, cfg)

    def test_parity_is_proposition_truth(self):
        rng = np.random.default_rng(2330)
        for n in (1, 2, 5, 64):
            cfg = BlackBoxConfig.from_labels(rng.integers(0, 4, n))
            for _ in range(50):
                mask = random_mask(rng, n)
                v = BitVector.from_mask(mask, 2 * n)
                want = frozen_proposition_truth(v, cfg)
                assert bb._parity(mask, cfg) == bb.proposition_truth(v, cfg) == want

    def test_size_mismatch(self):
        t = stab.prepare([(pauli.parse_observable("Z").vector, 1)])
        with pytest.raises(ValueError, match="size mismatch: 1 qubits vs 2 functions"):
            stab.apply_blackbox(t, BlackBoxConfig.identity(2))


class TestConjugateByBlackbox:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_config(self, n):
        observables = [
            pauli._observable(mask, n, sign) for mask in range(4 ** n) for sign in (1, -1)
        ]
        for cfg in BlackBoxConfig.all_configs(n):
            for obs in observables:
                got = pauli.conjugate_by_blackbox(obs, cfg)
                assert got == frozen_conjugate_by_blackbox(obs, cfg)
                assert str(got) == str(frozen_conjugate_by_blackbox(obs, cfg))

    def test_builds_no_bit_vector(self, built):
        cfg = BlackBoxConfig.from_labels([1, 2, 3, 0, 2, 2, 1, 3])
        obs = pauli._observable(0xBEEF, 8, -1)
        built.clear()
        pauli.conjugate_by_blackbox(obs, cfg)
        assert "BitVector" not in built


class TestObservable:
    def test_equals_the_from_proposition_chain(self):
        rng = np.random.default_rng(2340)
        for n in range(1, 65):
            for mask in [0, 4 ** n - 1, *(random_mask(rng, n) for _ in range(8))]:
                for sign in (1, -1):
                    got, want = pauli._observable(mask, n, sign), frozen_observable(mask, n, sign)
                    assert got == want
                    assert got.base.phase == want.base.phase
                    assert str(got) == str(want)

    def test_parse_and_from_proposition_build_it(self):
        for text in ("+XYZ", "-YYX", "I", "-ZIIY"):
            obs = pauli.parse_observable(text)
            assert obs == pauli._observable(obs.base._mask, obs.n_qubits, obs.sign)
            assert pauli.from_proposition(obs.vector) == pauli._observable(
                obs.base._mask, obs.n_qubits
            )

    def test_rejects_a_sign_outside_plus_minus_one(self):
        with pytest.raises(ValueError, match="sign must be"):
            pauli._observable(0b11, 1, 0)

    @pytest.mark.parametrize("n", [1, 4, 32])
    def test_generators(self, n):
        t = stab.prepare(stab.random_axioms(n, np.random.default_rng(2350 + n)))
        want = tuple(
            frozen_observable(g, n, -1 if s else 1) for g, s in zip(t._gens, t._signs)
        )
        assert t.generators == want

    @pytest.mark.parametrize("n, count", [(1, 3), (4, 5), (16, 17)])
    def test_random_commuting_observables_keep_their_stream(self, n, count):
        """All vectors are drawn before any sign, as before."""
        seed = 2360 + n
        got = stab.random_commuting_observables(n, count, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        basis = [1 << j for j in range(2 * n)]
        vectors = [stab._draw_and_restrict(basis, n, rng)[0] for _ in range(count)]
        assert got == [frozen_observable(v, n, stab._random_sign(rng)) for v in vectors]


@pytest.fixture
def built(monkeypatch):
    """Counts the BitVector and SignedObservable objects built.
    ``BitVector.from_mask`` and ``pauli._observable`` skip ``__init__``, so
    they are counted apart.  (A patched ``__new__`` would not do: deleting it
    again leaves the class rejecting constructor arguments.)"""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    from_mask = BitVector.from_mask.__func__
    monkeypatch.setattr(BitVector, "from_mask", classmethod(counted("BitVector", from_mask)))
    monkeypatch.setattr(pauli, "_observable", counted("SignedObservable", pauli._observable))
    for cls in (BitVector, SignedObservable):
        monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
    return counts


class TestNoRoundTrips:
    @pytest.fixture
    def state(self):
        return stab.prepare(stab.random_axioms(8, np.random.default_rng(2370)))

    def test_the_counter_sees_each_kind(self, built):
        BitVector.from_mask(1, 2)
        pauli.parse_observable("-XZ")
        assert built == {"BitVector": 1, "SignedObservable": 1}

    def test_apply_blackbox_builds_none(self, state, built):
        cfg = BlackBoxConfig.from_labels([1, 2, 3, 0, 2, 2, 1, 3])
        stab.apply_blackbox(state, cfg)
        assert built == {}

    def test_generators_build_only_the_observables(self, state, built):
        state.generators
        assert built == {"SignedObservable": 8}

    def test_random_commuting_observables_build_only_the_observables(self, built):
        stab.random_commuting_observables(6, 5, np.random.default_rng(2371))
        assert built == {"SignedObservable": 5}
