"""Tableau preparation, black-box evolution, measurement, distributions."""
import numpy as np
import pytest

from axiombox import experiment, oracle, pauli
from axiombox import stabilizer as stab
from axiombox.blackbox import BlackBoxConfig
from axiombox.gf2 import BitVector
from axiombox.stabilizer import MeasurementKind, OutcomeDistribution

import gf2_reference as ref
from dense_reference import term_matrix


def obs(text):
    return pauli.parse_observable(text)


def vec(text):
    return pauli.parse_observable(text).vector


def prepare_strings(*texts):
    pairs = []
    for t in texts:
        o = obs(t)
        pairs.append((o.vector, o.sign))
    return stab.prepare(pairs)


BELL = (("ZZ", 1), ("XX", 1))
GHZ = (("ZZI", 1), ("IZZ", 1), ("XXX", 1))


def bell_state():
    return prepare_strings("+ZZ", "+XX")


def ghz_state():
    return prepare_strings("+ZZI", "+IZZ", "+XXX")


class TestPrepare:
    def test_single_qubit_z_plus(self):
        t = stab.prepare([(BitVector("01"), 1)])
        assert [str(g) for g in t.generators] == ["+Z"]
        t.check_invariants()
        # destabilizer must anticommute with Z: it is X or Y
        assert ref.symplectic(t.destabilizers[0].mask, vec("Z").mask, 1) == 1

    def test_bell_state_generators(self):
        t = bell_state()
        assert [str(g) for g in t.generators] == ["+ZZ", "+XX"]
        t.check_invariants()

    def test_ghz_state_dense_amplitudes(self):
        axioms = [(vec(s), 1) for s in ("ZZI", "IZZ", "XXX")]
        state = oracle.state_from_axioms(axioms)
        expected = np.zeros(8, dtype=complex)
        expected[0] = expected[7] = 1 / np.sqrt(2)
        # global phase free: compare up to phase via overlap
        assert abs(abs(np.vdot(expected, state)) - 1.0) < 1e-12

    def test_non_commuting_rejected(self):
        with pytest.raises(ValueError, match="not co-measurable"):
            stab.prepare([(vec("ZZ"), 1), (vec("XZ"), 1)])

    def test_dependent_rejected(self):
        with pytest.raises(ValueError, match="not independent"):
            stab.prepare([(vec("ZI"), 1), (vec("ZI"), 1)])

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError, match="exactly"):
            stab.prepare([(vec("ZZ"), 1)])

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError, match="sign"):
            stab.prepare([(vec("Z"), 0)])

    def test_one_elimination(self, monkeypatch):
        calls = []
        echelon = stab._echelon
        monkeypatch.setattr(stab, "_echelon", lambda m: calls.append(m) or echelon(m))
        stab.prepare(stab.random_axioms(6, np.random.default_rng(5))).check_invariants()
        assert len(calls) == 1


class TestApplyBlackbox:
    def test_identity_config(self):
        t = bell_state()
        assert stab.apply_blackbox(t, BlackBoxConfig.identity(2)) == t

    def test_z_plus_flips_to_z_minus(self):
        t = stab.prepare([(vec("Z"), 1)])
        cfg = BlackBoxConfig.from_labels([2])  # f = (1, 0)
        evolved = stab.apply_blackbox(t, cfg)
        assert [str(g) for g in evolved.generators] == ["-Z"]

    def test_bell_under_y2_boxes_unchanged(self):
        t = bell_state()
        cfg = BlackBoxConfig.from_labels([2, 2])
        evolved = stab.apply_blackbox(t, cfg)
        assert [str(g) for g in evolved.generators] == ["+ZZ", "+XX"]

    def test_preserves_invariants(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            t = stab.prepare(stab.random_axioms(n, rng))
            labels = [int(k) for k in rng.integers(0, 4, size=n)]
            evolved = stab.apply_blackbox(t, BlackBoxConfig.from_labels(labels))
            evolved.check_invariants()

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            stab.apply_blackbox(bell_state(), BlackBoxConfig.identity(3))


class TestMeasure:
    def test_deterministic_own_stabilizer(self):
        t = stab.prepare([(vec("Z"), 1)])
        result = stab.measure(t, obs("+Z"))
        assert result.kind is MeasurementKind.DETERMINISTIC
        assert result.outcome == 1
        assert result.post_state == t

    def test_random_complementary(self):
        t = stab.prepare([(vec("Z"), 1)])
        outcomes = set()
        for seed in range(64):
            rng = np.random.default_rng(seed)
            result = stab.measure(t, obs("+X"), rng)
            assert result.kind is MeasurementKind.RANDOM
            outcomes.add(result.outcome)
        assert outcomes == {1, -1}

    def test_random_without_rng_raises(self):
        t = stab.prepare([(vec("Z"), 1)])
        with pytest.raises(ValueError, match="rng"):
            stab.measure(t, obs("+X"))

    @pytest.mark.parametrize("outcome", [0, 2, -2])
    def test_forced_outcome_outside_plus_minus_one_rejected(self, outcome):
        with pytest.raises(ValueError, match=rf"outcome must be \+1 or -1, got {outcome}"):
            stab.measure_forced(bell_state(), obs("+XI"), outcome)

    def test_ghz_yyx_is_minus_one(self):
        result = stab.measure(ghz_state(), obs("+YYX"))
        assert result.kind is MeasurementKind.DETERMINISTIC
        assert result.outcome == -1

    def test_ghz_dense_expectation_matches(self):
        state = oracle.state_from_axioms([(vec(s), 1) for s, _ in GHZ])
        m = term_matrix(obs("+YYX"))
        assert abs(np.vdot(state, m @ state) - (-1.0)) < 1e-12

    def test_identity_observable(self):
        t = bell_state()
        result = stab.measure(t, pauli.SignedObservable.identity(2, sign=-1))
        assert result.kind is MeasurementKind.DETERMINISTIC
        assert result.outcome == -1

    def test_negated_observable_negates_outcome(self):
        t = ghz_state()
        assert stab.measure(t, obs("-YYX")).outcome == 1

    def test_repeat_measurement_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            t = stab.prepare(stab.random_axioms(n, rng))
            o = stab.random_commuting_observables(n, 1, rng)[0]
            first = stab.measure(t, o, rng)
            again = stab.measure(first.post_state, o, rng)
            assert again.kind is MeasurementKind.DETERMINISTIC
            assert again.outcome == first.outcome

    def test_collapse_preserves_invariants(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            t = stab.prepare(stab.random_axioms(n, rng))
            for _ in range(3):
                o = stab.random_commuting_observables(n, 1, rng)[0]
                t = stab.measure(t, o, rng).post_state
                t.check_invariants()

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            stab.measure(bell_state(), obs("+Z"))

    @pytest.mark.parametrize(
        "call",
        [
            lambda t, o: stab.measure(t, o, np.random.default_rng(0)),
            lambda t, o: stab.measure_forced(t, o, 1),
            lambda t, o: stab.joint_distribution(t, [obs("+ZZ"), o]),
            lambda t, o: experiment.sample(t, [obs("+ZZ"), o], 10, 1),
        ],
        ids=["measure", "measure_forced", "joint_distribution", "sample"],
    )
    @pytest.mark.parametrize(
        "bad", [pauli.PauliOperator.from_vector(vec("XX")), "+XX"], ids=["PauliOperator", "str"]
    )
    def test_non_signed_observable_raises_type_error(self, call, bad):
        name = type(bad).__name__
        with pytest.raises(TypeError, match=f"^observable must be a SignedObservable, got {name}$"):
            call(bell_state(), bad)

    def test_collapsed_state_matches_dense_projection(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            axioms = stab.random_axioms(n, rng)
            t = stab.prepare(axioms)
            o = stab.random_commuting_observables(n, 1, rng)[0]
            outcome = 1 if rng.integers(0, 2) == 0 else -1
            result = stab.measure_forced(t, o, outcome)
            if result.kind is not MeasurementKind.RANDOM:
                continue
            psi = oracle.state_from_axioms(axioms)
            projected = (psi + result.outcome * term_matrix(o) @ psi) / 2.0
            projected = projected / np.linalg.norm(projected)
            collapsed = oracle.state_from_axioms(
                [(g.vector, g.sign) for g in result.post_state.generators]
            )
            overlap = abs(np.vdot(projected, collapsed))
            assert abs(overlap - 1.0) < 1e-9


class TestDeterminismEquivalence:
    """Deterministic <=> commutes with all generators <=> in the axiom span."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_over_random_states(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            axioms = stab.random_axioms(n, rng)
            t = stab.prepare(axioms)
            rows = [g.vector.mask for g in t.generators]
            for mask in range(4 ** n):
                v = BitVector.from_mask(mask, 2 * n)
                o = pauli.from_proposition(v)
                commuting = all(
                    ref.symplectic(mask, g.vector.mask, n) == 0 for g in t.generators
                )
                spanned = ref.span_coefficients(mask, rows) is not None
                result = stab.measure_forced(t, o, 1)
                deterministic = result.kind is MeasurementKind.DETERMINISTIC
                assert commuting == spanned == deterministic


class TestJointDistribution:
    def test_own_stabilizers_single_outcome(self):
        dist = stab.joint_distribution(bell_state(), [obs("+ZZ"), obs("+XX")])
        assert dist.outcomes == {(1, 1): 1.0}

    def test_local_z_basis_two_outcomes(self):
        dist = stab.joint_distribution(bell_state(), [obs("+ZI"), obs("+IZ")])
        assert dist.probability((1, 1)) == 0.5
        assert dist.probability((-1, -1)) == 0.5
        assert dist.probability((1, -1)) == 0.0
        assert dist.probability((-1, 1)) == 0.0

    def test_mixed_basis_uniform(self):
        dist = stab.joint_distribution(bell_state(), [obs("+ZI"), obs("+IX")])
        assert len(dist.support()) == 4
        for signs in dist.support():
            assert dist.probability(signs) == 0.25

    def test_non_commuting_rejected(self):
        with pytest.raises(ValueError, match="not co-measurable"):
            stab.joint_distribution(bell_state(), [obs("+ZI"), obs("+XI")])

    def test_probabilities_are_dyadic(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            t = stab.prepare(stab.random_axioms(n, rng))
            m = int(rng.integers(1, n + 2))
            olist = stab.random_commuting_observables(n, m, rng)
            dist = stab.joint_distribution(t, olist)
            total = sum(dist.outcomes.values())
            assert total == 1.0
            for prob in dist.outcomes.values():
                if prob > 0:
                    ratio = 1.0 / prob
                    assert ratio == round(ratio)
                    assert round(ratio) & (round(ratio) - 1) == 0  # power of two

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            n = int(rng.integers(1, 5))
            axioms = stab.random_axioms(n, rng)
            t = stab.prepare(axioms)
            m = int(rng.integers(1, n + 2))
            olist = stab.random_commuting_observables(n, m, rng)
            exact = stab.joint_distribution(t, olist)
            dense = oracle.distribution(oracle.state_from_axioms(axioms), olist)
            assert exact.max_deviation(dense) < 1e-9

    def test_probability_exponent_is_rank_growth(self):
        # every nonzero probability is 1/2^m with m the number of measured
        # observables jointly independent of the generators
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            t = stab.prepare(stab.random_axioms(n, rng))
            count = int(rng.integers(1, n + 3))
            olist = stab.random_commuting_observables(n, count, rng)
            m = ref.rank([o.vector.mask for o in (*t.generators, *olist)]) - n
            dist = stab.joint_distribution(t, olist)
            support = dist.support()
            assert len(support) == 2 ** m
            assert all(dist.probability(s) == 0.5 ** m for s in support)


class TestOutcomeDistribution:
    def test_validates_mass(self):
        with pytest.raises(ValueError, match="sum"):
            OutcomeDistribution({(1,): 0.7}, 1)

    def test_num_observables_and_foreign_type(self):
        dist = OutcomeDistribution({(1, 1): 1.0}, 2)
        assert dist.num_observables == 2
        assert dist != {(1, 1): 1.0}

    def test_validates_signs(self):
        with pytest.raises(ValueError):
            OutcomeDistribution({(0,): 1.0}, 1)

    def test_validates_sign_vector_length(self):
        with pytest.raises(ValueError, match=r"sign vector \(1, 1\) has wrong length"):
            OutcomeDistribution({(1, 1): 1.0}, 1)

    @pytest.mark.parametrize(
        "other",
        [OutcomeDistribution({(1, 1): 1.0}, 2), OutcomeDistribution._affine(0, [0b1], 2)],
    )
    def test_max_deviation_over_different_counts_raises(self, other):
        with pytest.raises(ValueError, match="different observable counts"):
            OutcomeDistribution({(1,): 1.0}, 1).max_deviation(other)

    def test_repr_of_dict_built_and_affine(self):
        dense = OutcomeDistribution({(1, -1): 0.25, (1, 1): 0.75}, 2)
        assert repr(dense) == "OutcomeDistribution({++: 0.75, +-: 0.25})"
        affine = OutcomeDistribution._affine(0b01, [0b10], 2)
        assert repr(affine) == "OutcomeDistribution({-+: 0.5, --: 0.5})"
        joint = stab.joint_distribution(bell_state(), [obs("ZI"), obs("IZ")])
        assert repr(joint) == "OutcomeDistribution({++: 0.5, --: 0.5})"

    @pytest.mark.parametrize(
        "outcomes",
        [{(1,): float("nan")}, {(1,): 1.0, (-1,): float("nan")}, {(1,): -1e-3, (-1,): 1.001}],
    )
    def test_rejects_nan_and_negative_entries(self, outcomes):
        with pytest.raises(ValueError, match="negative or NaN probability"):
            OutcomeDistribution(outcomes, 1)


class TestTextFormat:
    def test_roundtrip(self):
        t = ghz_state()
        assert t != t.to_text()
        again = stab.StabilizerTableau.from_text(t.to_text())
        assert [str(g) for g in again.generators] == ["+ZZI", "+IZZ", "+XXX"]

    def test_comments_and_blanks_ignored(self):
        t = stab.StabilizerTableau.from_text("# bell\n+ZZ\n\n+XX  # second\n")
        assert [str(g) for g in t.generators] == ["+ZZ", "+XX"]


class TestRandomAxioms:
    def test_always_valid(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            axioms = stab.random_axioms(n, rng)
            stab.prepare(axioms).check_invariants()
