"""The dense simulator itself, pinned to hand-expanded matrices and states."""
import numpy as np
import pytest

from axiombox import oracle, pauli
from axiombox.gf2 import BitVector
from axiombox.logic import AxiomSet
from axiombox.pauli import PauliOperator

from dense_reference import permutation_matrix, term_matrix


def obs(text):
    return pauli.parse_observable(text)


def signed_matrix(p):
    """The dense matrix of the oracle's signed permutation of ``p``."""
    return permutation_matrix(*oracle._signed_permutation(p))


class TestPauliMatrix:
    """The signed permutation of a Pauli, written out densely, against hand-
    expanded matrices and the textbook Kronecker product."""

    def test_sigma_z(self):
        np.testing.assert_allclose(signed_matrix(obs("+Z")), np.diag([1.0, -1.0]))

    def test_sigma_y(self):
        np.testing.assert_allclose(
            signed_matrix(obs("+Y")), np.array([[0, -1j], [1j, 0]])
        )

    def test_minus_xxx_antidiagonal(self):
        m = signed_matrix(obs("-XXX"))
        np.testing.assert_allclose(m, -np.fliplr(np.eye(8)))
        assert np.array_equal(m, term_matrix(obs("-XXX")))

    def test_hermitian_and_involutory(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            mask = int(rng.integers(0, 4 ** n))
            sign = 1 if rng.integers(0, 2) == 0 else -1
            o = pauli.SignedObservable(
                pauli.from_proposition(BitVector.from_mask(mask, 2 * n)).base, sign
            )
            m = signed_matrix(o)
            assert np.array_equal(m, term_matrix(o))
            np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
            np.testing.assert_allclose(m @ m, np.eye(2 ** n), atol=1e-12)

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="dense cap"):
            oracle._signed_permutation(pauli.SignedObservable.identity(13))

    def test_respects_multiply_with_phase(self):
        rng = np.random.default_rng(22)
        for _ in range(80):
            n = int(rng.integers(1, 4))
            p = PauliOperator.from_vector(
                BitVector.from_mask(int(rng.integers(0, 4 ** n)), 2 * n),
                phase=int(rng.integers(0, 4)),
            )
            q = PauliOperator.from_vector(
                BitVector.from_mask(int(rng.integers(0, 4 ** n)), 2 * n),
                phase=int(rng.integers(0, 4)),
            )
            product = signed_matrix(pauli.multiply(p, q))
            np.testing.assert_allclose(
                signed_matrix(p) @ signed_matrix(q), product, atol=1e-12
            )
            assert np.array_equal(product, term_matrix(p) @ term_matrix(q))


class TestStateFromAxioms:
    def test_z_plus(self):
        state = oracle.state_from_axioms([(BitVector("01"), 1)])
        np.testing.assert_allclose(state, [1.0, 0.0], atol=1e-12)

    def test_bell_phi_plus(self):
        state = oracle.state_from_axioms(
            [(obs("ZZ").vector, 1), (obs("XX").vector, 1)]
        )
        expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert abs(abs(np.vdot(expected, state)) - 1.0) < 1e-12

    def test_three_qubit_shared_eigenstate(self):
        state = oracle.state_from_axioms(
            [(obs(s).vector, 1) for s in ("ZZI", "IZZ", "XXX")]
        )
        expected = np.zeros(8)
        expected[0] = expected[7] = 1 / np.sqrt(2)
        assert abs(abs(np.vdot(expected, state)) - 1.0) < 1e-12

    def test_empty_axiom_list_rejected(self):
        with pytest.raises(ValueError, match="^empty axiom list$"):
            oracle.state_from_axioms([])

    def test_non_commuting_axioms_rejected(self):
        with pytest.raises(ValueError, match="^axioms not co-measurable$"):
            oracle.state_from_axioms([(obs("ZZ").vector, 1), (obs("XZ").vector, 1)])

    def test_sign_other_than_plus_or_minus_one_rejected(self):
        with pytest.raises(ValueError, match="^axiom signs must be"):
            oracle.state_from_axioms([(obs("ZZ").vector, 2), (obs("XX").vector, 1)])

    @pytest.mark.parametrize(
        "axioms",
        [["ZI", "IIZ"], ["ZZ", "IIII"], ["ZZ", "ZIII"]],
        ids=["shorter_first", "identity_of_another_size", "commuting_masks"],
    )
    def test_axioms_of_different_lengths_rejected(self, axioms):
        with pytest.raises(ValueError, match="^axiom vectors have inconsistent lengths$"):
            oracle.state_from_axioms([(obs(s).vector, 1) for s in axioms])

    def test_axiom_of_odd_length_rejected(self):
        with pytest.raises(ValueError, match="^proposition vector must have even length, got 3$"):
            oracle.state_from_axioms([(BitVector("101"), 1)])

    @pytest.mark.parametrize(
        "axioms, dimension",
        [
            ([("ZZ", 1), ("ZZ", 1)], 2),  # dependent
            ([("ZI", 1)], 2),  # too few
            ([("ZZ", 1), ("ZZ", -1)], 0),  # inconsistent
        ],
        ids=["dependent", "too_few", "inconsistent"],
    )
    def test_axioms_that_do_not_fix_one_state_rejected(self, axioms, dimension):
        pairs = [(obs(s).vector, sign) for s, sign in axioms]
        message = f"^axioms fix a space of dimension {dimension}, not 1$"
        with pytest.raises(ValueError, match=message):
            oracle.state_from_axioms(pairs)

    def test_accepts_axiom_set(self):
        axioms = AxiomSet([obs("ZZ").vector, obs("XX").vector], [0, 1])
        state = oracle.state_from_axioms(axioms)
        # psi+ = (|01> + |10>)/sqrt2 is the (+ZZ... -XX)? no: (+1,-1) eigenstate
        np.testing.assert_allclose(np.abs(state) ** 2, [0.5, 0, 0, 0.5], atol=1e-12)

    def test_eigenvector_property(self):
        rng = np.random.default_rng(23)
        from axiombox import stabilizer as stab

        for _ in range(30):
            n = int(rng.integers(1, 5))
            axioms = stab.random_axioms(n, rng)
            state = oracle.state_from_axioms(axioms)
            assert abs(np.linalg.norm(state) - 1.0) < 1e-12
            for vector, sign in axioms:
                omega = term_matrix(pauli.from_proposition(vector))
                np.testing.assert_allclose(
                    omega @ state, sign * state, atol=1e-12
                )


class TestDistribution:
    def test_z_plus_in_z(self):
        state = oracle.state_from_axioms([(BitVector("01"), 1)])
        dist = oracle.distribution(state, [obs("+Z")])
        assert abs(dist.probability((1,)) - 1.0) < 1e-12

    def test_bell_local_z(self):
        state = oracle.state_from_axioms(
            [(obs("ZZ").vector, 1), (obs("XX").vector, 1)]
        )
        dist = oracle.distribution(state, [obs("+ZI"), obs("+IZ")])
        assert abs(dist.probability((1, 1)) - 0.5) < 1e-12
        assert abs(dist.probability((-1, -1)) - 0.5) < 1e-12
        assert dist.probability((1, -1)) < 1e-12

    def test_ghz_xxx_definite(self):
        state = oracle.state_from_axioms(
            [(obs(s).vector, 1) for s in ("ZZI", "IZZ", "XXX")]
        )
        dist = oracle.distribution(state, [obs("+XXX")])
        assert abs(dist.probability((1,)) - 1.0) < 1e-12

    def test_non_commuting_rejected(self):
        state = oracle.state_from_axioms([(BitVector("01"), 1)])
        with pytest.raises(ValueError, match="not co-measurable"):
            oracle.distribution(state, [obs("+Z"), obs("+X")])

    @pytest.mark.parametrize(
        "state", [np.ones(6), np.ones(1), np.ones(0), np.ones((2, 2)), 1.0],
        ids=["six", "one", "empty", "matrix", "scalar"],
    )
    def test_state_of_no_qubits_or_not_a_power_of_two_rejected(self, state):
        with pytest.raises(ValueError, match=r"^a state needs 2\^N >= 2 amplitudes, got shape"):
            oracle.distribution(state, [obs("ZZ")])
