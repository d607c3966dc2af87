"""Phase-exact Pauli algebra, checked against dense matrices throughout."""
import itertools

import numpy as np
import pytest

from axiombox import pauli
from axiombox.blackbox import BlackBoxConfig, BooleanFunction
from axiombox.gf2 import BitVector
from axiombox.pauli import PauliOperator, SignedObservable

from dense_reference import term_matrix

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def obs(text):
    return pauli.parse_observable(text)


def all_canonical_paulis(n):
    """Every canonical Hermitian base on n qubits (4^n of them)."""
    out = []
    for mask in range(4 ** n):
        v = BitVector.from_mask(mask, 2 * n)
        out.append(pauli.from_proposition(v).base)
    return out


def blackbox_unitary(cfg):
    """Dense matrix of the box: per qubit, sx^f(0) then sz^f(1)."""
    u = np.ones((1, 1), dtype=complex)
    for f in cfg.functions:
        factor = np.linalg.matrix_power(SX, f.f0) @ np.linalg.matrix_power(SZ, f.f1)
        u = np.kron(u, factor)
    return u


class TestFromProposition:
    def test_z_from_01(self):
        o = pauli.from_proposition(BitVector("01"))
        assert o.sign == 1
        np.testing.assert_allclose(term_matrix(o), SZ)

    def test_y_from_11(self):
        o = pauli.from_proposition(BitVector("11"))
        np.testing.assert_allclose(term_matrix(o), SY)

    def test_identity_from_zero(self):
        o = pauli.from_proposition(BitVector("0000"))
        assert o.sign == 1
        assert o.base == PauliOperator.identity(2)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            pauli.from_proposition(BitVector("010"))


class TestPhaseIsAnInteger:
    @pytest.mark.parametrize("phase", [1.5, 0.5, 2.0, np.float64(1.0), "1"])
    def test_non_integer_phase_rejected(self, phase):
        with pytest.raises(TypeError):
            PauliOperator(BitVector("1"), BitVector("0"), phase)
        with pytest.raises(TypeError):
            PauliOperator.from_vector(BitVector("10"), phase)

    @pytest.mark.parametrize("phase", [np.int64(7), True, -1])
    def test_integer_phase_kept_mod_4(self, phase):
        p = PauliOperator(BitVector("1"), BitVector("1"), phase)
        q = PauliOperator.from_vector(BitVector("11"), phase)
        assert p == q
        assert p.phase == int(phase) % 4
        assert type(p.phase) is int
        term_matrix(pauli.multiply(p, q))


class TestMultiply:
    def test_x_times_z(self):
        p = pauli.multiply(obs("X").base, obs("Z").base)
        assert (p.x.to_tuple(), p.z.to_tuple(), p.phase) == ((1,), (1,), 0)

    def test_z_times_x(self):
        p = pauli.multiply(obs("Z").base, obs("X").base)
        assert (p.x.to_tuple(), p.z.to_tuple(), p.phase) == ((1,), (1,), 2)

    def test_triple_product_is_minus_xxx(self):
        p = pauli.multiply(
            pauli.multiply(obs("YYX").base, obs("YXY").base), obs("XYY").base
        )
        assert p.x.to_tuple() == (1, 1, 1)
        assert p.z.to_tuple() == (0, 0, 0)
        assert p.phase == 2
        np.testing.assert_allclose(
            term_matrix(p), -term_matrix(obs("XXX")), atol=1e-12
        )

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            pauli.multiply(obs("X").base, obs("XX").base)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_phase_exact_against_dense_all_pairs(self, n):
        paulis = all_canonical_paulis(n)
        dense = {p: term_matrix(p) for p in paulis}
        for p in paulis:
            for q in paulis:
                product = pauli.multiply(p, q)
                assert np.allclose(
                    dense[p] @ dense[q],
                    term_matrix(product),
                    atol=1e-12,
                ), (p, q)

    def test_associative(self):
        rng = np.random.default_rng(12)
        paulis = all_canonical_paulis(2)
        for _ in range(300):
            a, b, c = (paulis[i] for i in rng.integers(0, len(paulis), size=3))
            left = pauli.multiply(pauli.multiply(a, b), c)
            right = pauli.multiply(a, pauli.multiply(b, c))
            assert left == right

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_squares_to_identity_with_phase_zero(self, n):
        for p in all_canonical_paulis(n):
            square = pauli.multiply(p, p)
            assert square == PauliOperator.identity(n)
            assert square.phase == 0


class TestCommutes:
    def test_self_commutation(self):
        for text in ("X", "ZZ", "YXY"):
            assert pauli.commutes(obs(text).base, obs(text).base) == 1

    def test_z_x_anticommute(self):
        assert pauli.commutes(obs("Z").base, obs("X").base) == 0

    def test_two_anticommuting_sites_commute(self):
        assert pauli.commutes(obs("XXX").base, obs("YYX").base) == 1

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_dense_commutator(self, n):
        paulis = all_canonical_paulis(n)
        for p in paulis:
            mp = term_matrix(p)
            for q in paulis:
                mq = term_matrix(q)
                dense_commutes = np.allclose(mp @ mq, mq @ mp, atol=1e-12)
                assert pauli.commutes(p, q) == int(dense_commutes)


class TestSignedObservable:
    def test_rejects_non_canonical_base(self):
        with pytest.raises(ValueError, match="canonical"):
            SignedObservable(PauliOperator(BitVector("1"), BitVector("1"), 3))

    def test_from_pauli_normalizes_phase(self):
        minus_y = PauliOperator(BitVector("1"), BitVector("1"), 3)  # i^3 sx sz = -Y
        o = SignedObservable.from_pauli(minus_y)
        assert o.sign == -1
        np.testing.assert_allclose(term_matrix(o), -SY)

    def test_from_pauli_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            SignedObservable.from_pauli(PauliOperator(BitVector("1"), BitVector("1"), 0))

    def test_observable_product_tracks_sign(self):
        zz_xx = pauli.observable_product(obs("+ZZ"), obs("+XX"))
        assert str(zz_xx) == "-YY"
        with pytest.raises(ValueError, match="anticommute"):
            pauli.observable_product(obs("Z"), obs("X"))


class TestChecks:
    """Each constructor and operation check, with its message."""

    def test_signed_observable_rejects_sign_zero(self):
        with pytest.raises(ValueError, match=r"sign must be \+1 or -1, got 0"):
            SignedObservable(PauliOperator.identity(1), 0)

    @pytest.mark.parametrize(
        "build",
        [lambda: PauliOperator.identity(0), lambda: pauli.from_proposition(BitVector(""))],
    )
    def test_zero_qubits_rejected(self, build):
        with pytest.raises(ValueError, match="a Pauli operator needs at least one qubit"):
            build()

    def test_x_z_length_mismatch(self):
        with pytest.raises(ValueError, match="x/z length mismatch: 1 vs 2"):
            PauliOperator(BitVector("1"), BitVector("01"))

    def test_from_vector_rejects_odd_length(self):
        with pytest.raises(ValueError, match="cannot halve a vector of odd length 3"):
            PauliOperator.from_vector(BitVector("010"))

    def test_commutes_size_mismatch(self):
        with pytest.raises(ValueError, match="size mismatch: 1 vs 2"):
            pauli.commutes(obs("X").base, obs("XX").base)

    def test_signed_observable_hash_and_repr(self):
        a, b = obs("-XZ"), obs("-xz")
        assert hash(a) == hash(b)
        assert len({a, b, obs("+XZ"), obs("-ZX")}) == 3
        assert repr(a) == "SignedObservable('-XZ')"

    def test_unequal_to_a_foreign_type(self):
        assert obs("X").base != "X" and obs("-X") != "-X"


class TestConjugateByBlackbox:
    def test_z_flips_under_f0_one(self):
        cfg = BlackBoxConfig((BooleanFunction(1, 0),))
        assert pauli.conjugate_by_blackbox(obs("+Z"), cfg) == obs("-Z")

    def test_identity_config_is_noop(self):
        cfg = BlackBoxConfig.identity(3)
        for text in ("+XXX", "-YYX", "+ZIZ"):
            assert pauli.conjugate_by_blackbox(obs(text), cfg) == obs(text)

    def test_yyx_under_y1_boxes(self):
        cfg = BlackBoxConfig.from_labels([1, 1, 1])
        assert pauli.conjugate_by_blackbox(obs("+YYX"), cfg) == obs("-YYX")

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            pauli.conjugate_by_blackbox(obs("+ZZ"), BlackBoxConfig.identity(3))

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_dense_conjugation(self, n):
        for cfg in BlackBoxConfig.all_configs(n):
            u = blackbox_unitary(cfg)
            for mask in range(4 ** n):
                o = pauli.from_proposition(BitVector.from_mask(mask, 2 * n))
                conjugated = pauli.conjugate_by_blackbox(o, cfg)
                np.testing.assert_allclose(
                    u @ term_matrix(o) @ u.conj().T,
                    term_matrix(conjugated),
                    atol=1e-12,
                )

    def test_base_never_changes(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            mask = int(rng.integers(0, 4 ** n))
            o = pauli.from_proposition(BitVector.from_mask(mask, 2 * n))
            labels = [int(k) for k in rng.integers(0, 4, size=n)]
            conjugated = pauli.conjugate_by_blackbox(
                o, BlackBoxConfig.from_labels(labels)
            )
            assert conjugated.base == o.base

    def test_composition_equals_xor_config(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            a_labels = [int(k) for k in rng.integers(0, 4, size=n)]
            b_labels = [int(k) for k in rng.integers(0, 4, size=n)]
            a = BlackBoxConfig.from_labels(a_labels)
            b = BlackBoxConfig.from_labels(b_labels)
            # labels are 2*f(0) + f(1), so XOR of labels XORs both values
            ab = BlackBoxConfig.from_labels([i ^ k for i, k in zip(a_labels, b_labels)])
            o = pauli.from_proposition(
                BitVector.from_mask(int(rng.integers(0, 4 ** n)), 2 * n)
            )
            twice = pauli.conjugate_by_blackbox(pauli.conjugate_by_blackbox(o, a), b)
            assert twice == pauli.conjugate_by_blackbox(o, ab)


class TestTextFormat:
    @pytest.mark.parametrize("text", ["+ZZI", "-YYX", "+X", "-IIII"])
    def test_roundtrip(self, text):
        assert pauli.format_observable(pauli.parse_observable(text)) == text

    def test_sign_optional(self):
        assert pauli.parse_observable("XX") == pauli.parse_observable("+XX")

    def test_bad_letter(self):
        for text in ("XQZ", "ZI,", ",IZ"):
            with pytest.raises(ValueError, match="Pauli letter"):
                pauli.parse_observable(text)

    def test_lowercase_letters(self):
        assert pauli.parse_observable("-xyzi") == pauli.parse_observable("-XYZI")

    @pytest.mark.parametrize(
        "text,letter",
        [("ıı", "ı"), ("Xı", "ı"), ("xq", "q"), ("Xß", "ß"), ("ＸＺ", "Ｘ"), ("ZZ\u0130", "\u0130")],
    )
    def test_only_ascii_letters_named_as_typed(self, text, letter):
        # "ı".upper() == "I" and "ß".upper() == "SS": no case mapping is applied.
        with pytest.raises(ValueError) as excinfo:
            pauli.parse_observable(text)
        assert str(excinfo.value) == f"bad Pauli letter {letter!r} in {text!r}"

    def test_empty_rejected(self):
        for text in ("-", "", "   ", "+ "):
            with pytest.raises(ValueError, match="empty Pauli string"):
                pauli.parse_observable(text)
