"""The packed-mask Pauli algebra against a frozen two-vector reference.

The reference below keeps a Pauli operator as two ``BitVector``s (x, z) and
splits and rejoins them as the package once did.  On random masks and phases
at every N from 1 to 70 (so masks cross 64 and 128 bits), the library's
operators must give the same parts, products, commutation, Hermitian normal
forms and text.
"""
import random

import pytest

from axiombox import pauli
from axiombox.gf2 import BitVector, symplectic_product
from axiombox.pauli import PauliOperator, SignedObservable

_LETTER_TO_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_XZ_TO_LETTER = {v: k for k, v in _LETTER_TO_XZ.items()}


def concat(x, z):
    return BitVector.from_mask(x.mask | z.mask << len(x), len(x) + len(z))


class RefPauli:
    """``i^phase * prod_j sx^{x_j} sz^{z_j}`` as two BitVectors."""

    def __init__(self, x, z, phase=0):
        if len(x) != len(z):
            raise ValueError(f"x/z length mismatch: {len(x)} vs {len(z)}")
        if len(x) == 0:
            raise ValueError("a Pauli operator needs at least one qubit")
        self.x, self.z, self.phase = x, z, phase % 4

    @property
    def vector(self):
        return concat(self.x, self.z)

    def is_hermitian(self):
        return (self.phase - (self.x & self.z).weight()) % 2 == 0


def ref_multiply(p, q):
    swaps = (p.z & q.x).weight()
    return RefPauli(p.x ^ q.x, p.z ^ q.z, p.phase + q.phase + 2 * swaps)


def ref_commutes(p, q):
    return 1 - symplectic_product(p.vector, q.vector)


def ref_canonical_phase(x, z):
    return (x & z).weight() % 4


def ref_from_pauli(p, sign=1):
    """(base, sign) of the Hermitian normal form."""
    if not p.is_hermitian():
        raise ValueError("operator is not Hermitian")
    canon = ref_canonical_phase(p.x, p.z)
    flip = 1 if (p.phase - canon) % 4 == 0 else -1
    return RefPauli(p.x, p.z, canon), sign * flip


def ref_parse_observable(text):
    """(base, sign); ASCII input only, where upper-casing is exact."""
    s = text.strip()
    sign = 1
    if s[:1] in ("+", "-"):
        sign = -1 if s[0] == "-" else 1
        s = s[1:].strip()
    if not s:
        raise ValueError(f"empty Pauli string in {text!r}")
    try:
        pairs = [_LETTER_TO_XZ[c] for c in s.upper()]
    except KeyError as exc:
        raise ValueError(f"bad Pauli letter {exc.args[0]!r} in {text!r}") from None
    x = BitVector([p[0] for p in pairs])
    z = BitVector([p[1] for p in pairs])
    return RefPauli(x, z, ref_canonical_phase(x, z)), sign


def ref_format_observable(base, sign):
    letters = "".join(_XZ_TO_LETTER[(xb, zb)] for xb, zb in zip(base.x, base.z))
    return ("+" if sign == 1 else "-") + letters


def pair(rng, n):
    """The same random operator as a library PauliOperator and a RefPauli."""
    x = BitVector.from_mask(rng.getrandbits(n), n)
    z = BitVector.from_mask(rng.getrandbits(n), n)
    phase = rng.randrange(-5, 9)
    return PauliOperator(x, z, phase), RefPauli(x, z, phase)


def same(p, ref):
    return (p.x, p.z, p.phase, p.vector, p.n_qubits) == (
        ref.x, ref.z, ref.phase, ref.vector, len(ref.x)
    )


NS = list(range(1, 71))


@pytest.mark.parametrize("n", NS)
def test_parts_and_vector(n):
    rng = random.Random(n)
    for _ in range(20):
        p, ref = pair(rng, n)
        assert same(p, ref)
        assert p.is_hermitian() == ref.is_hermitian()
        assert PauliOperator.from_vector(ref.vector, ref.phase) == p
        assert p == PauliOperator(ref.x, ref.z, ref.phase)


@pytest.mark.parametrize("n", NS)
def test_multiply_and_commutes(n):
    rng = random.Random(1000 + n)
    for _ in range(20):
        (p, p_ref), (q, q_ref) = pair(rng, n), pair(rng, n)
        assert same(pauli.multiply(p, q), ref_multiply(p_ref, q_ref))
        assert pauli.commutes(p, q) == ref_commutes(p_ref, q_ref)
        assert pauli.commutes(p, p) == ref_commutes(p_ref, p_ref) == 1


@pytest.mark.parametrize("n", NS)
def test_from_pauli(n):
    rng = random.Random(2000 + n)
    for _ in range(20):
        p, ref = pair(rng, n)
        sign = rng.choice((1, -1))
        if not ref.is_hermitian():
            with pytest.raises(ValueError, match="Hermitian"):
                SignedObservable.from_pauli(p, sign)
            continue
        obs = SignedObservable.from_pauli(p, sign)
        ref_base, ref_sign = ref_from_pauli(ref, sign)
        assert same(obs.base, ref_base)
        assert obs.sign == ref_sign


@pytest.mark.parametrize("n", NS)
def test_parse_and_format(n):
    rng = random.Random(3000 + n)
    for _ in range(20):
        sign = rng.choice(("", "+", "-", " - "))
        letters = "".join(rng.choice("IXYZixyz") for _ in range(n))
        text = f"{sign}{letters} "
        obs = pauli.parse_observable(text)
        ref_base, ref_sign = ref_parse_observable(text)
        assert same(obs.base, ref_base)
        assert obs.sign == ref_sign
        assert pauli.format_observable(obs) == ref_format_observable(ref_base, ref_sign)
        proposition = pauli.from_proposition(ref_base.vector)
        assert same(proposition.base, ref_base)


@pytest.mark.parametrize("text", ["XQZ", "ZI,", "+X X", "-ZZ1"])
def test_parse_errors_match_on_ascii(text):
    with pytest.raises(ValueError) as got:
        pauli.parse_observable(text)
    with pytest.raises(ValueError) as want:
        ref_parse_observable(text)
    assert str(got.value) == str(want.value)


def test_an_operator_is_one_mask():
    p = pauli.parse_observable("-XYZI").base
    assert [type(getattr(p, slot)) for slot in PauliOperator.__slots__] == [int] * 3
    assert p.vector.mask == 0b0011 | 0b0110 << 4  # x: X and Y; z: Y and Z
