"""Phase-exact N-qubit Pauli algebra on the symplectic (x|z) representation.

A raw :class:`PauliOperator` is ``i^phase * prod_j sx^{x_j} sz^{z_j}`` with
the phase kept as an integer exponent mod 4, so products and conjugations are
exact integer arithmetic.  Measurable quantities are :class:`SignedObservable`s,
the Hermitian operators +-C(v), C(v) the canonical form with per-qubit factor
``i^{x_j z_j} sx^{x_j} sz^{z_j}`` (I, X, Y or Z).  The sign is part of the phase,
-C(v) = i^{h(v)+2} sx^x sz^z with h(v) the count of Y factors.

An operator is stored as one 2N-bit (x|z) int mask in the :mod:`gf2` layout,
the vector J = (alpha|beta) of the paper: products, commutation, the
canonical phase, parsing and formatting are shifts, ANDs and bit counts on
that mask.  Qubit 1 is the leftmost tensor factor and bit 0 of the x/z parts.
``x``, ``z``, ``vector`` and a signed observable's ``base`` are views built
on each read.  A :class:`SignedObservable` is a :class:`PauliOperator`, so
:func:`multiply` and :func:`commutes` take it directly, and it equals and
hashes like any operator of the same mask and phase.  The text format is
signed Pauli letters, ``-YYX``, in ASCII ``IXYZ`` of either case only.
"""
from __future__ import annotations

import operator
from typing import Sequence

from .blackbox import BlackBoxConfig, _parity
from .gf2 import BitVector, _swap_halves

_X_DIGITS = str.maketrans("IXYZixyz", "01100110")
_Z_DIGITS = str.maketrans("IXYZixyz", "00110011")


class PauliOperator:
    """``i^phase * prod_j sx^{x_j} sz^{z_j}`` as one (x|z) mask; immutable.

    Every constructor stores its phase through ``_set``, the one phase
    check: a non-integer phase or sign raises TypeError instead of being
    stored."""

    __slots__ = ("_mask", "_n", "_phase")

    def __init__(self, x: BitVector, z: BitVector, phase: int = 0):
        if len(x) != len(z):
            raise ValueError(f"x/z length mismatch: {len(x)} vs {len(z)}")
        self._set(x.mask | z.mask << len(x), len(x), phase)

    def _set(self, mask: int, n: int, phase: int) -> None:
        if n < 1:
            raise ValueError("a Pauli operator needs at least one qubit")
        self._mask = mask
        self._n = n
        self._phase = operator.index(phase) % 4

    @classmethod
    def _from_mask(cls, mask: int, n: int, phase: int = 0) -> "PauliOperator":
        p = cls.__new__(cls)
        p._set(mask, n, phase)
        return p

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliOperator":
        return cls._from_mask(0, n_qubits)

    @classmethod
    def from_vector(cls, v: BitVector, phase: int = 0) -> "PauliOperator":
        """A plain PauliOperator, any phase allowed, from a 2N-bit (x|z) vector."""
        if len(v) % 2:
            raise ValueError(f"cannot halve a vector of odd length {len(v)}")
        return PauliOperator._from_mask(v.mask, len(v) // 2, phase)

    @property
    def x(self) -> BitVector:
        return BitVector.from_mask(self._mask & ((1 << self._n) - 1), self._n)

    @property
    def z(self) -> BitVector:
        return BitVector.from_mask(self._mask >> self._n, self._n)

    @property
    def phase(self) -> int:
        return self._phase

    @property
    def n_qubits(self) -> int:
        return self._n

    @property
    def vector(self) -> BitVector:
        """The 2N-bit symplectic (x|z) vector; the phase is dropped."""
        return BitVector.from_mask(self._mask, 2 * self._n)

    def is_hermitian(self) -> bool:
        """True iff the operator equals its own adjoint."""
        return (self._phase - _canonical_phase(self._mask, self._n)) % 2 == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliOperator):
            return NotImplemented
        return (self._mask, self._n, self._phase) == (other._mask, other._n, other._phase)

    def __hash__(self) -> int:
        return hash((self._mask, self._n, self._phase))

    def __repr__(self) -> str:
        xs = "".join(str(b) for b in self.x)
        zs = "".join(str(b) for b in self.z)
        return f"PauliOperator(x='{xs}', z='{zs}', phase={self._phase})"


def multiply(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Exact product PQ.

    The x/z exponents XOR; commuting each z factor of P past each x factor
    of Q on the same qubit contributes a -1, i.e. +2 to the i exponent.
    """
    n = p._n
    if n != q._n:
        raise ValueError(f"size mismatch: {n} vs {q._n}")
    swaps = (p._mask >> n & q._mask).bit_count()  # z of P against the low (x) half of Q
    return PauliOperator._from_mask(p._mask ^ q._mask, n, p._phase + q._phase + 2 * swaps)


def _pair_phase_bits(masks: Sequence[int], b: int, n: int) -> list:
    """The bit c with ``C(a ^ b) = (-1)^c * C(a) C(b)`` for each mask a in
    ``masks``, all commuting with b, C(v) being :func:`from_proposition`'s
    Pauli.  In closed form: the two-factor product is
    ``i^e sx^x sz^z`` with e = h(a) + h(b) + 2|z(a) & x(b)|, h(v) the count
    of Y factors ``(v & v >> n).bit_count()``, so the bit is
    ``(h(a ^ b) - e) % 4 // 2``, with h(b) counted once for all rows."""
    hb = (b & b >> n).bit_count()
    return [
        (
            ((t := a ^ b) & t >> n).bit_count()
            - (a & a >> n).bit_count()
            - hb
            - 2 * (a >> n & b).bit_count()
        ) % 4 // 2
        for a in masks
    ]


def commutes(p: PauliOperator, q: PauliOperator) -> int:
    """1 if PQ == QP, else 0; phases never matter."""
    if p._n != q._n:
        raise ValueError(f"size mismatch: {p._n} vs {q._n}")
    return 1 - ((_swap_halves(p._mask, p._n) & q._mask).bit_count() & 1)


def _canonical_phase(mask: int, n: int) -> int:
    """The phase of the Hermitian canonical form: i^{x_j z_j} per qubit."""
    return (mask & mask >> n).bit_count() % 4


class SignedObservable(PauliOperator):
    """A Hermitian Pauli observable, ``sign`` times the canonical form C(v), as
    the one operator of phase h(v) for sign +1 and h(v) + 2 for sign -1, h(v)
    the count of Y factors; ``sign`` and the canonical ``base`` are views."""

    __slots__ = ()

    def __init__(self, base: PauliOperator, sign: int = 1):
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        canon = _canonical_phase(base._mask, base._n)
        if base.phase != canon:
            raise ValueError(
                "base is not in canonical Hermitian form; "
                "use SignedObservable.from_pauli to normalize"
            )
        self._set(base._mask, base._n, canon + 1 - sign)

    @classmethod
    def from_pauli(cls, p: PauliOperator, sign: int = 1) -> "SignedObservable":
        """``sign`` times any Hermitian PauliOperator."""
        if not p.is_hermitian():
            raise ValueError(f"operator is not Hermitian: {p!r}")
        flip = 1 if p.phase == _canonical_phase(p._mask, p._n) else -1
        return _observable(p._mask, p._n, sign * flip)

    @classmethod
    def identity(cls, n_qubits: int, sign: int = 1) -> "SignedObservable":
        return _observable(0, n_qubits, sign)

    @property
    def base(self) -> PauliOperator:
        """The canonical form C(v), built on each read."""
        mask, n = self._mask, self._n
        return PauliOperator._from_mask(mask, n, _canonical_phase(mask, n))

    @property
    def sign(self) -> int:
        return 1 - (self._phase - _canonical_phase(self._mask, self._n)) % 4

    def negated(self) -> "SignedObservable":
        return SignedObservable._from_mask(self._mask, self._n, self._phase + 2)

    def __str__(self) -> str:
        return format_observable(self)

    def __repr__(self) -> str:
        return f"SignedObservable('{format_observable(self)}')"


def from_proposition(j: BitVector) -> SignedObservable:
    """Observable tested by the proposition vector J = (alpha | beta).

    Per-qubit factor ``i^{alpha_j beta_j} sx^{alpha_j} sz^{beta_j}``, sign +1.
    """
    if len(j) % 2:
        raise ValueError(f"proposition vector must have even length, got {len(j)}")
    return _observable(j.mask, len(j) // 2)


def _observable(mask: int, n: int, sign: int = 1) -> SignedObservable:
    """``sign`` times C(mask), the canonical Hermitian Pauli of a 2n-bit (x|z)
    mask: the observable :func:`parse_observable`, :func:`from_proposition`
    and a tableau's ``generators`` build, straight from the mask.  Its phase
    is canonical by construction, so only the sign is checked."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return SignedObservable._from_mask(mask, n, _canonical_phase(mask, n) + 1 - sign)


def observable_product(a: SignedObservable, b: SignedObservable) -> SignedObservable:
    """Product of two commuting observables: :func:`multiply`'s exact phase."""
    if not commutes(a, b):
        raise ValueError("observables anticommute; their product is not Hermitian")
    p = multiply(a, b)
    return SignedObservable._from_mask(p._mask, p._n, p._phase)


def conjugate_by_blackbox(
    obs: SignedObservable, cfg: BlackBoxConfig
) -> SignedObservable:
    """Heisenberg action of the black-box unitary on an observable.

    The (x, z) pattern is fixed; only the sign picks up
    ``(-1)^{sum_j [z_j f_j(0) + x_j f_j(1)]}``, the parity that
    :func:`blackbox._parity` reads off the observable's mask.
    """
    if obs.n_qubits != cfg.n:
        raise ValueError(f"size mismatch: {obs.n_qubits} qubits vs {cfg.n} functions")
    return obs.negated() if _parity(obs._mask, cfg) else obs


def parse_observable(text: str) -> SignedObservable:
    """Parse signed Pauli notation such as "-YYX" or "+ZZI" or "XX"."""
    s = text.strip()
    sign = 1
    if s[:1] in ("+", "-"):
        sign = -1 if s[0] == "-" else 1
        s = s[1:].strip()
    if not s:
        raise ValueError(f"empty Pauli string in {text!r}")
    bad = next((c for c in s if c not in "IXYZixyz"), None)
    if bad is not None:
        raise ValueError(f"bad Pauli letter {bad!r} in {text!r}")
    # Letter j is bit j, so the reversed string reads as binary digits.
    n, letters = len(s), s[::-1]
    mask = int(letters.translate(_X_DIGITS), 2) | int(letters.translate(_Z_DIGITS), 2) << n
    return _observable(mask, n, sign)


def format_observable(obs: SignedObservable) -> str:
    mask, n = obs._mask, obs._n
    letters = "".join("IXZY"[(mask >> j & 1) | (mask >> n + j & 1) << 1] for j in range(n))
    return ("+" if obs.sign == 1 else "-") + letters
