"""Phase-exact N-qubit Pauli algebra on the symplectic (x|z) representation.

A raw :class:`PauliOperator` is ``i^phase * prod_j sx^{x_j} sz^{z_j}`` with
the phase kept as an integer exponent mod 4, so products and conjugations are
exact integer arithmetic.  Measurable quantities are
:class:`SignedObservable`s: a Hermitian canonical form (per-qubit factor
``i^{x_j z_j} sx^{x_j} sz^{z_j}``, which is I, X, Y or Z) times an explicit
sign of +1 or -1.

Qubit 1 is the leftmost tensor factor and bit 0 of the x/z vectors.
"""
from __future__ import annotations

from .blackbox import BlackBoxConfig, proposition_truth
from .gf2 import BitVector, symplectic_product

_LETTER_TO_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_XZ_TO_LETTER = {v: k for k, v in _LETTER_TO_XZ.items()}


class PauliOperator:
    """``i^phase * prod_j sx^{x_j} sz^{z_j}``; immutable."""

    __slots__ = ("_x", "_z", "_phase")

    def __init__(self, x: BitVector, z: BitVector, phase: int = 0):
        if len(x) != len(z):
            raise ValueError(f"x/z length mismatch: {len(x)} vs {len(z)}")
        if len(x) == 0:
            raise ValueError("a Pauli operator needs at least one qubit")
        self._x = x
        self._z = z
        self._phase = phase % 4

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliOperator":
        return cls(BitVector.zeros(n_qubits), BitVector.zeros(n_qubits))

    @classmethod
    def from_vector(cls, v: BitVector, phase: int = 0) -> "PauliOperator":
        """Build from a 2N-bit (x-part | z-part) vector."""
        x, z = v.halves()
        return cls(x, z, phase)

    @property
    def x(self) -> BitVector:
        return self._x

    @property
    def z(self) -> BitVector:
        return self._z

    @property
    def phase(self) -> int:
        return self._phase

    @property
    def n_qubits(self) -> int:
        return len(self._x)

    @property
    def vector(self) -> BitVector:
        """The 2N-bit symplectic (x|z) vector; the phase is dropped."""
        return BitVector.concat(self._x, self._z)

    def is_hermitian(self) -> bool:
        """True iff the operator equals its own adjoint."""
        return (self._phase - (self._x & self._z).weight()) % 2 == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliOperator):
            return NotImplemented
        return (
            self._x == other._x
            and self._z == other._z
            and self._phase == other._phase
        )

    def __hash__(self) -> int:
        return hash((self._x, self._z, self._phase))

    def __repr__(self) -> str:
        xs = "".join(str(b) for b in self._x)
        zs = "".join(str(b) for b in self._z)
        return f"PauliOperator(x='{xs}', z='{zs}', phase={self._phase})"


def multiply(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Exact product PQ.

    The x/z exponents XOR; commuting each z factor of P past each x factor
    of Q on the same qubit contributes a -1, i.e. +2 to the i exponent.
    """
    if p.n_qubits != q.n_qubits:
        raise ValueError(f"size mismatch: {p.n_qubits} vs {q.n_qubits}")
    swaps = (p.z & q.x).weight()
    return PauliOperator(p.x ^ q.x, p.z ^ q.z, p.phase + q.phase + 2 * swaps)


def phase_bit(target: int, factors: list, n: int) -> int:
    """The bit c with ``C(target) = (-1)^c * prod C(factors)``, for commuting 2n-bit
    (x|z) masks that XOR to target; C(v) is :func:`from_proposition`'s Pauli."""
    v = e = 0  # the running product i^e * sx^x * sz^z with (x|z) = v, as in multiply
    for f in factors:
        e += (f & f >> n).bit_count() + 2 * (v >> n & f).bit_count()
        v ^= f
    if v != target:  # the rank-N invariant broke
        raise AssertionError("observable not in generator span")
    return ((target & target >> n).bit_count() - e) % 4 // 2


def commutes(p: PauliOperator, q: PauliOperator) -> int:
    """1 if PQ == QP, else 0; phases never matter."""
    if p.n_qubits != q.n_qubits:
        raise ValueError(f"size mismatch: {p.n_qubits} vs {q.n_qubits}")
    return 1 - symplectic_product(p.vector, q.vector)


def _canonical_phase(x: BitVector, z: BitVector) -> int:
    return (x & z).weight() % 4


class SignedObservable:
    """A Hermitian Pauli observable: canonical base times a sign of +-1."""

    __slots__ = ("_base", "_sign")

    def __init__(self, base: PauliOperator, sign: int = 1):
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        if base.phase != _canonical_phase(base.x, base.z):
            raise ValueError(
                "base is not in canonical Hermitian form; "
                "use SignedObservable.from_pauli to normalize"
            )
        self._base = base
        self._sign = sign

    @classmethod
    def from_pauli(cls, p: PauliOperator, sign: int = 1) -> "SignedObservable":
        """Normalize any Hermitian PauliOperator into canonical-base form."""
        if not p.is_hermitian():
            raise ValueError(f"operator is not Hermitian: {p!r}")
        canon = _canonical_phase(p.x, p.z)
        delta = (p.phase - canon) % 4
        flip = 1 if delta == 0 else -1
        return cls(PauliOperator(p.x, p.z, canon), sign * flip)

    @classmethod
    def identity(cls, n_qubits: int, sign: int = 1) -> "SignedObservable":
        return cls(PauliOperator.identity(n_qubits), sign)

    @property
    def base(self) -> PauliOperator:
        return self._base

    @property
    def sign(self) -> int:
        return self._sign

    @property
    def n_qubits(self) -> int:
        return self._base.n_qubits

    @property
    def vector(self) -> BitVector:
        return self._base.vector

    def negated(self) -> "SignedObservable":
        return SignedObservable(self._base, -self._sign)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedObservable):
            return NotImplemented
        return self._base == other._base and self._sign == other._sign

    def __hash__(self) -> int:
        return hash((self._base, self._sign))

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
    x, z = j.halves()
    return SignedObservable(PauliOperator(x, z, _canonical_phase(x, z)))


def observable_product(a: SignedObservable, b: SignedObservable) -> SignedObservable:
    """Product of two commuting observables, sign tracked exactly."""
    if not commutes(a.base, b.base):
        raise ValueError("observables anticommute; their product is not Hermitian")
    return SignedObservable.from_pauli(multiply(a.base, b.base), a.sign * b.sign)


def conjugate_by_blackbox(
    obs: SignedObservable, cfg: BlackBoxConfig
) -> SignedObservable:
    """Heisenberg action of the black-box unitary on an observable.

    The (x, z) pattern is fixed; only the sign picks up
    ``(-1)^{sum_j [z_j f_j(0) + x_j f_j(1)]}``, the parity that
    :func:`blackbox.proposition_truth` gives the observable's vector.
    """
    if obs.n_qubits != cfg.n:
        raise ValueError(f"size mismatch: {obs.n_qubits} qubits vs {cfg.n} functions")
    return obs.negated() if proposition_truth(obs.vector, cfg) else obs


def parse_observable(text: str) -> SignedObservable:
    """Parse signed Pauli notation such as "-YYX" or "+ZZI" or "XX"."""
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
    return SignedObservable(PauliOperator(x, z, _canonical_phase(x, z)), sign)


def _parse_observable_lines(text: str) -> list:
    """One observable per line of an axiom or tableau file; '#' starts a
    comment and blank lines are skipped."""
    lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return [parse_observable(line) for line in lines if line]


def format_observable(obs: SignedObservable) -> str:
    letters = "".join(
        _XZ_TO_LETTER[(xb, zb)] for xb, zb in zip(obs.base.x, obs.base.z)
    )
    return ("+" if obs.sign == 1 else "-") + letters
