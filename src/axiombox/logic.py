"""Propositions, logical dependence, and the classical/quantum truth split.

A proposition is a 2N-bit vector; it is dependent on an axiom set exactly
when it lies in the GF(2) span of the axiom vectors, which coincides with
its observable commuting with every encoded generator.  An
:class:`AxiomSet` is the :class:`stabilizer.StabilizerTableau` that
:func:`stabilizer.prepare` builds from its axioms, and the functions here
read dependence off any prepared tableau with :func:`stabilizer._scan`.
Dependent propositions carry two candidate truth values: the classical one
(parity combination of the axiom truth bits) and the quantum one (the
definite outcome of measuring the prepared state), both read off the same
scan: the generator product's sign bit, and that bit XOR its phase bit.
The two can legitimately differ, and when they do the witness is that
operator-level phase bit; :func:`ghz_report` packages the canonical
three-qubit instance of that divergence.

:class:`Proposition`, :class:`DependenceReport` and :class:`GhzReport` are
``__slots__`` records on :class:`blackbox._Record`, not dataclasses, so that
importing the core generates no methods (see :mod:`axiombox.blackbox`).
:class:`stabilizer.MeasurementResult` stays a dataclass, because callers
derive results from it with ``dataclasses.replace``; ``dataclasses`` is
loaded for it either way.  ``json`` loads only in :meth:`GhzReport.to_json`.
"""
from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from . import blackbox as bb
from . import pauli
from . import stabilizer as stab
from .blackbox import BlackBoxConfig, _Record
from .gf2 import BitVector, _swap_halves
from .pauli import SignedObservable
from .stabilizer import StabilizerTableau

# Bounds the size of `enumerate --n`'s default system, built from a bare integer.
ENUMERATION_CAP = 16


class Proposition(_Record):
    """A 2N-bit proposition vector (alpha_1..alpha_N, beta_1..beta_N)."""

    __slots__ = _FIELDS = ("vector",)

    def __init__(self, vector: BitVector):
        if len(vector) % 2:
            raise ValueError(f"proposition vector length {len(vector)} is odd")
        object.__setattr__(self, "vector", vector)

    @property
    def n_qubits(self) -> int:
        return len(self.vector) // 2

    @classmethod
    def from_string(cls, text: str) -> "Proposition":
        """From unsigned Pauli letters, e.g. "XXX".  A proposition has no sign,
        so a leading "+" or "-" raises ValueError instead of being dropped."""
        if text.strip()[:1] in ("+", "-"):
            raise ValueError(f"a proposition takes unsigned Pauli letters, got {text!r}")
        return cls(pauli.parse_observable(text).vector)

    def observable(self) -> SignedObservable:
        return pauli.from_proposition(self.vector)

    def __str__(self) -> str:
        return pauli.format_observable(self.observable())[1:]


class AxiomSet(StabilizerTableau):
    """N axiom vectors with their truth parities (1 encodes an "= 1" axiom).

    Vectors must be pairwise symplectically orthogonal and GF(2)-independent,
    i.e. they must describe a co-measurable, information-complete axiom
    system for N qubits.  The set is the tableau that
    :func:`stabilizer.prepare` builds from it, one elimination, with each
    parity as its generator's sign bit: vectors, parities and the dependence
    of any proposition are read off its generators and destabilizers, and
    it equals any tableau with the same fields.
    """

    __slots__ = ()

    def __init__(self, vectors: Sequence[BitVector], parities: Sequence[int]):
        vectors = tuple(vectors)
        parities = tuple(parities)
        if len(vectors) != len(parities):
            raise ValueError("one parity bit per axiom vector required")
        if any(b not in (0, 1) for b in parities):  # before `-1 if b` reads 0.5 as 1
            raise ValueError("parities must be bits")
        t = stab.prepare([(v, -1 if b else 1) for v, b in zip(vectors, parities)])
        super().__init__(t._n, t._gens, t._signs, t._destabs)

    @property
    def vectors(self) -> tuple:
        return tuple(BitVector.from_mask(g, 2 * self._n) for g in self._gens)

    @property
    def parities(self) -> tuple:
        return self._signs

    def signs(self) -> tuple:
        """Eigenvalue signs (-1)^parity, one per axiom."""
        return tuple(-1 if b else 1 for b in self.parities)

    def generator_pairs(self) -> list:
        """(vector, sign) pairs ready for :func:`stabilizer.prepare`."""
        return list(zip(self.vectors, self.signs()))

    @classmethod
    def from_observables(cls, observables: Sequence[SignedObservable]) -> "AxiomSet":
        """Sign -1 becomes parity 1 (the "= 1" reading)."""
        return cls(
            [o.vector for o in observables],
            [0 if o.sign == 1 else 1 for o in observables],
        )


class DependenceReport(_Record):
    """Classification of one proposition against one axiom set.

    ``coefficients``, ``classical_truth`` (the parity combination
    sum_p k_p * t_p of the axiom truths) and ``phase_bit`` are set only for
    dependent propositions; ``phase_bit`` is the operator-level sign c in
    ``Theta = (-1)^c * prod_p Omega_p^{k_p}`` and witnesses any divergence
    between the classical and the quantum truth value.
    """

    __slots__ = _FIELDS = ("dependent", "coefficients", "classical_truth", "phase_bit")

    def __init__(
        self,
        dependent: bool,
        coefficients: Optional[BitVector] = None,
        classical_truth: Optional[int] = None,
        phase_bit: Optional[int] = None,
    ):
        object.__setattr__(self, "dependent", dependent)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "classical_truth", classical_truth)
        object.__setattr__(self, "phase_bit", phase_bit)


class PropositionCounts(NamedTuple):
    dependent: int
    independent: int


def _factors(j: Proposition, axioms: StabilizerTableau) -> Optional[tuple]:
    """``(factors, sign, phase)`` of :func:`stabilizer._scan` when J depends on
    the axioms: J's observable is (-1)^phase times the product of the axioms
    p in ``factors``, whose parities XOR to ``sign``.  None when J's
    observable anticommutes with an axiom, i.e. J is independent."""
    n, v = axioms._n, j.vector
    if len(v) != 2 * n:
        raise ValueError(f"length mismatch: proposition {len(v)}, axioms expect {2 * n}")
    mask = v.mask
    return stab._scan(axioms, mask, _swap_halves(mask, n))[1]


def classify(j: Proposition, axioms: StabilizerTableau) -> DependenceReport:
    """Dependence test: is the proposition vector in the axioms' GF(2) span?
    ``axioms`` is an :class:`AxiomSet` or any prepared tableau, whose
    generators are the axioms and whose sign bits are their parities."""
    definite = _factors(j, axioms)
    if definite is None:
        return DependenceReport(dependent=False)
    factors, sign, phase = definite
    return DependenceReport(
        dependent=True,
        coefficients=BitVector.from_mask(sum(1 << p for p in factors), axioms._n),
        classical_truth=sign,
        phase_bit=phase,
    )


def classical_truth(j: Proposition, axioms: StabilizerTableau) -> Optional[int]:
    """Parity combination sum_p k_p * t_p of the axiom truths, or None."""
    definite = _factors(j, axioms)
    return None if definite is None else definite[1]


def quantum_truth(j: Proposition, state: StabilizerTableau) -> Optional[int]:
    """Truth bit b from a definite measurement outcome (-1)^b, or None.
    ``state`` is any prepared tableau, an :class:`AxiomSet` included.  The
    outcome bit of J's observable (sign +1) is the sign bit XOR the phase bit
    of its generator product, so both are read off :func:`stabilizer._scan`
    directly, as :func:`stabilizer.measure_forced` reads them."""
    definite = _factors(j, state)
    return None if definite is None else definite[1] ^ definite[2]


def enumerate_propositions(n: int, axioms: StabilizerTableau) -> PropositionCounts:
    """Count the 4^n proposition vectors that depend on the axioms.

    Dependent means in the span of the generators, and the k generators that
    :func:`stabilizer.prepare` proved independent span exactly 2^k vectors.
    """
    if axioms.n_qubits != n:
        raise ValueError(f"axiom set is for {axioms.n_qubits} qubits, not {n}")
    dependent = 2 ** len(axioms._gens)
    return PropositionCounts(dependent, 4 ** n - dependent)


# The canonical three-qubit instance: generators of the shared eigenstate and
# the three product observables serving as axioms, plus the derived one.
GHZ_GENERATOR_STRINGS = ("+ZZI", "+IZZ", "+XXX")
GHZ_AXIOM_STRINGS = ("YYX", "YXY", "XYY")
GHZ_DERIVED_STRING = "XXX"


class GhzReport(_Record):
    """Outcome of the three-qubit classical-vs-quantum truth comparison."""

    __slots__ = _FIELDS = (
        "config",
        "axiom_observables",
        "axiom_parities",
        "derived_observable",
        "coefficients",
        "classical",
        "quantum",
        "phase_bit",
    )

    def __init__(
        self,
        config: str,
        axiom_observables: tuple,
        axiom_parities: tuple,
        derived_observable: str,
        coefficients: tuple,
        classical: int,
        quantum: int,
        phase_bit: int,
    ):
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "axiom_observables", axiom_observables)
        object.__setattr__(self, "axiom_parities", axiom_parities)
        object.__setattr__(self, "derived_observable", derived_observable)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "classical", classical)
        object.__setattr__(self, "quantum", quantum)
        object.__setattr__(self, "phase_bit", phase_bit)

    @property
    def contradiction(self) -> int:
        return self.classical ^ self.quantum

    def to_text(self) -> str:
        lines = (f"{name}: {render(getattr(self, attr))}" for name, attr, render in _GHZ_FIELDS)
        return "".join(line + "\n" for line in lines)

    def to_json(self) -> str:
        import json  # only `ghz-demo --json` renders JSON

        fields = {name: getattr(self, attr) for name, attr, _ in _GHZ_FIELDS}
        return json.dumps(fields, indent=2)  # the tuple fields render as arrays


def _spaced(values) -> str:
    return " ".join(map(str, values))


# The report's fields in output order: (name in both renderings, attribute,
# text rendering).
_GHZ_FIELDS = (
    ("config", "config", str),
    ("axioms", "axiom_observables", _spaced),
    ("axiom_parities", "axiom_parities", _spaced),
    ("derived", "derived_observable", str),
    ("coefficients", "coefficients", lambda k: f"({','.join(map(str, k))})"),
    ("classical_truth", "classical", str),
    ("quantum_truth", "quantum", str),
    ("phase_bit", "phase_bit", str),
    ("contradiction", "contradiction", str),
)


def ghz_report(cfg: BlackBoxConfig) -> GhzReport:
    """Run the three-qubit contradiction for one black-box configuration.

    The prepared state is the joint +1 eigenstate of ZZI, IZZ, XXX; the
    axioms are the observables YYX, YXY, XYY (each a product of two
    generators, up to sign) whose parities the post-box state encodes.  The
    derived proposition XXX is dependent with coefficients (1,1,1); its
    classical parity combination and its definite measurement outcome always
    disagree, because the operator product of the three axiom observables is
    minus XXX.
    """
    if cfg.n != 3:
        raise ValueError(f"the GHZ argument needs exactly 3 qubits, got {cfg.n}")
    axiom_vectors = [Proposition.from_string(s).vector for s in GHZ_AXIOM_STRINGS]
    shifts = bb.axiom_truths(axiom_vectors, cfg)
    # Each axiom reads "= 1" on the bare state; the box XORs in its parity.
    parities = [1 ^ t for t in shifts]
    axioms = AxiomSet(axiom_vectors, parities)

    state = StabilizerTableau.from_text("\n".join(GHZ_GENERATOR_STRINGS))
    state = stab.apply_blackbox(state, cfg)
    for vector, parity in zip(axiom_vectors, parities):
        encoded = quantum_truth(Proposition(vector), state)
        if encoded != parity:  # arithmetic and physics must agree here
            raise AssertionError("state does not encode the axiom parities")

    derived = Proposition.from_string(GHZ_DERIVED_STRING)
    report = classify(derived, axioms)
    return GhzReport(
        config=str(cfg),
        axiom_observables=GHZ_AXIOM_STRINGS,
        axiom_parities=tuple(parities),
        derived_observable=GHZ_DERIVED_STRING,
        coefficients=report.coefficients.to_tuple(),
        classical=report.classical_truth,
        quantum=quantum_truth(derived, state),
        phase_bit=report.phase_bit,
    )
