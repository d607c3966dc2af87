"""Stabilizer-tableau states: preparation from axioms, black-box evolution,
Pauli measurement with collapse, and exact joint outcome distributions.

A tableau holds N signed commuting generators (the encoded axioms) plus N
destabilizers, one anticommutation partner per generator, kept as bare (x|z)
vectors.  The destabilizer pairing turns "which generators multiply to this
observable" into N symplectic products, so a deterministic measurement costs
O(N^2) bit operations and is phase-exact; no linear system is solved at
measurement time.

Tableaus are value-like: measurement returns a fresh post-state instead of
mutating, so states can be shared; joint outcomes need no branching.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import pauli
from .blackbox import BlackBoxConfig
from .gf2 import (
    BitMatrix,
    BitVector,
    _echelon,
    _reduce,
    nullspace,
    rank,
    swap_halves,
    symplectic_product,
)
from .pauli import SignedObservable

_TOLERANCE = 1e-9  # slack on probabilities handed to OutcomeDistribution


class MeasurementKind(Enum):
    DETERMINISTIC = "deterministic"
    RANDOM = "random"


class StabilizerTableau:
    """N-qubit stabilizer state as signed generators plus destabilizers."""

    __slots__ = ("_generators", "_destabilizers")

    def __init__(
        self,
        generators: Sequence[SignedObservable],
        destabilizers: Sequence[BitVector],
    ):
        self._generators = tuple(generators)
        self._destabilizers = tuple(destabilizers)

    @property
    def n_qubits(self) -> int:
        return self._generators[0].n_qubits

    @property
    def generators(self) -> tuple:
        return self._generators

    @property
    def destabilizers(self) -> tuple:
        return self._destabilizers

    def generator_matrix(self) -> BitMatrix:
        return BitMatrix([g.vector for g in self._generators])

    def check_invariants(self) -> None:
        """Raise AssertionError if the tableau structure is broken."""
        n = self.n_qubits
        assert len(self._generators) == n and len(self._destabilizers) == n
        for p in range(n):
            for q in range(p + 1, n):
                assert (
                    symplectic_product(
                        self._generators[p].vector, self._generators[q].vector
                    )
                    == 0
                ), "generators must commute pairwise"
        assert rank(self.generator_matrix()) == n, "generators must be independent"
        for p, d in enumerate(self._destabilizers):
            for q, g in enumerate(self._generators):
                want = 1 if p == q else 0
                assert symplectic_product(d, g.vector) == want, "destabilizer pairing broken"

    def to_text(self) -> str:
        """One signed generator per line, e.g. "+ZZI"."""
        return "".join(pauli.format_observable(g) + "\n" for g in self._generators)

    @classmethod
    def from_text(cls, text: str) -> "StabilizerTableau":
        """Parse :meth:`to_text` output (or any axiom file) and prepare."""
        pairs = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            obs = pauli.parse_observable(line)
            pairs.append((obs.vector, obs.sign))
        return prepare(pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StabilizerTableau):
            return NotImplemented
        return (
            self._generators == other._generators
            and self._destabilizers == other._destabilizers
        )

    def __repr__(self) -> str:
        gens = " ".join(pauli.format_observable(g) for g in self._generators)
        return f"StabilizerTableau({gens})"


@dataclass(frozen=True)
class MeasurementResult:
    outcome: int  # +1 or -1
    kind: MeasurementKind
    post_state: StabilizerTableau


class OutcomeDistribution:
    """Exact probabilities over sign-vectors (one +-1 entry per observable)."""

    __slots__ = ("_outcomes", "_num_observables")

    def __init__(self, outcomes: Dict[tuple, float], num_observables: int):
        total = 0.0
        for signs, prob in outcomes.items():
            if len(signs) != num_observables:
                raise ValueError(f"sign vector {signs} has wrong length")
            if any(s not in (1, -1) for s in signs):
                raise ValueError(f"sign vector {signs} must contain only +-1")
            if prob < -_TOLERANCE:
                raise ValueError(f"negative probability {prob} for {signs}")
            total += prob
        if abs(total - 1.0) > _TOLERANCE:
            raise ValueError(f"probabilities sum to {total}, not 1")
        self._outcomes = dict(outcomes)
        self._num_observables = num_observables

    @property
    def num_observables(self) -> int:
        return self._num_observables

    @property
    def outcomes(self) -> dict:
        return dict(self._outcomes)

    def probability(self, signs: tuple) -> float:
        return self._outcomes.get(tuple(signs), 0.0)

    def support(self) -> list:
        return sorted(s for s, p in self._outcomes.items() if p > 0.0)

    def max_deviation(self, other: "OutcomeDistribution") -> float:
        """Largest absolute probability difference over all sign-vectors."""
        if self._num_observables != other._num_observables:
            raise ValueError("distributions are over different observable counts")
        keys = set(self._outcomes) | set(other._outcomes)
        return max(
            (abs(self.probability(k) - other.probability(k)) for k in keys),
            default=0.0,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OutcomeDistribution):
            return NotImplemented
        return self.max_deviation(other) == 0.0

    def __repr__(self) -> str:
        body = ", ".join(
            f"{''.join('+' if s == 1 else '-' for s in k)}: {v}"
            for k, v in sorted(self._outcomes.items(), reverse=True)
        )
        return f"OutcomeDistribution({{{body}}})"


def check_axioms(vectors: Sequence[BitVector], matrix: Callable[..., BitMatrix]) -> list:
    """Raise ValueError unless ``vectors`` are N pairwise-commuting,
    independent 2N-bit vectors; return the :func:`gf2._echelon` pivots of
    ``matrix(vectors)`` (a matrix of their rank), kept by the caller so that
    the system is eliminated only once."""
    if not vectors:
        raise ValueError("empty axiom list")
    two_n = len(vectors[0])
    n = two_n // 2
    if two_n % 2 or len(vectors) != n:
        raise ValueError(f"need exactly {n} axioms of length {two_n}, got {len(vectors)}")
    if any(len(v) != two_n for v in vectors):
        raise ValueError("axiom vectors have inconsistent lengths")
    for p, v in enumerate(vectors):
        if any(symplectic_product(v, w) for w in vectors[p + 1 :]):
            raise ValueError("axioms not co-measurable")
    pivots = _echelon(matrix(vectors))
    if len(pivots) != n:
        raise ValueError("axioms not independent")
    return pivots


def prepare(axioms: Sequence[Tuple[BitVector, int]]) -> StabilizerTableau:
    """Tableau for the joint eigenstate of the given signed axiom observables.

    ``axioms`` is a list of (2N-bit vector, sign) pairs: exactly N of them,
    pairwise symplectically orthogonal and GF(2)-independent.  The one
    elimination, run by :func:`check_axioms` on the transposed pairing matrix
    (row q of the pairing matrix dotted with d is <d, g_q>), checks
    independence, and reducing each unit vector e_p against its pivots gives
    the destabilizer d_p with <d_p, g_q> = delta_pq.
    """
    vectors = [v for v, _ in axioms]
    signs = [s for _, s in axioms]
    if any(s not in (1, -1) for s in signs):
        raise ValueError("axiom signs must be +1 or -1")
    pivots = check_axioms(
        vectors, lambda vs: BitMatrix([swap_halves(v) for v in vs]).transpose()
    )
    generators = [
        SignedObservable(pauli.from_proposition(v).base, s)
        for v, s in zip(vectors, signs)
    ]
    two_n = 2 * len(vectors)
    destabilizers = [
        BitVector.from_mask(_reduce(1 << p, pivots)[1], two_n)
        for p in range(len(vectors))
    ]
    return StabilizerTableau(generators, destabilizers)


def apply_blackbox(t: StabilizerTableau, cfg: BlackBoxConfig) -> StabilizerTableau:
    """Conjugate every generator; only signs can change."""
    new_gens = [pauli.conjugate_by_blackbox(g, cfg) for g in t.generators]
    return StabilizerTableau(new_gens, t.destabilizers)


def _collapse(
    t: StabilizerTableau,
    obs: SignedObservable,
    anticommuting: Sequence[int],
    outcome: int,
) -> StabilizerTableau:
    """Standard anticommuting-generator replacement with destabilizer upkeep."""
    q = anticommuting[0]
    pivot = t.generators[q]
    pv = pivot.vector
    generators = list(t.generators)
    destabilizers = list(t.destabilizers)
    for p in anticommuting[1:]:
        generators[p] = pauli.observable_product(generators[p], pivot)
    ov = obs.vector
    for p, d in enumerate(destabilizers):
        if p != q and symplectic_product(ov, d):
            destabilizers[p] = d ^ pv
    destabilizers[q] = pv
    generators[q] = SignedObservable(obs.base, outcome * obs.sign)
    return StabilizerTableau(generators, destabilizers)


def measure(
    t: StabilizerTableau, obs: SignedObservable, rng=None
) -> MeasurementResult:
    """Measure one Pauli observable.

    If obs commutes with every generator the outcome is definite and the
    state is unchanged.  Otherwise the outcome is +-1 with probability 1/2
    each, drawn from ``rng`` (a ``numpy.random.Generator`` or anything with
    a ``random()`` method); the module never owns a seed.
    """
    return _measure(t, obs, rng, None)


def measure_forced(
    t: StabilizerTableau, obs: SignedObservable, outcome: int
) -> MeasurementResult:
    """Like :func:`measure` but a random branch takes the given outcome.

    Deterministic measurements ignore ``outcome`` and report their own.
    """
    if outcome not in (1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    return _measure(t, obs, None, outcome)


def _measure(
    t: StabilizerTableau, obs: SignedObservable, rng, outcome
) -> MeasurementResult:
    """The one body of :func:`measure` and :func:`measure_forced`; a random
    branch draws from ``rng`` when ``outcome`` is None."""
    if obs.n_qubits != t.n_qubits:
        raise ValueError(f"size mismatch: {obs.n_qubits} vs {t.n_qubits} qubits")
    ov = obs.vector
    anticommuting = [
        p
        for p, g in enumerate(t.generators)
        if symplectic_product(ov, g.vector)
    ]
    if not anticommuting:
        # The destabilizer pairing picks the generators g_p with
        # base(obs) = (-1)^c * prod_p base(g_p); the outcome follows exactly.
        factors = [
            g
            for g, d in zip(t.generators, t.destabilizers)
            if symplectic_product(ov, d)
        ]
        c = pauli.phase_bit(obs.base, [g.base for g in factors])
        definite = obs.sign * (-1) ** c
        for g in factors:
            definite *= g.sign
        return MeasurementResult(definite, MeasurementKind.DETERMINISTIC, t)
    if outcome is None:
        if rng is None:
            raise ValueError("random measurement outcome requires an rng")
        outcome = 1 if rng.random() < 0.5 else -1
    post = _collapse(t, obs, anticommuting, outcome)
    return MeasurementResult(outcome, MeasurementKind.RANDOM, post)


def joint_distribution(
    t: StabilizerTableau, obs_list: Sequence[SignedObservable]
) -> OutcomeDistribution:
    """Exact outcome distribution for a list of pairwise-commuting observables.

    Which measurements are random never depends on an outcome, and each
    generator sign is an XOR of earlier random outcomes, so the outcomes form
    an affine set: the reference pass (every random outcome forced to +1) XOR
    any combination of r columns, column i being the pass that forces -1 at
    random measurement i, XOR the reference.  Each of the 2^r points has
    probability 2^-r, exact in binary floating point; (r + 1) * m
    :func:`measure_forced` calls.
    """
    m = len(obs_list)
    for i, obs in enumerate(obs_list):
        if any(symplectic_product(obs.vector, o.vector) for o in obs_list[i + 1 :]):
            raise ValueError("not co-measurable")

    def forced_pass(flip: Optional[int]):
        """Outcome bits (bit k set for -1, forced at ``flip``) and the indices
        of the random measurements."""
        state, bits, random = t, 0, []
        for k, obs in enumerate(obs_list):
            result = measure_forced(state, obs, -1 if k == flip else 1)
            state = result.post_state
            bits |= (result.outcome == -1) << k
            if result.kind is MeasurementKind.RANDOM:
                random.append(k)
        return bits, random

    reference, random = forced_pass(None)
    support = [reference]
    for i in random:
        column = forced_pass(i)[0] ^ reference
        support = [s for base in support for s in (base, base ^ column)]
    prob = 0.5 ** len(random)
    return OutcomeDistribution(
        {tuple(-1 if s >> k & 1 else 1 for k in range(m)): prob for s in support}, m
    )


def _complement(vectors: Sequence[BitVector], two_n: int) -> list:
    """Basis of the symplectic complement of ``vectors`` (one elimination)."""
    return nullspace(BitMatrix([swap_halves(v) for v in vectors], num_cols=two_n))


def _random_orthogonal(complement: list, two_n: int, rng) -> BitVector:
    """Uniform random element of the span of the ``complement`` basis."""
    mask = 0
    if complement:
        picks = rng.integers(0, 2, size=len(complement))
        for bit, basis_vec in zip(picks, complement):
            if bit:
                mask ^= basis_vec.mask
    return BitVector.from_mask(mask, two_n)


def _random_sign(rng) -> int:
    return 1 if rng.integers(0, 2) == 0 else -1


def random_axioms(n: int, rng) -> list:
    """A uniformly-flavored random valid axiom set: N signed 2N-bit vectors,
    pairwise symplectically orthogonal and independent.

    Grown greedily: each new vector is a random element of the symplectic
    orthogonal complement of the ones chosen so far, rejected if it falls in
    their span (zero included).  That span is the symplectic complement of the
    complement, so one elimination per accepted vector serves both steps.
    """
    two_n = 2 * n
    vectors: List[BitVector] = []
    complement = _complement(vectors, two_n)
    while len(vectors) < n:
        candidate = _random_orthogonal(complement, two_n, rng)
        if any(symplectic_product(candidate, c) for c in complement):
            vectors.append(candidate)
            complement = _complement(vectors, two_n)
    return [(v, _random_sign(rng)) for v in vectors]


def random_commuting_observables(n: int, count: int, rng) -> list:
    """``count`` random pairwise-commuting signed observables on n qubits.

    Unlike :func:`random_axioms`, linear dependence (and even the identity)
    is allowed; the list only has to be co-measurable.
    """
    vectors: List[BitVector] = []
    while len(vectors) < count:
        vectors.append(_random_orthogonal(_complement(vectors, 2 * n), 2 * n, rng))
    return [
        SignedObservable(pauli.from_proposition(v).base, _random_sign(rng))
        for v in vectors
    ]
