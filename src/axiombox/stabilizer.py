"""Stabilizer-tableau states: preparation from axioms, black-box evolution,
Pauli measurement with collapse, and exact joint outcome distributions.

A tableau holds N commuting generators (the encoded axioms) as 2N-bit (x|z)
int masks with GF(2) sign bits (1 for -1), plus N destabilizer masks, one
anticommutation partner per generator (the CHP layout of quant-ph/0406196).
Next to each generator it keeps the generator's Y count, the phase data that
the definite product of :func:`_scan` adds up; the count is fixed by the
mask, so it is counted when the tableau is built, passed on unchanged by
:func:`apply_blackbox`, and recounted by :func:`_collapse` only for the rows
whose masks it changes.
The pairing turns "which generators multiply to this observable" into N
symplectic products, so a deterministic measurement costs O(N^2) bit
operations and is phase-exact, and a collapse is XORs of masks and sign bits.
Each row test is one AND and one popcount against the observable's mask with
its halves swapped (:func:`gf2._swap_halves`, once per measurement), and a
collapse's sign bits come from one :func:`pauli._pair_phase_bits`.

Every Pauli query, a measurement or a dependence test of :mod:`logic`,
reads one kernel, :func:`_scan`: a short generator prefix, then one
destabilizer pass whose product decides a definite outcome, and otherwise
the rest of the generator scan, which stops at the first anticommuting
generator, the collapse pivot.

Tableaus are value-like: measurement returns a fresh post-state instead of
mutating, so states can be shared.  A measurement does only the work its
result is read for: a collapse runs only where a post-state is read.  A
:class:`MeasurementResult` from :func:`measure` or :func:`measure_forced`
runs it on the first read of its cached ``post_state``, and the joint pass
of :func:`_outcome_set` when another observable follows.
Deferring it is safe because tableaus are immutable and the outcome bit is
drawn at call time, so the random stream is consumed in call order whether
or not a post-state is ever read.

Signs only XOR, so they may be affine forms over free outcomes: one pass of m
measurements gives the joint outcome set, a reference outcome XOR any
combination of r columns.  Joint distributions are stored as that affine
set: ``probability`` costs O(r*m) bit operations, and the 2^r points are
listed once, into the cached ``OutcomeDistribution._table``, when read.
"""
from __future__ import annotations

import functools
import itertools
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import gf2, pauli
from .blackbox import BlackBoxConfig, _parity
from .gf2 import (
    BitVector,
    _commute_pairwise,
    _echelon,
    _pairing_transpose,
    _span,
    _swap_halves,
)
from .pauli import SignedObservable

_TOLERANCE = 1e-9  # slack on probabilities handed to OutcomeDistribution


class MeasurementKind(Enum):
    DETERMINISTIC = "deterministic"
    RANDOM = "random"


class StabilizerTableau:
    """N-qubit stabilizer state: generator masks, sign bits, destabilizer
    masks, and ``_ys``, the Y count ``(g & g >> n).bit_count()`` of each
    generator mask g.

    ``_ys`` is derived from the masks, so ``==``, ``to_text``,
    ``generators`` and ``destabilizers`` never read it.  ``__init__`` counts
    it; :func:`apply_blackbox` passes it on, since the box changes no mask,
    and :func:`_collapse` recounts only the rows it changes, through
    :meth:`_from_rows`.  :func:`_scan` reads it in the definite product."""

    __slots__ = ("_n", "_gens", "_signs", "_destabs", "_ys")

    def __init__(
        self,
        n: int,
        gens: Sequence[int],
        signs: Sequence[int],
        destabs: Sequence[int],
    ):
        self._n = n
        self._gens = tuple(gens)
        self._signs = tuple(signs)
        self._destabs = tuple(destabs)
        self._ys = tuple([(g & g >> n).bit_count() for g in self._gens])

    @classmethod
    def _from_rows(
        cls,
        n: int,
        gens: Sequence[int],
        signs: Sequence[int],
        destabs: Sequence[int],
        ys: Sequence[int],
    ) -> "StabilizerTableau":
        """The tableau of these fields, ``ys`` already the Y counts of ``gens``."""
        t = cls.__new__(cls)
        t._n, t._gens, t._signs = n, tuple(gens), tuple(signs)
        t._destabs, t._ys = tuple(destabs), tuple(ys)
        return t

    @property
    def n_qubits(self) -> int:
        return self._n

    @property
    def generators(self) -> tuple:
        """The signed generators, built from the masks on each read."""
        return tuple(
            pauli._observable(g, self._n, -1 if s else 1)
            for g, s in zip(self._gens, self._signs)
        )

    @property
    def destabilizers(self) -> tuple:
        """The destabilizer (x|z) vectors, built from the masks on each read."""
        return tuple(BitVector.from_mask(d, 2 * self._n) for d in self._destabs)

    def check_invariants(self) -> None:
        """Raise AssertionError if the tableau structure is broken.  The checks
        raise explicitly, so they hold under ``python -O`` too."""
        n, gens = self._n, self._gens
        if not len(gens) == len(self._signs) == len(self._destabs) == n:
            raise AssertionError("need n generators, signs and destabilizers")
        if self._ys != tuple([(g & g >> n).bit_count() for g in gens]):
            raise AssertionError("stale Y counts")
        if not _commute_pairwise(gens, n):
            raise AssertionError("generators must commute pairwise")
        if len(gf2._echelon(list(gens))) != n:
            raise AssertionError("generators must be independent")
        for p, d in enumerate(self._destabs):
            swapped = _swap_halves(d, n)
            pairing = [(swapped & g).bit_count() & 1 for g in gens]
            if not pairing[p] == sum(pairing) == 1:
                raise AssertionError("destabilizer pairing broken")

    def to_text(self) -> str:
        """One signed generator per line, e.g. "+ZZI"."""
        return "".join(pauli.format_observable(g) + "\n" for g in self.generators)

    @classmethod
    def from_text(cls, text: str) -> "StabilizerTableau":
        """Prepare a tableau or axiom file, the one grammar for both: one
        signed Pauli string per line, as :meth:`to_text` writes them; '#'
        starts a comment and blank lines are skipped.  The result is a
        ``cls``, so ``AxiomSet.from_text`` gives an :class:`logic.AxiomSet`."""
        lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
        observables = [pauli.parse_observable(line) for line in lines if line]
        t = prepare([(o.vector, o.sign) for o in observables])
        return cls._from_rows(t._n, t._gens, t._signs, t._destabs, t._ys)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StabilizerTableau):
            return NotImplemented
        return (self._gens, self._signs, self._destabs) == (
            other._gens, other._signs, other._destabs
        )

    def __repr__(self) -> str:
        gens = ", ".join(map(pauli.format_observable, self.generators))
        return f"{type(self).__name__}({gens})"


@dataclass(frozen=True, init=False)
class MeasurementResult:
    """The outcome, kind and post-state of one measurement.

    ``post_state`` is a :func:`functools.cached_property`.  A random result
    of :func:`measure` or :func:`measure_forced` holds its :func:`_collapse`'s
    arguments in ``_collapse_args`` and runs it on the first read, which
    releases them; any other result holds its post-state from the start.
    The generated ``==`` and repr read ``post_state`` like any field; the
    generated hash reads it too and raises ``TypeError``, because a
    :class:`StabilizerTableau` is unhashable.
    """

    outcome: int  # +1 or -1
    kind: MeasurementKind
    post_state: StabilizerTableau  # the cached property below

    def __init__(self, outcome: int, kind: MeasurementKind, post_state: StabilizerTableau):
        self.__dict__.update(outcome=outcome, kind=kind, post_state=post_state)

    @classmethod
    def _deferred(
        cls, t: StabilizerTableau, bit: int, kind: MeasurementKind, collapse: tuple
    ) -> "MeasurementResult":
        """The result of :func:`_measure_deferred`'s ``(bit, kind, collapse)``
        on ``t``; a random one collapses when ``post_state`` is first read."""
        result = object.__new__(cls)
        fields = result.__dict__
        fields["outcome"] = -1 if bit else 1
        fields["kind"] = kind
        if collapse:
            fields["_collapse_args"] = collapse
        else:
            fields["post_state"] = t
        return result

    @functools.cached_property
    def post_state(self) -> StabilizerTableau:
        return _collapse(*self.__dict__.pop("_collapse_args"))


# _SIGN_BYTES[b]: bit k of byte b as the signed char -1 if set, else +1.
_SIGN_BYTES = [bytes(255 if b >> k & 1 else 1 for k in range(8)) for b in range(256)]


def _sign_tuples(words: Sequence[int], m: int) -> list:
    """The +-1 tuple of each m-bit outcome word (bit k set for -1 at entry k).

    The words' bytes are looked up in a table of signed chars and joined;
    ``struct`` then unpacks each word's chars into its tuple in one step, so
    no partial tuples are built (at m = 64 they doubled the cost)."""
    if not m:
        return [()] * len(words)
    shifts = range(0, m, 8)
    data = b"".join([_SIGN_BYTES[w >> s & 255] for w in words for s in shifts])
    return list(struct.iter_unpack(f"{m}b{-m % 8}x", data))


class OutcomeDistribution:
    """Exact probabilities over sign-vectors (one +-1 entry per observable).

    Its readers go through ``_table``, the dict of probabilities.  Built from
    a dict, it holds a copy there, and ``_pivots`` is None.  Built by
    :func:`joint_distribution`, it holds the affine set of :func:`_outcome_set`
    (``_reference``, and ``_pivots`` mapping the lowest set bit of each column
    to the column, in column order), exactly 2^-r on each point, and
    ``_table`` is a :func:`functools.cached_property` that lists the points.
    """

    def __init__(self, outcomes: Dict[tuple, float], num_observables: int):
        total = 0.0
        for signs, prob in outcomes.items():
            if len(signs) != num_observables:
                raise ValueError(f"sign vector {signs} has wrong length")
            if any(s not in (1, -1) for s in signs):
                raise ValueError(f"sign vector {signs} must contain only +-1")
            if not prob >= -_TOLERANCE:  # written so that NaN fails too
                raise ValueError(f"negative or NaN probability {prob} for {signs}")
            total += prob
        if not abs(total - 1.0) <= _TOLERANCE:
            raise ValueError(f"probabilities sum to {total}, not 1")
        self._table = dict(outcomes)
        self._num_observables = num_observables
        self._pivots = None

    @classmethod
    def _affine(cls, reference: int, columns: Sequence[int], m: int) -> "OutcomeDistribution":
        """The uniform distribution on ``reference`` XOR any combination of
        ``columns`` (m-bit outcome words).  Distinct lowest set bits make the
        columns independent, so the set has exactly 2^len(columns) points."""
        if any(not 0 <= w < 1 << m for w in (reference, *columns)):
            raise ValueError(f"outcome words must fit in {m} bits")
        pivots = {c & -c: c for c in columns}
        if 0 in pivots or len(pivots) != len(columns):
            raise ValueError("columns need distinct lowest set bits")
        dist = cls.__new__(cls)
        dist._num_observables = m
        dist._reference = reference
        dist._pivots = pivots
        return dist

    @functools.cached_property
    def _table(self) -> dict:
        columns = list(self._pivots.values())[::-1]  # keeps the listing order
        support = [self._reference ^ s for s in _span(columns)]
        keys = _sign_tuples(support, self._num_observables)
        return dict.fromkeys(keys, 0.5 ** len(self._pivots))

    @property
    def num_observables(self) -> int:
        return self._num_observables

    @property
    def outcomes(self) -> dict:
        return dict(self._table)

    def probability(self, signs: tuple) -> float:
        """The probability of ``signs``; 0.0 outside the support.  A point of
        an affine set with r >= 1075 free outcomes raises OverflowError, since
        2^-r is below the least positive float (for smaller r it is exact)."""
        if self._pivots is None:
            return self._table.get(tuple(signs), 0.0)
        signs = tuple(signs)
        if len(signs) != self._num_observables:
            return 0.0
        bits = 0
        for k, s in enumerate(signs):
            if s == -1:
                bits |= 1 << k
            elif s != 1:
                return 0.0
        if not self._in_span(bits ^ self._reference):
            return 0.0
        r = len(self._pivots)
        if r > 1074:
            raise OverflowError(f"probability 2^-{r} is below the least positive float")
        return 0.5 ** r

    def _in_span(self, bits: int) -> bool:
        """Whether the word ``bits`` is a combination of the columns."""
        # Each step clears the lowest set bit, a pivot whenever bits is in the span.
        while bits:
            column = self._pivots.get(bits & -bits)
            if column is None:
                return False
            bits ^= column
        return True

    def support(self) -> list:
        return sorted(s for s, p in self._table.items() if p > 0.0)

    def max_deviation(self, other: "OutcomeDistribution") -> float:
        """Largest absolute probability difference over all sign-vectors."""
        if self._num_observables != other._num_observables:
            raise ValueError("distributions are over different observable counts")
        mine, theirs = self._table, other._table
        return max(
            (abs(mine.get(k, 0.0) - theirs.get(k, 0.0)) for k in set(mine) | set(theirs)),
            default=0.0,
        )

    def __eq__(self, other: object) -> bool:
        """Equal probabilities on every sign-vector.  Two affine sets are
        compared without expanding: they are equal when they have the same
        size, each of ``other``'s columns is in the span of this one's, and
        the references differ by a vector of that span, in O(r^2) word XORs."""
        if not isinstance(other, OutcomeDistribution):
            return NotImplemented
        if self._pivots is None or other._pivots is None:
            return self.max_deviation(other) == 0.0
        if self._num_observables != other._num_observables:
            raise ValueError("distributions are over different observable counts")
        return (
            len(self._pivots) == len(other._pivots)
            and all(map(self._in_span, other._pivots.values()))
            and self._in_span(self._reference ^ other._reference)
        )

    def __repr__(self) -> str:
        body = ", ".join(
            f"{''.join('+' if s == 1 else '-' for s in k)}: {v}"
            for k, v in sorted(self._table.items(), reverse=True)
        )
        return f"OutcomeDistribution({{{body}}})"


def prepare(axioms: Sequence[Tuple[BitVector, int]]) -> StabilizerTableau:
    """Tableau for the joint eigenstate of the given signed axiom observables.

    ``axioms`` is a list of (2N-bit vector, sign) pairs: exactly N of them,
    of one length, pairwise symplectically orthogonal and GF(2)-independent
    (else ValueError; a vector that is not a BitVector raises TypeError).
    The one elimination, on the transposed pairing matrix (row q of the
    pairing matrix dotted with d is <d, g_q>) that
    :func:`gf2._pairing_transpose` builds, checks independence.  At rank N
    every column is a pivot, so pivot p's fully reduced row is e_p: the
    destabilizers are the pivots' combinations, <d_p, g_q> = delta_pq.
    A :class:`logic.AxiomSet` is this tableau, read with :func:`_scan`.
    """
    if not axioms:
        raise ValueError("empty axiom list")
    bad = next((v for v, _ in axioms if not isinstance(v, BitVector)), None)
    if bad is not None:
        raise TypeError(f"axiom vectors must be BitVectors, got {type(bad).__name__}")
    if any(s not in (1, -1) for _, s in axioms):
        raise ValueError("axiom signs must be +1 or -1")
    two_n = len(axioms[0][0])
    if any(len(v) != two_n for v, _ in axioms):
        raise ValueError("axiom vectors have inconsistent lengths")
    n = two_n // 2
    if two_n % 2 or len(axioms) != n:
        raise ValueError(f"need exactly {n} axioms of length {two_n}, got {len(axioms)}")
    masks = [v.mask for v, _ in axioms]
    if not _commute_pairwise(masks, n):
        raise ValueError("axioms not co-measurable")
    pivots = _echelon(_pairing_transpose(masks, n))
    if len(pivots) != n:
        raise ValueError("axioms not independent")
    bits = [int(s < 0) for _, s in axioms]
    return StabilizerTableau(n, masks, bits, [combo for _, _, combo in pivots])


def apply_blackbox(t: StabilizerTableau, cfg: BlackBoxConfig) -> StabilizerTableau:
    """Conjugate every generator: the box flips the sign of generator p exactly
    when its parity bit t_p (:func:`blackbox.axiom_truths`) is 1, read off
    its mask by :func:`blackbox._parity`."""
    if cfg.n != t._n:
        raise ValueError(f"size mismatch: {t._n} qubits vs {cfg.n} functions")
    signs = [s ^ _parity(g, cfg) for g, s in zip(t._gens, t._signs)]
    return StabilizerTableau._from_rows(t._n, t._gens, signs, t._destabs, t._ys)


def _collapse(
    t: StabilizerTableau, ov: int, swapped: int, sign: int, q: int
) -> StabilizerTableau:
    """Standard anticommuting-generator replacement with destabilizer upkeep;
    generator q, the first that anticommutes with C(ov), becomes C(ov) with
    sign bit ``sign``.  ``swapped`` is ``_swap_halves(ov, n)``; every later
    anticommuting generator p takes in g_q, its sign bit from one
    :func:`pauli._pair_phase_bits` for all of them.  Only those rows and row
    q get new Y counts; the others keep theirs."""
    n = t._n
    gens, signs, ys = list(t._gens), list(t._signs), list(t._ys)
    gq, sq = gens[q], signs[q]
    rest = [p for p in range(q + 1, n) if (swapped & gens[p]).bit_count() & 1]
    for p, c in zip(rest, pauli._pair_phase_bits([gens[p] for p in rest], gq, n)):
        signs[p] ^= sq ^ c
        g = gens[p] = gens[p] ^ gq
        ys[p] = (g & g >> n).bit_count()
    # Destabilizer q is overwritten, so it needs no exception here.
    destabs = [d ^ gq if (swapped & d).bit_count() & 1 else d for d in t._destabs]
    destabs[q] = gq
    gens[q], signs[q], ys[q] = ov, sign, (ov & ov >> n).bit_count()
    return StabilizerTableau._from_rows(n, gens, signs, destabs, ys)


def measure(
    t: StabilizerTableau, obs: SignedObservable, rng=None
) -> MeasurementResult:
    """Measure one Pauli observable, a :class:`pauli.SignedObservable` (any
    other type raises TypeError).

    If obs commutes with every generator the outcome is definite and the
    state is unchanged.  Otherwise the outcome is +-1 with probability 1/2
    each, drawn now from ``rng`` (a ``numpy.random.Generator`` or anything
    with a ``random()`` method returning a float in [0, 1), else ValueError);
    the module never owns a seed.  :func:`_scan` decides which, drawing
    nothing; a random bit is drawn only after it has found the outcome
    random.  The collapse runs on the first read of the result's
    ``post_state``: ``t`` is immutable and the bit is already drawn, so the
    post-state and the random stream are the same whenever it is read.
    """
    def draw() -> int:
        if rng is None:
            raise ValueError("random measurement outcome requires an rng")
        random = getattr(rng, "random", None)
        if not callable(random):
            raise ValueError(f"rng of type {type(rng).__name__} has no random() method")
        x = random()
        try:
            inside = 0.0 <= x < 1.0  # written so that NaN fails too
        except TypeError:  # not comparable with a float, such as a str
            inside = False
        if not inside:
            raise ValueError(f"rng.random() returned {x!r}, not a float in [0, 1)")
        return int(x >= 0.5)

    return MeasurementResult._deferred(t, *_measure_deferred(t, obs, draw))


def measure_forced(
    t: StabilizerTableau, obs: SignedObservable, outcome: int
) -> MeasurementResult:
    """Like :func:`measure` but a random branch takes the given outcome.

    Deterministic measurements ignore ``outcome`` and report their own.  As
    in :func:`measure`, :func:`_scan` decides which, and the collapse runs on
    the first read of ``post_state``.
    """
    if outcome not in (1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    return MeasurementResult._deferred(
        t, *_measure_deferred(t, obs, lambda: int(outcome < 0))
    )


def _measure_deferred(
    t: StabilizerTableau, obs: SignedObservable, random_bit: Callable[[], int]
) -> Tuple[int, MeasurementKind, tuple]:
    """The one measurement body: ``(outcome bit, kind, collapse)``, a random
    branch taking its bit from ``random_bit()`` once :func:`_scan` has found
    the outcome random.  ``collapse`` is ``()`` for a definite outcome, whose
    post-state is ``t``, and otherwise the arguments of the :func:`_collapse`
    that gives the post-state.  Only XORs touch the sign bits, so they may be
    affine forms (see :func:`_outcome_set`).  An ``obs`` that is not a
    :class:`pauli.SignedObservable` raises TypeError."""
    if not isinstance(obs, SignedObservable):
        raise TypeError(f"observable must be a SignedObservable, got {type(obs).__name__}")
    n, ov = t._n, obs._mask
    if obs._n != n:
        raise ValueError(f"size mismatch: {obs._n} vs {n} qubits")
    swapped = _swap_halves(ov, n)  # <ov, g> is the parity of swapped & g
    q, definite = _scan(t, ov, swapped)
    # A sign -1 adds 2 to the phase of C(ov), whose phase is its Y count.
    negative = (obs._phase - (ov & ov >> n).bit_count()) >> 1 & 1
    if q is None:
        _, sign, phase = definite
        return negative ^ sign ^ phase, MeasurementKind.DETERMINISTIC, ()
    bit = random_bit()
    return bit, MeasurementKind.RANDOM, (t, ov, swapped, bit ^ negative, q)


# Generators tested before the destabilizer pass of _scan.  A random outcome
# almost always shows within the first few, so a full pass on every random
# measurement would cost more than the generator tests it saves.
_PREFIX = 8


def _scan(
    t: StabilizerTableau, ov: int, swapped: int
) -> Tuple[Optional[int], Optional[tuple]]:
    """Every Pauli query on a tableau: is C(ov), of swapped mask ``swapped``,
    a product of the generators?  Returns ``(q, None)`` when it is not (a
    random outcome), q the first generator anticommuting with it and so the
    collapse pivot g_q; else ``(None, (factors, sign, phase))`` with
    C(ov) = (-1)^phase * prod_p C(g_p) over p in ``factors`` ascending, and
    ``sign`` the XOR of their sign bits.

    The first ``_PREFIX`` generators are tested one by one.  If all commute,
    one destabilizer pass picks the factors (<d_p, g_q> = delta_pq) and
    multiplies them, phase exponent e as in :func:`pauli.multiply`.  N
    independent commuting generators span a Lagrangian subspace, so C(ov)
    commutes with all of them exactly when the product is ov; otherwise the
    generator tests resume after the prefix for q."""
    gens = t._gens
    for q, g in enumerate(gens[:_PREFIX]):
        if (swapped & g).bit_count() & 1:
            return q, None
    n, signs, ys = t._n, t._signs, t._ys
    factors = [p for p, d in enumerate(t._destabs) if (swapped & d).bit_count() & 1]
    v = e = sign = 0  # the running product i^e * sx^x * sz^z with (x|z) = v
    for p in factors:
        f = gens[p]
        e += ys[p] + 2 * (v >> n & f).bit_count()
        v ^= f
        sign ^= signs[p]
    if v == ov:
        return None, (factors, sign, ((ov & ov >> n).bit_count() - e) % 4 // 2)
    for q in range(_PREFIX, n):
        if (swapped & gens[q]).bit_count() & 1:
            return q, None
    raise AssertionError("observable not in generator span")  # the rank-N invariant broke


def _outcome_set(
    t: StabilizerTableau, obs_list: Sequence[SignedObservable]
) -> Tuple[int, List[int]]:
    """The affine set of joint outcomes of pairwise-commuting observables, in
    outcome bits (bit k set for -1 at observable k): the reference XOR any
    combination of r columns.  One pass in which random measurement i takes
    the fresh variable 2 << i makes every sign and outcome an affine form, bit
    0 its constant and bit i + 1 its coefficient of free outcome i; the
    reference and column i collect bits 0 and i + 1.  A column's lowest set
    bit is at its own random measurement, its only bit at a random one, and
    the reference is 0 there, since that outcome's form is its bare variable.
    Each observable runs :func:`_measure_deferred`; a random one's collapse
    runs only when another observable follows to read its post-state."""
    n = t._n
    for obs in obs_list:
        if not isinstance(obs, SignedObservable):
            raise TypeError(f"observable must be a SignedObservable, got {type(obs).__name__}")
        if obs._n != n:
            raise ValueError(f"size mismatch: {obs._n} vs {n} qubits")
    if not _commute_pairwise([o._mask for o in obs_list], n):
        raise ValueError("not co-measurable")

    fresh = (2 << i for i in itertools.count()).__next__
    state, forms, collapse = t, [], ()
    for obs in obs_list:
        if collapse:
            state = _collapse(*collapse)
        form, _, collapse = _measure_deferred(state, obs, fresh)
        forms.append(form)
    r = max([1, *map(int.bit_length, forms)]) - 1  # random outcome i has form 2 << i
    sets = [sum((f >> i & 1) << k for k, f in enumerate(forms)) for i in range(r + 1)]
    return sets[0], sets[1:]


def joint_distribution(
    t: StabilizerTableau, obs_list: Sequence[SignedObservable]
) -> OutcomeDistribution:
    """Exact outcome distribution of pairwise-commuting observables, each a
    :class:`pauli.SignedObservable` (else TypeError): each of the 2^r points
    of :func:`_outcome_set` has probability exactly 2^-r.  It is kept as that
    affine set: ``probability`` costs O(r*m) bit operations, and ``outcomes``
    lists the 2^r points when read."""
    reference, columns = _outcome_set(t, obs_list)
    return OutcomeDistribution._affine(reference, columns, len(obs_list))


def _draw_and_restrict(basis: List[int], n: int, rng) -> Tuple[int, bool]:
    """Draw a uniform random element v of the span of ``basis``, a basis of
    the symplectic complement of the vectors drawn before (2n-bit masks),
    and restrict ``basis`` in place to the complement of v as well.

    One symplectic Gram-Schmidt step: the basis vectors that anticommute
    with v take in the first of them, which is then dropped.  Returns v and
    whether the basis shrank, which is exactly when v lies outside the span
    of the earlier vectors (that span is the complement of the complement).
    """
    v = 0
    for bit, b in zip(rng.integers(0, 2, size=len(basis)), basis):
        if bit:
            v ^= b
    swapped = _swap_halves(v, n)
    flips = [k for k, b in enumerate(basis) if (swapped & b).bit_count() & 1]
    if flips:
        pivot = basis.pop(flips[0])
        for k in flips[1:]:
            basis[k - 1] ^= pivot
    return v, bool(flips)


def _random_sign(rng) -> int:
    return 1 if rng.integers(0, 2) == 0 else -1


def random_axioms(n: int, rng) -> list:
    """A uniformly-flavored random valid axiom set: N signed 2N-bit vectors,
    pairwise symplectically orthogonal and independent.

    Grown greedily: each new vector is a random element of the symplectic
    complement of the ones chosen so far, rejected if it falls in their span
    (zero included).  One complement basis, started at the 2N unit vectors and
    restricted in place by :func:`_draw_and_restrict`, serves both steps, so
    the whole set costs O(N^2) symplectic products and no elimination.
    """
    if n < 1:
        raise ValueError(f"need at least one qubit, got {n}")
    basis = [1 << j for j in range(2 * n)]
    vectors: List[int] = []
    while len(vectors) < n:
        v, independent = _draw_and_restrict(basis, n, rng)
        if independent:
            vectors.append(v)
    return [(BitVector.from_mask(v, 2 * n), _random_sign(rng)) for v in vectors]


def random_commuting_observables(n: int, count: int, rng) -> list:
    """``count`` random pairwise-commuting signed observables on n qubits.

    Unlike :func:`random_axioms`, linear dependence (and even the identity)
    is allowed; the list only has to be co-measurable.
    """
    if n < 1 or count < 0:
        raise ValueError(f"need at least one qubit and count >= 0, got {n}, {count}")
    basis = [1 << j for j in range(2 * n)]
    vectors = [_draw_and_restrict(basis, n, rng)[0] for _ in range(count)]
    return [pauli._observable(v, n, _random_sign(rng)) for v in vectors]
