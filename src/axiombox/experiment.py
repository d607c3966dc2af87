"""Monte-Carlo harness: seeded sampling with a noise model, classification of
finite outcome strings as dependent/independent, and the misclassification
decay study, plus the two standard demonstration grids (single-qubit state
times basis matrix; Bell state in three bases).

Randomness is counter-based Philox keyed on (seed, substream), so every
record is bit-reproducible from its seed and a demo's cells can be drawn in
any order (or concurrently) without changing the output.
"""
from __future__ import annotations

import itertools
import math
import operator
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import pauli
from . import stabilizer as stab
from .blackbox import BlackBoxConfig
from .pauli import SignedObservable
from .stabilizer import StabilizerTableau

_RUN_CAP = 10 ** 6  # most runs per record or trials per length, so arrays stay small
# Bytes of the widest array of one block of sampled flips: the m Philox words
# of each run, or its row of 64 * ceil(m/64) flips where that is wider.  glibc
# maps a fresh allocation of 128 KiB or more (its default mmap threshold) and
# unmaps it when it is freed, so every call would fault those pages in again;
# blocks under it reuse the same heap memory.
_BLOCK_BYTES = 1 << 16


def philox_rng(seed: int, substream: int = 0) -> np.random.Generator:
    """Counter-based generator keyed on (seed, substream): streams for
    different substreams never overlap, whatever order they are drawn in.
    Both keys must be integers in [0, 2^64), so that distinct keys never
    alias: a float key raises TypeError instead of being truncated."""
    seed, substream = operator.index(seed), operator.index(substream)
    if not (0 <= seed < 1 << 64 and 0 <= substream < 1 << 64):
        raise ValueError(f"seed {seed}, substream {substream}: not in [0, 2^64)")
    key = np.array([seed, substream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class NoiseModel:
    """I.i.d. outcome-bit flips: ``flip_prob`` is the chance each measured
    sign is reported inverted."""

    flip_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.flip_prob < 0.5:
            raise ValueError(
                f"flip_prob must lie in [0, 0.5), got {self.flip_prob}"
            )


@dataclass(frozen=True)
class RunRecord:
    """One sampling run: counts per outcome plus full provenance."""

    seed: int
    n_runs: int
    counts: Dict[tuple, int]
    observables: tuple
    flip_prob: float = 0.0
    substream: int = 0

    def __post_init__(self):
        if sum(self.counts.values()) != self.n_runs:
            raise ValueError("counts must sum to n_runs")

    def frequency(self, signs: tuple) -> float:
        return self.counts.get(tuple(signs), 0) / self.n_runs


class Decision(Enum):
    DEPENDENT = "dependent"
    INDEPENDENT = "independent"


@dataclass(frozen=True)
class Verdict:
    decision: Decision
    imbalance: float
    confidence_bound: float


@dataclass(frozen=True)
class FrequencyRow:
    """One CSV row of a demo grid."""

    state: str
    basis: str
    outcome_label: str
    count: int
    frequency: float


@dataclass(frozen=True)
class DecayRow:
    run_length: int
    error_rate: float  # averaged over both ground truths
    dependent_error_rate: float
    independent_error_rate: float
    chernoff_bound: float


def _count(value, name: str) -> int:
    """A run or trial count, taken through ``operator.index`` (so a float
    raises TypeError instead of failing inside numpy) and checked to lie in
    [1, _RUN_CAP]."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if not 1 <= value <= _RUN_CAP:
        raise ValueError(f"{name} must lie in [1, {_RUN_CAP}], got {value}")
    return value


def _words(bits: int, width: int) -> np.ndarray:
    """An outcome word (bit k set for -1 at entry k) as ``width`` uint64 words
    laid out as the sign tuples sort: entry k at bit 63 - k % 64 of word k // 64."""
    text = f"{bits:0{64 * width}b}"[::-1]  # entry k is character k
    return np.array([int(text[i : i + 64], 2) for i in range(0, 64 * width, 64)], np.uint64)


def sample(
    state: StabilizerTableau,
    observables: Sequence[SignedObservable],
    n_runs: int,
    seed: int,
    noise: Optional[NoiseModel] = None,
    substream: int = 0,
) -> RunRecord:
    """Draw ``n_runs`` independent outcomes of the joint measurement.

    Each run is the k-th point, in sorted order, of the affine outcome set of
    :func:`stabilizer._outcome_set` (at most 2^53 points), found without listing
    the set; then every outcome bit is flipped with probability ``noise.flip_prob``.
    Both are read as integers off the raw 64-bit words of the Philox stream: k
    is the top r bits of one word, and a flip is a word below
    ``ceil(flip_prob * 2^53) << 11``.  These are exactly the draws of
    ``rng.random()``, so the stream, and every seeded record, is that of the
    float sampler.  The flips are drawn a block of runs at a time, each block's
    words taking at most ``_BLOCK_BYTES``, so no flip array grows with ``n_runs``.
    A run is one row of ceil(m/64) uint64 words laid out by :func:`_words` and
    complemented, so that a set bit means +1 and the rows sort as their sign
    tuples do; they are built from per-byte tables of column XORs:
    O(runs*(r/8 + m)).  ``np.unique`` tallies the rows in that order, and only
    the distinct rows are unpacked into tuples.  ``n_runs`` must be an integer
    in [1, 10^6].
    """
    n_runs = _count(n_runs, "n_runs")
    if not observables:
        raise ValueError("at least one observable is required")
    noise = noise or NoiseModel()
    reference, columns = stab._outcome_set(state, observables)
    r = len(columns)
    if r > 53:
        raise ValueError(f"{r} independent outcomes: sample draws at most 53")

    # rng.random() is (word >> 11) * 2^-53, so floor(random() * 2^r), as
    # rng.choice draws k, is word >> (64 - r).  At r = 0 the words are still
    # drawn, since the flips follow them in the stream.  Every operand that
    # meets the words is a np.uint64, so numpy 1.x and NEP 50 casting agree.
    bitgen = philox_rng(seed, substream).bit_generator
    picks = bitgen.random_raw(n_runs)
    m = len(observables)
    width = -(-m // 64)  # uint64 words per run
    # The reference is +1 at each column's pivot, and -1 sorts first, so the
    # k-th point takes column i exactly when bit r-1-i of k is 0; no other
    # column touches that pivot.  Bit r-1-i of `taken` says whether column i
    # is taken.
    if r:
        picks >>= np.uint64(64 - r)
        taken = picks.view(np.int64)  # below 2^53, and int64 indexes faster
        taken ^= (1 << r) - 1
    words = np.tile(~_words(reference, width), (n_runs, 1))
    for low in range(0, r, 8):
        # table[b]: XOR of the columns whose bits of `taken` byte low/8 are set in b.
        table = np.zeros((256, width), np.uint64)
        for b in range(min(8, r - low)):
            table[1 << b : 2 << b] = table[: 1 << b] ^ _words(columns[r - 1 - low - b], width)
        words ^= table[taken >> low & 255]
    if noise.flip_prob > 0.0:
        # random() < p exactly when word < ceil(p * 2^53) << 11, at most 2^63
        # for p < 0.5.  Blocks of runs keep the stream's row-major order.
        threshold = np.uint64(math.ceil(noise.flip_prob * 2.0 ** 53) << 11)
        step = max(1, _BLOCK_BYTES // (8 * max(m, 8 * width)))  # runs per block
        flips = np.zeros((min(step, n_runs), 64 * width), bool)
        for start in range(0, n_runs, step):
            block = words[start : start + step]
            rows = flips[: len(block)]
            np.less(bitgen.random_raw((len(block), m)), threshold, out=rows[:, :m])
            # Packed MSB first and read as big-endian words, flip k lands at
            # bit 63 - k % 64 of word k // 64 on any host; so does unpacking below.
            block ^= np.packbits(rows).view(">u8").reshape(len(block), width)

    # Tally each distinct row once, in sign-tuple order.
    if width == 1:
        distinct, tallies = np.unique(words[:, 0], return_counts=True)
        distinct = distinct[:, None]
    else:
        distinct, tallies = np.unique(words, axis=0, return_counts=True)  # word 0 first
    bits = np.unpackbits(distinct.astype(">u8").view(np.uint8), axis=1, count=m)
    signs = struct.iter_unpack(f"{m}b", (bits.view(np.int8) * 2 - 1).tobytes())
    return RunRecord(
        seed=seed,
        n_runs=n_runs,
        counts=dict(zip(signs, tallies.tolist())),
        observables=tuple(pauli.format_observable(o) for o in observables),
        flip_prob=noise.flip_prob,
        substream=substream,
    )


def classify_record(record: RunRecord, threshold: float = 0.25) -> Verdict:
    """Dependent/independent verdict for a single binary-observable record.

    ``imbalance`` is the distance of the +1 frequency from 1/2; the record
    is called Dependent when it exceeds the threshold.  The reported
    confidence bound is the additive-Chernoff (Hoeffding) tail
    ``exp(-2 n margin^2)`` at the observed margin from the threshold.
    """
    if len(record.observables) != 1:
        raise ValueError("classification needs a single binary observable")
    if record.n_runs < 1 or not record.counts:
        raise ValueError("empty record")
    if not 0.0 < threshold < 0.5:  # written so that NaN fails too
        raise ValueError(f"threshold must lie in (0, 0.5), got {threshold}")
    imbalance = abs(record.frequency((1,)) - 0.5)
    decision = Decision.DEPENDENT if imbalance > threshold else Decision.INDEPENDENT
    margin = abs(imbalance - threshold)
    bound = math.exp(-2.0 * record.n_runs * margin * margin)
    return Verdict(decision=decision, imbalance=imbalance, confidence_bound=bound)


def decay_study(
    noise: NoiseModel,
    run_lengths: Sequence[int],
    trials: int,
    seed: int,
    threshold: float = 0.25,
) -> List[DecayRow]:
    """Empirical misclassification rate versus outcome-string length.

    For each length, ``trials`` dependent instances (a definite outcome
    flipped with ``flip_prob``, i.e. +1 counts ~ Binomial(L, 1-q)) and
    ``trials`` independent instances (uniform signs, which the flips leave
    uniform) are classified by the imbalance threshold; the row reports the
    fraction misclassified over both ground truths next to the averaged
    Hoeffding upper bound.
    """
    q = noise.flip_prob
    if not q < threshold < 0.5 - q:  # written so that a NaN threshold fails too
        raise ValueError("indistinguishable regime")
    dep_margin = 0.5 - q - threshold
    trials = _count(trials, "trials")
    rows = []
    for stream_index, length in enumerate(run_lengths):
        length = operator.index(length)  # a float length would be truncated
        if not 1 <= length < 1 << 63:  # numpy draws binomials of int64 size
            raise ValueError(f"run length must lie in [1, 2^63), got {length}")
        rng = philox_rng(seed, stream_index)
        dep_plus = rng.binomial(length, 1.0 - q, size=trials)
        ind_plus = rng.binomial(length, 0.5, size=trials)
        dep_imbalance = np.abs(dep_plus / length - 0.5)
        ind_imbalance = np.abs(ind_plus / length - 0.5)
        dep_errors = int(np.sum(dep_imbalance <= threshold))
        ind_errors = int(np.sum(ind_imbalance > threshold))
        bound = 0.5 * math.exp(-2.0 * length * dep_margin * dep_margin) + math.exp(
            -2.0 * length * threshold * threshold
        )
        rows.append(
            DecayRow(
                run_length=length,
                error_rate=(dep_errors + ind_errors) / (2 * trials),
                dependent_error_rate=dep_errors / trials,
                independent_error_rate=ind_errors / trials,
                chernoff_bound=bound,
            )
        )
    return rows


# Demo grids: a state is (label, axiom letters), each axiom signed +1, and a
# basis is (label, observable letters).  Single-qubit inputs/bases are the three
# Pauli eigenbases; the two-qubit demo measures the shared eigenbasis of ZZ and
# XX (the entangled one), the local z basis, and the mixed z/x product basis.
Q1_STATES = (("z+", ("Z",)), ("x+", ("X",)), ("y+", ("Y",)))
Q1_BASES = (("z", ("Z",)), ("x", ("X",)), ("y", ("Y",)))
Q2_STATES = (("phi+", ("ZZ", "XX")),)
Q2_BASES = (
    ("b_E", ("ZZ", "XX")),
    ("b_F", ("ZI", "IZ")),
    ("b_D", ("ZI", "IX")),
)


def record_rows(state_label: str, basis_label: str, record: RunRecord) -> List[FrequencyRow]:
    """One row per outcome of the record's observables, all 2^m of them, in
    the order of ``itertools.product((1, -1), repeat=m)``."""
    m = len(record.observables)
    rows = []
    for signs, label in zip(
        itertools.product((1, -1), repeat=m), itertools.product("+-", repeat=m)
    ):
        count = record.counts.get(signs, 0)
        rows.append(
            FrequencyRow(
                state=state_label,
                basis=basis_label,
                outcome_label="".join(label),
                count=count,
                frequency=round(count / record.n_runs, 6),
            )
        )
    return rows


def _grid(states, bases, cfg: BlackBoxConfig, n_runs: int, seed: int, noise) -> list:
    """Every cell of a demo grid, state by state: the evolved state i is
    sampled in basis k from substream ``len(bases) * i + k``."""
    rows: List[FrequencyRow] = []
    for i, (state_label, axiom_letters) in enumerate(states):
        prepared = StabilizerTableau.from_text("\n".join(axiom_letters))
        evolved = stab.apply_blackbox(prepared, cfg)
        for k, (basis_label, letters) in enumerate(bases):
            record = sample(
                evolved,
                [pauli.parse_observable(s) for s in letters],
                n_runs,
                seed,
                noise,
                substream=len(bases) * i + k,
            )
            rows.extend(record_rows(state_label, basis_label, record))
    return rows


def reproduce_q1(
    cfg: BlackBoxConfig,
    n_runs: int,
    seed: int,
    noise: Optional[NoiseModel] = None,
) -> List[FrequencyRow]:
    """Single-qubit grid: three input eigenstates, each measured in all three
    Pauli bases after the black box.  Exactly the diagonal cells are definite."""
    if cfg.n != 1:
        raise ValueError(f"q1 demo needs a single-function config, got {cfg.n}")
    return _grid(Q1_STATES, Q1_BASES, cfg, n_runs, seed, noise)


def reproduce_q2(
    cfg: BlackBoxConfig,
    n_runs: int,
    seed: int,
    noise: Optional[NoiseModel] = None,
) -> List[FrequencyRow]:
    """Bell-state grid: the ZZ/XX joint eigenstate measured in the entangled
    basis (definite), the local z basis (half the outcomes vanish), and the
    mixed z/x basis (all four outcomes uniform)."""
    if cfg.n != 2:
        raise ValueError(f"q2 demo needs a two-function config, got {cfg.n}")
    return _grid(Q2_STATES, Q2_BASES, cfg, n_runs, seed, noise)


def render_frequency_csv(rows: Sequence[FrequencyRow], comment: str) -> str:
    """CSV with a leading '#' parameter comment and a header row."""
    out = [f"# {comment}", "state,basis,outcome_label,count,frequency"]
    for r in rows:
        out.append(
            f"{r.state},{r.basis},{r.outcome_label},{r.count},{r.frequency:.6f}"
        )
    return "".join(line + "\n" for line in out)


def render_decay_tsv(rows: Sequence[DecayRow], comment: str) -> str:
    out = [
        f"# {comment}",
        "run_length\terror_rate\tdependent_error_rate\t"
        "independent_error_rate\tchernoff_bound",
    ]
    for r in rows:
        out.append(
            f"{r.run_length}\t{r.error_rate:.6f}\t{r.dependent_error_rate:.6f}\t"
            f"{r.independent_error_rate:.6f}\t{r.chernoff_bound:.6e}"
        )
    return "".join(line + "\n" for line in out)
