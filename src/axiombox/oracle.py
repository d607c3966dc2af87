"""Brute-force dense simulator: ground truth for the tableau machinery.

States are plain complex vectors of 2^N amplitudes.  A Pauli operator acts on
them as a signed permutation of the computational basis, ``P|c> = f_c |c ^ x>``
with f_c one of +-1, +-i: one application costs O(2^N).  A state costs
O(N 2^N), its support read off its diagonal stabilizers with no search, and
a joint distribution of m observables about 2^r m 2^N for r independent
outcomes: its walk carries a vector unchanged past every observable it is an
exact eigenvector of, and builds and halves two branches only where both are
nonzero.  Every product is an exact +-1 or +-i times a double, so a
disagreement with the exact tableau path is always a real bug, never
numerical noise.
"""
from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .gf2 import _commute_pairwise
from .pauli import PauliOperator, SignedObservable, from_proposition
from .stabilizer import OutcomeDistribution

DENSE_CAP = 12  # 2^12 amplitudes; verification scale, not performance

DenseState = np.ndarray

_POWERS_OF_I = np.array([1, 1j, -1, -1j])


def _check_cap(n_qubits: int) -> None:
    if n_qubits > DENSE_CAP:
        raise ValueError(f"{n_qubits} qubits exceeds the dense cap of {DENSE_CAP}")


def _signed_permutation(p: PauliOperator) -> tuple:
    """``(perm, factors)`` with ``P|c> = factors[c] |perm[c]>``.

    ``P = i^phase * prod_j sx^{x_j} sz^{z_j}`` with qubit 1 the most significant
    bit of the basis index c, so with x, z bit-reversed into index order,
    ``P|c> = i^phase * (-1)^{|c & z|} |c ^ x>``.  A signed observable is
    passed as it is: its sign is part of its phase.
    """
    n = p.n_qubits
    _check_cap(n)
    x, z = (int(format(v.mask, f"0{n}b")[::-1], 2) for v in (p.x, p.z))
    c, parity_signs = _parity_table(n)
    factors = parity_signs[c & z] * _POWERS_OF_I[p.phase]
    return c ^ x, factors


@functools.lru_cache(maxsize=DENSE_CAP)
def _parity_table(n: int) -> tuple:
    """``(c, signs)``: the 2^n basis indices c and signs[c] = (-1)^popcount(c),
    built once per n and read-only (numpy 1.24 has no ``bitwise_count``)."""
    signs = np.ones(1, dtype=int)
    for _ in range(n):
        signs = np.concatenate([signs, -signs])  # the upper half has one more set bit
    c = np.arange(2 ** n)
    c.flags.writeable = signs.flags.writeable = False
    return c, signs


def state_from_axioms(axioms) -> DenseState:
    """Normalized joint eigenstate of the signed axiom observables.

    ``axioms`` is any prepared tableau (an AxiomSet included) or a plain
    list of (vector, sign) pairs.  The axioms must commute and fix
    exactly one state.  Commuting Pauli projectors fix a space of dimension
    0 when their signs clash and 2^(N - rank) otherwise, the rank taken over
    GF(2).  The space's support in the computational basis is where every
    diagonal (Z-type) product of the signed axioms is +1, and a clash is a
    product that is -1 everywhere.  One elimination of the (x|z) masks,
    x-part leading, gives the rank and those products: the rows whose x-part
    reduces to zero.  The projector ``prod_p (1 + sign_p * Omega_p)/2``,
    factors in reverse axiom order, then acts on the least basis vector in
    the support alone, at O(N 2^N).
    """
    if hasattr(axioms, "generators"):
        pairs = [(g.vector, g.sign) for g in axioms.generators]
    else:
        pairs = list(axioms)
    if not pairs:
        raise ValueError("empty axiom list")
    if len({len(vector) for vector, _ in pairs}) != 1:
        raise ValueError("axiom vectors have inconsistent lengths")
    n = len(pairs[0][0]) // 2
    _check_cap(n)
    if any(sign not in (1, -1) for _, sign in pairs):
        raise ValueError("axiom signs must be +1 or -1")
    # from_proposition rejects odd lengths
    observables = [SignedObservable(from_proposition(v), s) for v, s in pairs]
    masks = [vector.mask for vector, _ in pairs]
    if not _commute_pairwise(masks, n):
        raise ValueError("axioms not co-measurable")
    actions = [_signed_permutation(o) for o in observables]
    size, low = 2 ** n, (1 << n) - 1
    rows, support = [], np.ones(size, dtype=bool)
    for i, mask in enumerate(masks):
        key, combo = (mask & low) << n | mask >> n, 1 << i
        for b_key, b_combo in rows:  # each kept key has a leading bit no later one has
            if key ^ b_key < key:
                key, combo = key ^ b_key, combo ^ b_combo
        if key:
            rows.append((key, combo))
        if key >> n == 0:  # the axioms in combo multiply to a diagonal
            index, diagonal = np.arange(size), np.ones(size, dtype=complex)
            for j, (perm, factors) in enumerate(actions):
                if combo >> j & 1:
                    diagonal *= factors[index]
                    index = perm[index]
            support &= diagonal == 1
    hits = np.flatnonzero(support)
    dimension = 2 ** (n - len(rows)) if len(hits) else 0
    if dimension != 1:
        raise ValueError(f"axioms fix a space of dimension {dimension}, not 1")
    column = np.zeros(size, dtype=complex)
    column[hits[0]] = 1
    for perm, factors in reversed(actions):  # column <- (1 + Omega) column / 2
        applied = (column * factors)[perm]  # perm is an XOR, its own inverse
        applied += column
        applied *= 0.5  # exactly /2, and far cheaper on complex arrays
        column = applied
    return column / np.linalg.norm(column)


def distribution(
    state: DenseState, obs_list: Sequence[SignedObservable]
) -> OutcomeDistribution:
    """Probability of each sign-vector via projector arithmetic.

    P(s) = || prod_i (1 + s_i * Theta_i)/2 |psi> ||^2, walked depth first
    over the observables, +1 before -1.  At each node the walk forms
    vec - Theta vec.  If it is exactly zero, vec is a +1 eigenvector, so
    (vec + Theta vec)/2 equals vec, and vec itself goes on to the next
    observable.  A zero vec + Theta vec likewise means a -1 eigenvector.  Only
    when both are nonzero are both halved and walked.  So only the 2^r
    outcomes that occur are reached, a node costs one signed permutation and
    one or two sums, and leaves of probability at most 1e-15 are dropped.
    """
    state = np.asarray(state, dtype=complex)
    size = len(state) if state.ndim == 1 else 0
    if size < 2 or size & (size - 1):
        raise ValueError(f"a state needs 2^N >= 2 amplitudes, got shape {state.shape}")
    n = size.bit_length() - 1
    for obs in obs_list:
        if obs.n_qubits != n:
            raise ValueError(f"size mismatch: {obs.n_qubits} vs {n} qubits")
    if not _commute_pairwise([o.vector.mask for o in obs_list], n):
        raise ValueError("not co-measurable")
    actions = [_signed_permutation(o) for o in obs_list]
    outcomes = {}

    def walk(vec: np.ndarray, index: int, signs: tuple):
        while index < len(actions):
            perm, factors = actions[index]
            applied = (factors * vec)[perm]  # perm is an XOR, its own inverse
            minus = vec - applied
            if np.count_nonzero(minus):
                plus = vec + applied
                if np.count_nonzero(plus):  # both outcomes occur: halve and walk both
                    plus *= 0.5
                    minus *= 0.5
                    walk(plus, index + 1, signs + (1,))
                    walk(minus, index + 1, signs + (-1,))
                    return
                signs += (-1,)  # vec is a -1 eigenvector: (vec - applied) / 2 == vec
            else:
                signs += (1,)  # vec is a +1 eigenvector: (vec + applied) / 2 == vec
            index += 1
        prob = float(np.real(np.vdot(vec, vec)))
        if prob > 1e-15:
            outcomes[signs] = prob  # each sign tuple ends one walk path

    walk(state, 0, ())
    return OutcomeDistribution(outcomes, len(obs_list))
