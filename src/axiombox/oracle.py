"""Brute-force dense simulator: ground truth for the tableau machinery.

States are plain complex vectors of 2^N amplitudes.  A Pauli operator acts on
them as a signed permutation of the computational basis, ``P|c> = f_c |c ^ x>``
with f_c one of +-1, +-i: one application costs O(2^N).  A state costs
O(N 2^N) per basis vector scanned, and a joint distribution of m observables
about 2^r m 2^N for r independent outcomes, since a branch of its walk stops
as soon as its vector is exactly zero.  Every product is an exact +-1 or +-i
times a double, so a disagreement with the exact tableau path is always a
real bug, never numerical noise.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .gf2 import _commute_pairwise
from .pauli import PauliOperator, SignedObservable, from_proposition
from .stabilizer import OutcomeDistribution

DENSE_CAP = 12  # 2^12 amplitudes; verification scale, not performance

DenseState = np.ndarray
DenseOperator = np.ndarray

_POWERS_OF_I = np.array([1, 1j, -1, -1j])
_MAX_BLOCK = 64  # basis vectors projected at once by state_from_axioms


def _check_cap(n_qubits: int) -> None:
    if n_qubits > DENSE_CAP:
        raise ValueError(f"{n_qubits} qubits exceeds the dense cap of {DENSE_CAP}")


def _signed_permutation(p: PauliOperator, sign: int = 1) -> tuple:
    """``(perm, factors)`` with ``sign * P|c> = factors[c] |perm[c]>``.

    ``P = i^phase * prod_j sx^{x_j} sz^{z_j}`` with qubit 1 the most significant
    bit of the basis index c, so with x, z bit-reversed into index order,
    ``P|c> = i^phase * (-1)^{|c & z|} |c ^ x>``.
    """
    n = p.n_qubits
    _check_cap(n)
    x, z = (int(format(v.mask, f"0{n}b")[::-1], 2) for v in (p.x, p.z))
    c = np.arange(2 ** n)
    parity = c & z
    shift = 1
    while shift < n:  # fold: bit 0 ends up the parity of bits 0 .. 2*shift-1
        parity ^= parity >> shift
        shift *= 2
    factors = np.where(parity & 1, -1, 1) * (sign * _POWERS_OF_I[p.phase])
    return c ^ x, factors


def pauli_term_matrix(p: PauliOperator) -> DenseOperator:
    """Dense matrix of ``i^phase * prod_j sx^{x_j} sz^{z_j}``."""
    perm, factors = _signed_permutation(p)
    m = np.zeros((len(perm), len(perm)), dtype=complex)
    m[perm, np.arange(len(perm))] = factors
    return m


def pauli_matrix(obs: SignedObservable) -> DenseOperator:
    """Dense matrix of a signed observable (its canonical base times the sign)."""
    return obs.sign * pauli_term_matrix(obs.base)


def _rank(masks: Sequence[int]) -> int:
    """GF(2) rank of int masks: each kept mask has a leading bit that every
    later kept mask lacks, so ``min(m, m ^ b)`` clears that bit when set."""
    basis = []
    for mask in masks:
        for b in basis:
            mask = min(mask, mask ^ b)
        if mask:
            basis.append(mask)
    return len(basis)


def state_from_axioms(axioms) -> DenseState:
    """Normalized joint eigenstate of the signed axiom observables.

    ``axioms`` is anything with ``generator_pairs()`` (an AxiomSet) or a
    plain list of (vector, sign) pairs.  Applies the projector
    ``prod_p (1 + sign_p * Omega_p)/2`` to computational basis vectors in
    order, in blocks of 1, 2, 4, ... up to 64, until one survives: the
    factors act in reverse axiom order, each on a whole block as a signed
    permutation, so a scanned basis vector costs O(N 2^N).  The axioms must
    commute and fix exactly one state.  Commuting Pauli projectors fix a
    space of dimension 0 when their signs clash (then no basis vector
    survives; every amplitude is an exact dyadic, so a zero is exact) and
    2^(N - rank) otherwise, the rank taken over GF(2).
    """
    pairs = axioms.generator_pairs() if hasattr(axioms, "generator_pairs") else list(axioms)
    if not pairs:
        raise ValueError("empty axiom list")
    if len({len(vector) for vector, _ in pairs}) != 1:
        raise ValueError("axiom vectors have inconsistent lengths")
    n = len(pairs[0][0]) // 2
    _check_cap(n)
    if any(sign not in (1, -1) for _, sign in pairs):
        raise ValueError("axiom signs must be +1 or -1")
    bases = [from_proposition(vector).base for vector, _ in pairs]  # rejects odd lengths
    masks = [vector.mask for vector, _ in pairs]
    if not _commute_pairwise(masks, n):
        raise ValueError("axioms not co-measurable")
    actions = [_signed_permutation(b, sign) for b, (_, sign) in zip(bases, pairs)][::-1]
    size = 2 ** n
    start, block, column = 0, 1, None
    while column is None and start < size:
        stop = min(start + block, size)
        rows = np.zeros((stop - start, size), dtype=complex)
        rows[np.arange(stop - start), np.arange(start, stop)] = 1
        for perm, factors in actions:  # row r <- (1 + Omega) r / 2
            applied = (rows * factors)[:, perm]  # perm is an XOR, its own inverse
            applied += rows
            applied *= 0.5  # exactly /2, and far cheaper on complex arrays
            rows = applied
        column = next((r for r in rows if np.linalg.norm(r) > 1e-9), None)
        start, block = stop, min(2 * block, _MAX_BLOCK)
    dimension = 0 if column is None else 2 ** (n - _rank(masks))
    if dimension != 1:
        raise ValueError(f"axioms fix a space of dimension {dimension}, not 1")
    return column / np.linalg.norm(column)


def distribution(
    state: DenseState, obs_list: Sequence[SignedObservable]
) -> OutcomeDistribution:
    """Probability of each sign-vector via projector arithmetic.

    P(s) = || prod_i (1 + s_i * Theta_i)/2 |psi> ||^2, walked depth first
    over the observables.  A branch whose vector is exactly zero stays zero,
    so the walk cuts it there: only the 2^r outcomes that occur are reached.
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
    actions = [_signed_permutation(o.base, o.sign) for o in obs_list]
    outcomes = {}

    def walk(vec: np.ndarray, index: int, signs: tuple):
        if not vec.any():
            return
        if index == len(actions):
            prob = float(np.real(np.vdot(vec, vec)))
            if prob > 1e-15:
                outcomes[signs] = outcomes.get(signs, 0.0) + prob
            return
        perm, factors = actions[index]
        applied = (factors * vec)[perm]  # perm is an XOR, its own inverse
        walk((vec + applied) * 0.5, index + 1, signs + (1,))
        walk((vec - applied) * 0.5, index + 1, signs + (-1,))

    walk(state, 0, ())
    return OutcomeDistribution(outcomes, len(obs_list))
