"""Brute-force dense simulator: ground truth for the tableau machinery.

States are plain complex vectors of 2^N amplitudes.  A Pauli operator acts on
them as a signed permutation of the computational basis, ``P|c> = f_c |c ^ x>``
with f_c one of +-1, +-i: one application costs O(2^N), a state O(N 4^N).
Every product is an exact +-1 or +-i times a double, so a disagreement with
the exact tableau path is always a real bug, never numerical noise.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .gf2 import _commute_pairwise
from .pauli import PauliOperator, SignedObservable, from_proposition
from .stabilizer import OutcomeDistribution

DENSE_CAP = 10  # 2^10 amplitudes; verification scale, not performance

DenseState = np.ndarray
DenseOperator = np.ndarray

_POWERS_OF_I = np.array([1, 1j, -1, -1j])


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
    odd = np.zeros(2 ** n, dtype=bool)
    for b in range(n):
        if z >> b & 1:
            odd ^= (c >> b & 1).astype(bool)
    factors = np.where(odd, -1, 1) * (sign * _POWERS_OF_I[p.phase])
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


def state_from_axioms(axioms) -> DenseState:
    """Normalized joint eigenstate of the signed axiom observables.

    ``axioms`` is anything with ``generator_pairs()`` (an AxiomSet) or a
    plain list of (vector, sign) pairs.  Applies the projector
    ``prod_p (1 + sign_p * Omega_p)/2`` to computational basis vectors in
    order until one survives.  Right-multiplying by ``Omega_p`` permutes and
    scales the columns, so each factor costs O(4^N); the projector is kept
    transposed, so that a column is a contiguous row.  The axioms must commute
    and fix exactly one state: the product of commuting projectors is a
    projector, its trace is its rank, and every entry is an exact dyadic, so
    the trace must be exactly 1.
    """
    pairs = axioms.generator_pairs() if hasattr(axioms, "generator_pairs") else list(axioms)
    if not pairs:
        raise ValueError("empty axiom list")
    n = len(pairs[0][0]) // 2
    _check_cap(n)
    if any(sign not in (1, -1) for _, sign in pairs):
        raise ValueError("axiom signs must be +1 or -1")
    if not _commute_pairwise([vector.mask for vector, _ in pairs], n):
        raise ValueError("axioms not co-measurable")
    columns = np.eye(2 ** n, dtype=complex)
    for vector, sign in pairs:
        perm, factors = _signed_permutation(from_proposition(vector).base, sign)
        applied = columns[perm]
        applied *= factors[:, None]
        applied += columns
        applied *= 0.5  # exactly /2, and far cheaper on complex arrays
        columns = applied
    rank = np.trace(columns)
    if rank != 1:
        raise ValueError(f"axioms fix a space of dimension {rank.real:g}, not 1")
    column = next(c for c in columns if np.linalg.norm(c) > 1e-9)
    return column / np.linalg.norm(column)


def distribution(
    state: DenseState, obs_list: Sequence[SignedObservable]
) -> OutcomeDistribution:
    """Probability of each sign-vector via projector arithmetic.

    P(s) = || prod_i (1 + s_i * Theta_i)/2 |psi> ||^2.
    """
    n = len(state).bit_length() - 1
    for obs in obs_list:
        if obs.n_qubits != n:
            raise ValueError(f"size mismatch: {obs.n_qubits} vs {n} qubits")
    if not _commute_pairwise([o.vector.mask for o in obs_list], n):
        raise ValueError("not co-measurable")
    actions = [_signed_permutation(o.base, o.sign) for o in obs_list]
    outcomes = {}

    def walk(vec: np.ndarray, index: int, signs: tuple):
        if index == len(actions):
            prob = float(np.real(np.vdot(vec, vec)))
            if prob > 1e-15:
                outcomes[signs] = outcomes.get(signs, 0.0) + prob
            return
        perm, factors = actions[index]
        applied = (factors * vec)[perm]  # perm is an XOR, its own inverse
        walk((vec + applied) * 0.5, index + 1, signs + (1,))
        walk((vec - applied) * 0.5, index + 1, signs + (-1,))

    walk(np.asarray(state, dtype=complex), 0, ())
    return OutcomeDistribution(outcomes, len(obs_list))
