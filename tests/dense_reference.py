"""Dense Pauli matrices as textbook Kronecker products of 2x2 matrices, the
tests' reference for the dense oracle's signed permutations.

Qubit 1 is the leftmost tensor factor, as in :mod:`axiombox.pauli`.
"""
import numpy as np

# The single-qubit factor of each (x, z) exponent pair.
_BARE = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),  # X
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),  # Z
    (1, 1): np.array([[0, -1], [1, 0]], dtype=complex),  # X*Z
}
_CANONICAL = {**_BARE, (1, 1): np.array([[0, -1j], [1j, 0]], dtype=complex)}  # Y = i*X*Z


def _kron(factors):
    m = np.ones((1, 1), dtype=complex)
    for factor in factors:
        m = np.kron(m, factor)
    return m


def term_matrix(p):
    """``i^phase * prod_j X_j^{x_j} Z_j^{z_j}`` of a Pauli operator; a signed
    observable's phase carries its sign."""
    return (1j ** p.phase) * _kron(_BARE[xz] for xz in zip(p.x, p.z))


def observable_matrix(obs):
    """``sign * prod_j P_j`` of a signed observable, P_j one of I, X, Y, Z."""
    return float(obs.sign) * _kron(_CANONICAL[xz] for xz in zip(obs.base.x, obs.base.z))


def permutation_matrix(perm, factors):
    """The dense matrix M with ``M|c> = factors[c] |perm[c]>``."""
    m = np.zeros((len(perm), len(perm)), dtype=complex)
    m[perm, np.arange(len(perm))] = factors
    return m
