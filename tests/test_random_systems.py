"""Random axiom systems and commuting observable lists against a frozen copy
of the generators that re-eliminated the symplectic complement after every
accepted vector.

``frozen_random_axioms`` and ``frozen_random_commuting_observables`` rebuild
the complement basis from scratch with a nullspace elimination each time;
the library restricts one basis in place.  Both must draw the same vectors
and signs from the same stream and leave the generator at the same position.
"""
import pytest

from axiombox import stabilizer as stab
from axiombox.experiment import philox_rng

import gf2_reference as ref


def frozen_nullspace(rows, num_cols):
    """Basis of ``{v : parity(row & v) == 0 for every row}``: left-to-right
    pivots, the first remaining row wins, one vector per free column in
    ascending order, back-substituted in reverse pivot order."""
    work, pivots = list(rows), []
    for col in range(num_cols):
        hit = next((k for k in range(len(pivots), len(work)) if work[k] >> col & 1), None)
        if hit is None:
            continue
        done = len(pivots)
        work[done], work[hit] = work[hit], work[done]
        for k in range(len(work)):
            if k != done and work[k] >> col & 1:
                work[k] ^= work[done]
        pivots.append((col, work[done]))
    pivot_cols = {col for col, _ in pivots}
    basis = []
    for free in (c for c in range(num_cols) if c not in pivot_cols):
        mask = 1 << free
        for col, row in reversed(pivots):
            if (row & mask).bit_count() & 1:
                mask ^= 1 << col
        basis.append(mask)
    return basis


def frozen_complement(vectors, n):
    swapped = [(v >> n) | ((v & ((1 << n) - 1)) << n) for v in vectors]
    return frozen_nullspace(swapped, 2 * n)


def frozen_orthogonal(complement, rng):
    mask = 0
    if complement:
        for bit, b in zip(rng.integers(0, 2, size=len(complement)), complement):
            if bit:
                mask ^= b
    return mask


def frozen_sign(rng):
    return 1 if rng.integers(0, 2) == 0 else -1


def frozen_random_axioms(n, rng):
    vectors = []
    complement = frozen_complement(vectors, n)
    while len(vectors) < n:
        candidate = frozen_orthogonal(complement, rng)
        if any(ref.symplectic(candidate, c, n) for c in complement):
            vectors.append(candidate)
            complement = frozen_complement(vectors, n)
    return [(v, frozen_sign(rng)) for v in vectors]


def frozen_random_commuting_observables(n, count, rng):
    vectors = []
    while len(vectors) < count:
        vectors.append(frozen_orthogonal(frozen_complement(vectors, n), rng))
    return [(v, frozen_sign(rng)) for v in vectors]


def seeds_for(n):
    return range(3) if n <= 16 else range(1)


AXIOM_CASES = [(n, seed) for n in range(1, 65) for seed in seeds_for(n)]


@pytest.mark.parametrize("n, seed", AXIOM_CASES)
def test_random_axioms_match_the_frozen_generator(n, seed):
    rng, frozen_rng = philox_rng(n, seed), philox_rng(n, seed)
    got = [(v.mask, s) for v, s in stab.random_axioms(n, rng)]
    assert got == frozen_random_axioms(n, frozen_rng)
    assert rng.random() == frozen_rng.random()  # same stream position


OBSERVABLE_CASES = [
    (n, count)
    for n in list(range(1, 13)) + [16, 24]
    for count in sorted({0, 1, n, 2 * n + 2, 3 * n + 2})
] + [(32, 98), (64, 194)]


@pytest.mark.parametrize("n, count", OBSERVABLE_CASES)
def test_random_commuting_observables_match_the_frozen_generator(n, count):
    rng, frozen_rng = philox_rng(n, 1000 + count), philox_rng(n, 1000 + count)
    got = [(o.vector.mask, o.sign) for o in stab.random_commuting_observables(n, count, rng)]
    assert got == frozen_random_commuting_observables(n, count, frozen_rng)
    assert rng.random() == frozen_rng.random()


@pytest.mark.parametrize("n", [0, -1])
def test_random_axioms_rejects_fewer_than_one_qubit(n):
    with pytest.raises(ValueError, match="at least one qubit"):
        stab.random_axioms(n, philox_rng(1))


@pytest.mark.parametrize("n, count", [(0, 2), (-1, 1), (2, -3)])
def test_random_commuting_observables_rejects_bad_sizes(n, count):
    with pytest.raises(ValueError, match="at least one qubit and count >= 0"):
        stab.random_commuting_observables(n, count, philox_rng(1))
