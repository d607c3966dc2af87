"""Seeded inputs and exact references for the benchmark, on plain int masks.

Nothing here calls axiombox.  A 2N-bit mask uses the library's layout: bits
0..N-1 are the x part and bits N..2N-1 the z part.  Axiom systems come from
random symplectic transvections of the standard symplectic basis, so the
inputs stay the same whatever the library's own random streams do.
"""
from __future__ import annotations

import random
from dataclasses import dataclass


def job_rng(workload: str, seed: int, index: int) -> random.Random:
    """Independent, reproducible stream for one job of one workload."""
    return random.Random(f"{workload}:{seed}:{index}")


def sp(a: int, b: int, n: int) -> int:
    """Symplectic product of two 2n-bit masks (0 when the Paulis commute)."""
    low = (1 << n) - 1
    return ((a & (b >> n) & low).bit_count() + ((a >> n) & b & low).bit_count()) & 1


def parity(mask: int) -> int:
    return mask.bit_count() & 1


def echelon(rows: list) -> list:
    """Reduced rows as (pivot bit, row, combination of input rows)."""
    basis = []
    for i, row in enumerate(rows):
        combo = 1 << i
        for pivot, brow, bcombo in basis:
            if row & pivot:
                row ^= brow
                combo ^= bcombo
        if row:
            pivot = row & -row
            for k, (p, brow, bcombo) in enumerate(basis):
                if brow & pivot:
                    basis[k] = (p, brow ^ row, bcombo ^ combo)
            basis.append((pivot, row, combo))
    return basis


def rank(rows: list) -> int:
    return len(echelon(rows))


def span_combo(v: int, rows: list):
    """Mask of the rows that XOR to v (rows independent), or None."""
    combo = 0
    for pivot, brow, bcombo in echelon(rows):
        if v & pivot:
            v ^= brow
            combo ^= bcombo
    return None if v else combo


def product_phase_bit(masks: list, n: int):
    """(v, c) with prod_k C(masks[k]) == (-1)^c C(v), C the Hermitian
    canonical Pauli i^{|x&z|} X^x Z^z of a mask; the masks must commute."""
    low = (1 << n) - 1
    x = z = 0
    e = 0  # exponent of i
    for m in masks:
        mx, mz = m & low, m >> n
        e += (mx & mz).bit_count() + 2 * (z & mx).bit_count()
        x ^= mx
        z ^= mz
    delta = (e - (x & z).bit_count()) % 4
    if delta % 2:
        raise ValueError("product of anticommuting masks is not Hermitian")
    return x | (z << n), delta // 2


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class System:
    """N commuting, independent signed generators plus their symplectic
    partners: sp(destab[p], stab[q]) == (p == q)."""

    n: int
    stab: tuple
    destab: tuple
    signs: tuple

    def sign_product(self, combo: int) -> int:
        s = 1
        for p in bits(combo):
            s *= self.signs[p]
        return s

    def deterministic_outcome(self, combo: int, sign: int) -> int:
        """Outcome of sign * C(prod of stab[p], p in combo) on this state."""
        _, c = product_phase_bit([self.stab[p] for p in bits(combo)], self.n)
        return sign * (-1) ** c * self.sign_product(combo)


def random_system(rng: random.Random, n: int) -> System:
    """Z-basis generators and X-basis partners moved by 2n random
    symplectic transvections v -> v + sp(v, h) h."""
    vecs = [1 << (n + i) for i in range(n)] + [1 << i for i in range(n)]
    for _ in range(2 * n):
        h = rng.getrandbits(2 * n) or 1
        vecs = [v ^ h if sp(v, h, n) else v for v in vecs]
    signs = tuple(rng.choice((1, -1)) for _ in range(n))
    return System(n, tuple(vecs[:n]), tuple(vecs[n:]), signs)


def random_config(rng: random.Random, n: int) -> tuple:
    """Black-box function labels 0..3, one per qubit."""
    return tuple(rng.randrange(4) for _ in range(n))


def config_truth(labels: tuple, v: int, n: int) -> int:
    """Parity the black box writes for vector v: z.f(0) + x.f(1)."""
    f0 = sum(((k >> 1) & 1) << j for j, k in enumerate(labels))
    f1 = sum((k & 1) << j for j, k in enumerate(labels))
    low = (1 << n) - 1
    return parity((v >> n) & f0) ^ parity(v & low & f1)


@dataclass(frozen=True)
class Observables:
    """m pairwise-commuting signed observables on a System.

    r of them are primaries: each carries one destabilizer, so they raise the
    rank by r (rank(S + O) - N == r) and their outcomes are free.  Every other
    observable is a product of primaries (mask ``prim``, over observable
    indices) and of the generators that no primary touches (mask ``gens``),
    so its outcome is fixed by theirs.  A primary has ``prim == 1 << i``.
    """

    vectors: tuple
    signs: tuple
    prim: tuple
    gens: tuple
    r: int

    def implied_outcome(self, system: System, i: int, outcomes) -> int:
        """Outcome of observable i forced by the state and ``outcomes`` of
        the primaries it is built from."""
        masks = [self.vectors[k] for k in bits(self.prim[i])]
        masks += [system.stab[q] for q in bits(self.gens[i])]
        v, c = product_phase_bit(masks, system.n)
        if v != self.vectors[i]:
            raise ValueError(f"observable {i} is not the product it records")
        s = self.signs[i] * (-1) ** c * system.sign_product(self.gens[i])
        for k in bits(self.prim[i]):
            s *= outcomes[k] * self.signs[k]
        return s


def commuting_observables(
    rng: random.Random, system: System, m: int, r: int
) -> Observables:
    """m commuting observables with rank growth r, in random order."""
    n = system.n
    if not 0 <= r <= min(m, n):
        raise ValueError(f"rank growth {r} impossible for m={m}, n={n}")
    fresh = rng.sample(range(n), r)
    rest = [p for p in range(n) if p not in fresh]

    def rest_combo() -> int:
        return sum(1 << p for p in rest if rng.getrandbits(1))

    def stab_product(combo: int) -> int:
        v = 0
        for q in bits(combo):
            v ^= system.stab[q]
        return v

    primaries = []
    for p in fresh:  # times its own generator or not; either way all commute
        own = system.stab[p] if rng.getrandbits(1) else 0
        primaries.append(system.destab[p] ^ own ^ stab_product(rest_combo()))
    entries = [(v, 1 << k, 0) for k, v in enumerate(primaries)]
    while len(entries) < m:
        prim = rng.getrandbits(r)
        gens = rest_combo()
        v = stab_product(gens)
        for k in bits(prim):
            v ^= primaries[k]
        if v:
            entries.append((v, prim, gens))
    order = list(range(m))
    rng.shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    vectors, prims, gens_masks = [], [], []
    for old in order:
        v, prim, gens = entries[old]
        vectors.append(v)
        prims.append(sum(1 << where[k] for k in bits(prim)))
        gens_masks.append(gens)
    signs = tuple(rng.choice((1, -1)) for _ in range(m))
    return Observables(tuple(vectors), signs, tuple(prims), tuple(gens_masks), r)
