"""Textbook GF(2) linear algebra over int masks, the tests' reference.

Bit j of a mask is entry j.  A 2n-bit mask is an (x|z) vector: bits
0..n-1 are the x exponents and bits n..2n-1 the z exponents.  That layout
is all this module shares with :mod:`axiombox.gf2`; it imports nothing
from the package, so a test that compares the package with it does not
check an elimination against itself.
"""


def gauss_jordan(rows):
    """Gauss-Jordan elimination of the row masks, one column at a time.

    Each row carries its combination of original rows, a mask with bit i
    for row i.  Pivot columns go left to right; in each, the first
    remaining row with the bit set is swapped into place and cleared from
    every other row.  Returns ``(pivot_col, row, combo)`` in pivot order:
    each row is zero at every other pivot column, and the rows of the
    original list named by ``combo`` XOR to it.
    """
    work = [[row, 1 << i] for i, row in enumerate(rows)]
    cols = []
    for col in range(max(rows, default=0).bit_length()):
        done = len(cols)
        hit = next((i for i in range(done, len(work)) if work[i][0] >> col & 1), None)
        if hit is None:
            continue
        work[done], work[hit] = work[hit], work[done]
        pivot, combo = work[done]
        for i, (row, _) in enumerate(work):
            if i != done and row >> col & 1:
                work[i][0] ^= pivot
                work[i][1] ^= combo
        cols.append(col)
    return [(col, *work[i]) for i, col in enumerate(cols)]


def rank(rows):
    return len(gauss_jordan(rows))


def reduce(mask, pivots):
    """``(residue, combo)`` of ``mask`` against ``(pivot_col, row, combo)``
    triples in pivot order, each row zero at the pivot columns before its
    own: each pivot row whose column is set in ``mask`` by then is XORed
    out, and its combination into ``combo``.  Residue 0 means ``mask`` is
    in the span of the rows."""
    combo = 0
    for col, row, row_combo in pivots:
        if mask >> col & 1:
            mask ^= row
            combo ^= row_combo
    return mask, combo


def span_coefficients(mask, rows):
    """A mask k with the XOR of ``rows[i]`` over the set bits i of k equal
    to ``mask``, or None when ``mask`` is not in the span of ``rows``."""
    residue, combo = reduce(mask, gauss_jordan(rows))
    return None if residue else combo


def combine(rows, coefficients):
    """The XOR of ``rows[i]`` over the set bits i of ``coefficients``."""
    out = 0
    for i, row in enumerate(rows):
        if coefficients >> i & 1:
            out ^= row
    return out


def symplectic(a, b, n):
    """sum_j (x_a,j z_b,j + z_a,j x_b,j) mod 2 of two 2n-bit (x|z) masks,
    each sum a count of the qubits where both factors are 1: 0 when their
    Pauli operators commute."""
    low = (1 << n) - 1
    xa, za, xb, zb = a & low, a >> n, b & low, b >> n
    return (bin(xa & zb).count("1") + bin(za & xb).count("1")) % 2
