"""The tests' GF(2) reference itself: its elimination and span membership
against brute force over every combination of the rows, and its symplectic
form against the commutation of dense Pauli matrices."""
import itertools

import numpy as np
import pytest

from axiombox.pauli import PauliOperator

import gf2_reference as ref
from dense_reference import term_matrix


def brute_span(rows):
    """{vector: the set of coefficient masks whose rows XOR to it}, over all
    2^len(rows) combinations."""
    span = {}
    for picks in itertools.product((0, 1), repeat=len(rows)):
        v = 0
        for bit, row in zip(picks, rows):
            if bit:
                v ^= row
        span.setdefault(v, set()).add(sum(bit << i for i, bit in enumerate(picks)))
    return span


def row_sets(width):
    """Every row list of up to four rows (width 2) or three rows (width 4),
    zero and repeated rows included, then for width 4 every set of four or
    five distinct rows."""
    masks = range(2 ** width)
    for count in range(5 if width == 2 else 4):
        yield from itertools.product(masks, repeat=count)
    if width == 4:
        for count in (4, 5):
            yield from itertools.combinations(masks, count)


@pytest.mark.parametrize("width", [2, 4])
def test_span_membership_and_coefficients_equal_brute_force(width):
    for rows in map(list, row_sets(width)):
        span = brute_span(rows)
        pivots = ref.gauss_jordan(rows)
        assert 2 ** ref.rank(rows) == len(span)
        cols = [col for col, _, _ in pivots]
        assert cols == sorted(set(cols))
        for col, row, combo in pivots:
            assert row & -row == 1 << col
            assert not any(row >> c & 1 for c in cols if c != col)
            assert combo in span[row]
        for v in range(2 ** width):
            coeffs = ref.span_coefficients(v, rows)
            if v in span:
                assert coeffs in span[v], (rows, v)
                assert ref.combine(rows, coeffs) == v
            else:
                assert coeffs is None, (rows, v)


@pytest.mark.parametrize("n", [1, 2])
def test_symplectic_form_is_dense_commutation(n):
    matrices = [term_matrix(PauliOperator._from_mask(m, n)) for m in range(4 ** n)]
    for a, ma in enumerate(matrices):
        for b, mb in enumerate(matrices):
            commute = np.array_equal(ma @ mb, mb @ ma)
            assert ref.symplectic(a, b, n) == (0 if commute else 1)
