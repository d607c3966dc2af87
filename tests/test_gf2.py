"""Exact GF(2) linear algebra: vectors, ranks, the elimination and the
symplectic form, checked against the textbook reference in ``gf2_reference``."""
import functools
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axiombox import stabilizer as stab
from axiombox.experiment import philox_rng
from axiombox.gf2 import (
    BitMatrix,
    BitVector,
    _echelon,
    _pairing_transpose,
    rank,
    symplectic_product,
)

import gf2_reference as ref

# The three-qubit product-observable axiom vectors (YYX, YXY, XYY) in
# (x-part | z-part) layout; reused across the suite.
GHZ_AXIOM_ROWS = ["111110", "111101", "111011"]


# Frozen references: the library transposes only through _pairing_transpose.
def transpose(matrix):
    """The transpose as a double loop over the bits."""
    cols = []
    for j in range(matrix.num_cols):
        mask = 0
        for i, rm in enumerate(matrix.row_masks):
            mask |= ((rm >> j) & 1) << i
        cols.append(BitVector.from_mask(mask, matrix.num_rows))
    return BitMatrix(cols, num_cols=matrix.num_rows)


def swap_halves(v):
    """Exchange the x- and z-parts, so that ``u . swap_halves(v)`` (dot =
    parity of AND) equals ``symplectic_product(u, v)``."""
    n = len(v) // 2
    return BitVector.from_mask((v.mask & ((1 << n) - 1)) << n | v.mask >> n, 2 * n)


@st.composite
def bit_matrices(draw, max_rows=12, max_cols=12):
    n_rows = draw(st.integers(1, max_rows))
    n_cols = draw(st.integers(1, max_cols))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=n_cols, max_size=n_cols),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    return BitMatrix(rows)


class TestBitVector:
    def test_construction_and_indexing(self):
        v = BitVector([1, 0, 1, 1])
        assert len(v) == 4
        assert v[0] == 1 and v[1] == 0 and v[3] == 1
        assert v.to_tuple() == (1, 0, 1, 1)
        assert v.weight() == 3
        assert v.parity() == 1

    def test_string_construction(self):
        assert BitVector("0110") == BitVector([0, 1, 1, 0])

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BitVector([0, 2, 1])

    @pytest.mark.parametrize(
        "bits", [[1.7, 0.5, -0.5], [0.5], ["1", "0"], ["1"], [0, "0"], "012", "0 1", [None]]
    )
    def test_rejects_entries_before_truncating_them(self, bits):
        with pytest.raises(ValueError, match="bit entries must be 0 or 1"):
            BitVector(bits)

    def test_accepts_bools_and_numpy_ints(self):
        want = BitVector.from_mask(0b101, 3)
        assert BitVector([True, False, True]) == want
        assert BitVector(np.array([1, 0, 1], dtype=np.uint8)) == want
        assert BitVector([np.int64(1), np.int8(0), np.bool_(True)]) == want
        assert BitVector("101") == want
        assert type(BitVector([True]).mask) is int

    def test_xor_and_length_check(self):
        a = BitVector("1100")
        b = BitVector("1010")
        assert (a ^ b) == BitVector("0110")
        with pytest.raises(ValueError):
            a ^ BitVector("10")

    def test_unit(self):
        assert BitVector.unit(2, 4) == BitVector("0010")

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: BitVector.from_mask(-1, 4), "mask -0x1 does not fit in 4 bits"),
            (lambda: BitVector.from_mask(16, 4), "mask 0x10 does not fit in 4 bits"),
            (lambda: BitVector.unit(4, 4), "index 4 out of range for length 4"),
            (lambda: BitVector.unit(-1, 4), "index -1 out of range for length 4"),
        ],
    )
    def test_out_of_range_build_rejected(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    @pytest.mark.parametrize("index", [2, -1])
    def test_index_out_of_range(self, index):
        with pytest.raises(IndexError):
            BitVector("01")[index]

    def test_copy_hash_and_repr(self):
        v = BitVector("0110")
        assert BitVector(v) == v == BitVector.from_mask(0b0110, 4)
        assert hash(BitVector(v)) == hash(v)
        assert len({v, BitVector("0110"), BitVector("011"), BitVector("0111")}) == 3
        assert repr(v) == "BitVector('0110')"


class TestBitMatrix:
    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="^ragged rows: expected 2 columns, got 3$"):
            BitMatrix(["01", "011"])

    def test_no_rows_have_no_columns(self):
        m = BitMatrix([])
        assert (m.num_rows, m.num_cols) == (0, 0)

    @pytest.mark.parametrize("value", [BitVector("01"), BitMatrix(["01"])])
    def test_unequal_to_a_foreign_type(self, value):
        assert value != "01" and not value == (0, 1)


class TestRank:
    def test_identity(self):
        assert rank(BitMatrix(["10", "01"])) == 2

    def test_duplicate_rows(self):
        assert rank(BitMatrix(["11", "11"])) == 1

    def test_three_qubit_axiom_matrix(self):
        assert rank(BitMatrix(GHZ_AXIOM_ROWS)) == 3

    def test_empty(self):
        assert rank(BitMatrix([], num_cols=5)) == 0
        assert rank(BitMatrix([], num_cols=0)) == 0

    @settings(max_examples=150, deadline=None)
    @given(bit_matrices())
    def test_rank_equals_transpose_rank(self, m):
        assert rank(m) == rank(transpose(m)) == ref.rank(list(m.row_masks))


def echelon_solve(mask, rows):
    """Coefficients of ``mask`` over ``rows`` read off ``_echelon``'s pivots
    by the reference's reduction, or None when it is not in their span."""
    residue, combo = ref.reduce(mask, _echelon(rows))
    return None if residue else combo


def rows_of(*texts):
    return [BitVector(t).mask for t in texts]


class TestInSpan:
    """Span membership and coefficients read off ``_echelon``'s pivots."""

    def test_zero_vector(self):
        assert echelon_solve(0, rows_of("101", "011")) == 0

    def test_single_axiom_independence(self):
        # x proposition against a z axiom: not in span.
        assert echelon_solve(BitVector("10").mask, rows_of("01")) is None

    def test_three_qubit_derived_proposition(self):
        assert echelon_solve(BitVector("111000").mask, rows_of(*GHZ_AXIOM_ROWS)) == 0b111

    @settings(max_examples=150, deadline=None)
    @given(bit_matrices(), st.data())
    def test_coefficients_recombine(self, basis, data):
        rows = list(basis.row_masks)
        picks = data.draw(st.integers(0, 2 ** len(rows) - 1))
        target = ref.combine(rows, picks)
        coeffs = echelon_solve(target, rows)
        assert coeffs is not None
        assert ref.combine(rows, coeffs) == target
        assert coeffs == ref.span_coefficients(target, rows)

    @settings(max_examples=150, deadline=None)
    @given(bit_matrices(), st.data())
    def test_absent_means_absent(self, basis, data):
        rows = list(basis.row_masks)
        mask = data.draw(st.integers(0, 2 ** basis.num_cols - 1))
        if len(rows) <= 10:
            brute = any(ref.combine(rows, picks) == mask for picks in range(2 ** len(rows)))
            assert (echelon_solve(mask, rows) is not None) == brute

    def test_unique_for_independent_basis(self):
        rows = rows_of(*GHZ_AXIOM_ROWS)
        for picks in range(8):
            assert echelon_solve(ref.combine(rows, picks), rows) == picks


class TestSymplecticProduct:
    def test_self_product_vanishes(self):
        for mask in range(16):
            v = BitVector.from_mask(mask, 4)
            assert symplectic_product(v, v) == 0

    def test_anticommuting_pair(self):
        assert symplectic_product(BitVector("10"), BitVector("01")) == 1

    def test_commuting_pair(self):
        assert symplectic_product(BitVector("1100"), BitVector("0011")) == 0

    def test_errors(self):
        with pytest.raises(ValueError):
            symplectic_product(BitVector("101"), BitVector("101"))
        with pytest.raises(ValueError):
            symplectic_product(BitVector("10"), BitVector("1011"))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_symmetric(self, n):
        dim = 2 * n
        for a in range(2 ** dim):
            va = BitVector.from_mask(a, dim)
            for b in range(2 ** dim):
                vb = BitVector.from_mask(b, dim)
                assert symplectic_product(va, vb) == symplectic_product(vb, va)
                assert symplectic_product(va, vb) == ref.symplectic(a, b, n)

    @pytest.mark.parametrize("n", [1, 2])
    def test_bilinear(self, n):
        dim = 2 * n
        vecs = [BitVector.from_mask(m, dim) for m in range(2 ** dim)]
        for va in vecs:
            for vb in vecs:
                for vc in vecs:
                    assert symplectic_product(va ^ vb, vc) == (
                        symplectic_product(va, vc) ^ symplectic_product(vb, vc)
                    )

    def test_swap_halves_realizes_the_form(self):
        for a in range(64):
            va = BitVector.from_mask(a, 6)
            for b in range(0, 64, 7):
                vb = BitVector.from_mask(b, 6)
                assert (va & swap_halves(vb)).parity() == symplectic_product(va, vb)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 33, 64, 65, 128])
    def test_pairing_transpose_is_the_swapped_transpose(self, n):
        rng = random.Random(n)
        masks = [rng.getrandbits(2 * n) for _ in range(rng.randint(1, 2 * n))]
        masks[rng.randrange(len(masks))] = 0
        masks.insert(rng.randint(0, len(masks)), 1 << (2 * n - 1))
        vectors = [BitVector.from_mask(m, 2 * n) for m in masks]
        want = transpose(BitMatrix([swap_halves(v) for v in vectors]))
        assert _pairing_transpose(masks, n) == list(want.row_masks)
        for j, row in enumerate(_pairing_transpose(masks, n)):
            assert [row >> q & 1 for q in range(len(masks))] == [
                ref.symplectic(1 << j, m, n) for m in masks
            ]

    @pytest.mark.parametrize("n", [1, 3, 64])
    def test_pairing_transpose_of_no_masks_is_2n_zero_rows(self, n):
        assert _pairing_transpose([], n) == [0] * (2 * n)


class TestIsotropicBases:
    def test_span_membership_implies_orthogonality(self):
        import numpy as np
        from axiombox.stabilizer import random_axioms

        rng = np.random.default_rng(2024)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            rows = [v.mask for v, _ in random_axioms(n, rng)]
            for mask in range(2 ** (2 * n)):
                if ref.span_coefficients(mask, rows) is not None:
                    assert all(ref.symplectic(mask, row, n) == 0 for row in rows)


# Frozen references: the elimination as it stood before its rows were packed
# with their combinations and fully reduced.
def frozen_echelon(rows):
    """Forward elimination on (row, combo) pairs; each pivot row is returned
    as it was when its pivot was taken."""
    work = [(m, 1 << i) for i, m in enumerate(rows)]
    pivots = []
    done = 0
    for col in range(max(rows, default=0).bit_length()):
        hit = next(
            (k for k in range(done, len(work)) if (work[k][0] >> col) & 1), None
        )
        if hit is None:
            continue
        work[done], work[hit] = work[hit], work[done]
        pm, pc = work[done]
        for k in range(len(work)):
            if k != done and (work[k][0] >> col) & 1:
                work[k] = (work[k][0] ^ pm, work[k][1] ^ pc)
        pivots.append((col, pm, pc))
        done += 1
        if done == len(work):
            break
    return pivots


def random_rows(rng, max_rows=40, max_width=130):
    """0-max_rows rows of width 1-max_width, sparse or dense, with zero,
    repeated and XOR-dependent rows mixed in."""
    width = rng.randint(1, max_width)
    density = rng.choice([0.02, 0.1, 0.5, 0.9])
    rows = []
    for _ in range(rng.randint(0, max_rows)):
        kind = rng.random()
        if kind < 0.05:
            rows.append(0)
        elif rows and kind < 0.15:
            rows.append(rng.choice(rows))
        elif len(rows) > 1 and kind < 0.3:
            picks = rng.sample(rows, rng.randint(2, len(rows)))
            rows.append(functools.reduce(operator.xor, picks))
        else:
            rows.append(sum(1 << j for j in range(width) if rng.random() < density))
    return width, rows


class TestEchelonMatchesFrozen:
    @pytest.mark.parametrize("chunk", range(8))
    def test_random_row_lists(self, chunk):
        rng = random.Random(1400 + chunk)
        for _ in range(250):
            width, rows = random_rows(rng)
            got, want = _echelon(rows), frozen_echelon(rows)
            assert [c for c, _, _ in got] == [c for c, _, _ in want]
            cols = {c for c, _, _ in got}
            for col, row, combo in got:
                assert row & -row == 1 << col
                assert not any(row >> c & 1 for c in cols - {col})
                assert row == functools.reduce(
                    operator.xor, (m for i, m in enumerate(rows) if combo >> i & 1), 0
                )
            spanned = [
                functools.reduce(operator.xor, rng.sample(rows, k), 0)
                for k in range(min(len(rows), 10))
            ]
            noise = [rng.getrandbits(width) for _ in range(10)]
            for v in spanned + noise:
                assert ref.reduce(v, got) == ref.reduce(v, want)


@pytest.mark.parametrize("n", [*range(1, 9), 17, 63, 64, 65, 128, 256])
def test_destabilizers_match_frozen_reduction(n):
    """Each destabilizer read off its pivot equals the reduction of e_p
    against the frozen elimination of the transposed pairing matrix."""
    axioms = stab.random_axioms(n, philox_rng(n, 1400))
    pivots = frozen_echelon(_pairing_transpose([v.mask for v, _ in axioms], n))
    destabs = [d.mask for d in stab.prepare(axioms).destabilizers]
    assert destabs == [ref.reduce(1 << p, pivots)[1] for p in range(n)]


# Frozen reference: the packed elimination as it stood before it was blocked,
# one pass over all rows per pivot column.
def frozen_packed_echelon(rows):
    width = max(rows, default=0).bit_length()
    work = [m | 1 << (width + i) for i, m in enumerate(rows)]
    cols = []
    for col in range(width):
        bit, done = 1 << col, len(cols)
        hit = next((k for k in range(done, len(work)) if work[k] & bit), None)
        if hit is None:
            continue
        pivot, work[hit] = work[hit], work[done]
        work = [w ^ pivot if w & bit else w for w in work]
        work[done] = pivot
        cols.append(col)
        if done + 1 == len(work):
            break
    return [(col, w & ~(-1 << width), w >> width) for col, w in zip(cols, work)]


def large_row_lists(chunk):
    """25 row lists of up to 300 rows and widths up to 300.  About a third
    have independent rows (distinct lowest set bits), so every row becomes a
    pivot; the rest come from :func:`random_rows`, with dependent rows."""
    rng = random.Random(2000 + chunk)
    for _ in range(25):
        if rng.random() < 0.3:
            width = rng.randint(1, 300)
            lows = rng.sample(range(width), rng.randint(1, width))
            yield [1 << j | rng.getrandbits(width) >> j + 1 << j + 1 for j in lows]
        else:
            yield random_rows(rng, max_rows=300, max_width=300)[1]


class TestEchelonMatchesFrozenPacked:
    """The blocked elimination returns the column-by-column loop's triples."""

    @pytest.mark.parametrize("chunk", range(6))
    def test_random_row_lists(self, chunk):
        for rows in large_row_lists(chunk):
            assert _echelon(rows) == frozen_packed_echelon(rows)

    def test_row_lists_cover_every_block_size(self):
        """Row counts in every octave up to 256-511 (so every block size the
        row-count rule picks up to 7; the pairing matrices at n=256 give 8),
        full-rank lists and rank-deficient ones."""
        lists = [rows for chunk in range(6) for rows in large_row_lists(chunk)]
        assert {len(rows).bit_length() for rows in lists} >= set(range(1, 10))
        ranks = [(len(_echelon(rows)), len(rows)) for rows in lists]
        assert any(r == size > 0 for r, size in ranks)
        assert any(r < size for r, size in ranks)

    @pytest.mark.parametrize("n", [16, 64, 128, 256])
    def test_pairing_matrices(self, n):
        axioms = stab.random_axioms(n, philox_rng(n, 2000))
        rows = _pairing_transpose([v.mask for v, _ in axioms], n)
        assert _echelon(rows) == frozen_packed_echelon(rows)

    @pytest.mark.parametrize("n", [16, 64, 128, 256])
    def test_generator_matrices(self, n):
        """The N x 2N generator matrix that ``check_invariants`` eliminates."""
        gens = list(stab.prepare(stab.random_axioms(n, philox_rng(n, 2001)))._gens)
        assert _echelon(gens) == frozen_packed_echelon(gens)


class TestEchelonMatchesReference:
    """``_echelon`` against the textbook elimination of ``gf2_reference``: the
    same rank, pivot columns, reduced rows and combinations.  16, 40, 300 and
    600 rows give the blocked elimination blocks of 1, 4, 7 and 8 columns."""

    @pytest.mark.parametrize("size", [16, 40, 300, 600])
    def test_row_counts(self, size):
        rng = random.Random(3100 + size)
        for width in (size // 2, size, 2 * size):  # rank-deficient, square, wide
            for sparse in (False, True):
                rows = [rng.getrandbits(width) for _ in range(size)]
                if sparse:  # about one bit in eight, so pivots skip columns
                    rows = [r & rng.getrandbits(width) & rng.getrandbits(width) for r in rows]
                rows[1] = rows[0] ^ rows[-1]
                got, want = _echelon(rows), ref.gauss_jordan(rows)
                assert len(got) == len(want) < size
                assert [c for c, _, _ in got] == [c for c, _, _ in want]
                assert got == want
                for _, row, combo in got:
                    assert ref.combine(rows, combo) == row
