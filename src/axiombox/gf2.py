"""Bit-exact linear algebra over GF(2).

Vectors pack their bits into a single Python integer (bit ``j`` of the mask
is entry ``j``), so XOR/AND of whole vectors run word-parallel in C no matter
the length.  Vectors are immutable and hashable; all arithmetic is exact,
with no floating point anywhere.  The one elimination, ``_echelon``,
works on one int per row, the row's combination of original rows packed
above its bits, and returns fully reduced pivot rows: each is zero at every
other pivot column, so a pivot row of a full-rank square system is a unit
vector and its combination solves for it.  It is blocked by the "Four
Russians" method: each row takes in the pivots of a block of up to 8 columns
with one lookup in the table of their combinations, with the same output as
eliminating one column at a time.  The transposed pairing matrix that
``prepare`` eliminates is read from one string of all the masks' bits, one
strided slice per column.  The one symplectic test, which decides whether
two Paulis commute, swaps one mask's halves (``_swap_halves``) and takes the
parity of its AND with the other.

Whether a vector lies in the span of others is not asked here:
:func:`axiombox.logic.classify` reads it off a prepared tableau.
``BitMatrix`` (its shape and row masks only), ``rank`` and
``symplectic_product`` serve no other module and are not re-exported by the
package; they stay because the benchmark harness's own tests
(``perfbench/tests``) check its generated axioms with them.

Symplectic layout convention, shared by every module in this package: a
vector of even length ``2N`` is split as ``(x-part | z-part)`` with qubit
index ascending, i.e. bits ``0..N-1`` are the x exponents and bits ``N..2N-1``
the z exponents.  Tableaus, Pauli operators and propositions all carry such
packed int masks whole; only this module, :mod:`axiombox.pauli`,
:func:`axiombox.blackbox._parity`, :func:`axiombox.stabilizer._scan`'s product
loop and :func:`axiombox.oracle.state_from_axioms` (which shares only the
commutation check with the exact core) read the two halves apart.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Union

BitsLike = Union["BitVector", Iterable[int], str]
_CHAR_BITS = {"0": 0, "1": 1}  # the characters a str argument may hold


class BitVector:
    """Immutable vector over GF(2) with a fixed length."""

    __slots__ = ("_mask", "_length")

    def __init__(self, bits: BitsLike):
        if isinstance(bits, BitVector):
            mask, length = bits._mask, bits._length
        else:
            if isinstance(bits, str):
                bits = [_CHAR_BITS.get(c, c) for c in bits]
            mask = 0
            length = 0
            for b in bits:
                if b not in (0, 1):  # before int(), which truncates
                    raise ValueError(f"bit entries must be 0 or 1, got {b!r}")
                mask |= int(b) << length
                length += 1
        self._mask = mask
        self._length = length

    @classmethod
    def from_mask(cls, mask: int, length: int) -> "BitVector":
        """Build a vector from a packed integer mask of ``length`` bits."""
        if mask < 0 or mask >> length:
            raise ValueError(f"mask {mask:#x} does not fit in {length} bits")
        v = cls.__new__(cls)
        v._mask = mask
        v._length = length
        return v

    @classmethod
    def zeros(cls, length: int) -> "BitVector":
        return cls.from_mask(0, length)

    @classmethod
    def unit(cls, index: int, length: int) -> "BitVector":
        """Standard basis vector e_index."""
        if not 0 <= index < length:
            raise ValueError(f"index {index} out of range for length {length}")
        return cls.from_mask(1 << index, length)

    @property
    def mask(self) -> int:
        return self._mask

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int) -> int:
        if not 0 <= index < self._length:
            raise IndexError(index)
        return (self._mask >> index) & 1

    def __iter__(self) -> Iterator[int]:
        m = self._mask
        for _ in range(self._length):
            yield m & 1
            m >>= 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        self._check_same_length(other)
        return BitVector.from_mask(self._mask ^ other._mask, self._length)

    def __and__(self, other: "BitVector") -> "BitVector":
        self._check_same_length(other)
        return BitVector.from_mask(self._mask & other._mask, self._length)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self._mask == other._mask and self._length == other._length

    def __hash__(self) -> int:
        return hash((self._mask, self._length))

    def __repr__(self) -> str:
        return f"BitVector('{''.join(str(b) for b in self)}')"

    def weight(self) -> int:
        """Hamming weight (number of set bits)."""
        return self._mask.bit_count()

    def parity(self) -> int:
        return self._mask.bit_count() & 1

    def to_tuple(self) -> tuple:
        return tuple(self)

    def _check_same_length(self, other: "BitVector") -> None:
        if self._length != other._length:
            raise ValueError(
                f"length mismatch: {self._length} vs {other._length}"
            )


class BitMatrix:
    """Immutable rectangular matrix over GF(2), stored as packed row masks."""

    __slots__ = ("_rows", "_num_cols")

    def __init__(self, rows: Iterable[BitsLike], num_cols: Optional[int] = None):
        packed = []
        for r in rows:
            v = r if isinstance(r, BitVector) else BitVector(r)
            if num_cols is None:
                num_cols = len(v)
            elif len(v) != num_cols:
                raise ValueError(
                    f"ragged rows: expected {num_cols} columns, got {len(v)}"
                )
            packed.append(v.mask)
        if num_cols is None:
            num_cols = 0
        self._rows = tuple(packed)
        self._num_cols = num_cols

    @property
    def num_rows(self) -> int:
        return len(self._rows)

    @property
    def num_cols(self) -> int:
        return self._num_cols

    @property
    def row_masks(self) -> tuple:
        return self._rows


def _echelon(rows: Sequence[int]) -> list:
    """Gauss-Jordan elimination of the row masks with combination tracking.

    Row i is worked on as one int ``rows[i] | 1 << (w + i)``, w the rows'
    bit width, so one XOR updates a row and the combination in its high bits.
    Pivots are chosen left-to-right; within a column the first remaining
    nonzero row wins, is swapped into place and every other row is
    eliminated, so the result (and every coefficient vector derived from it)
    is deterministic.

    The elimination is blocked by the "Four Russians" method (M4RI; Albrecht,
    Bard & Hart, arXiv:0811.1714).  A block runs from a pivot column over at
    most k columns, and rows are updated only when it ends.  The pivot search
    within it stays serial: a candidate's bit at a column is read as it would
    be after the block's earlier pivots were eliminated (the parity of the
    row ANDed with one test mask), the first remaining row with the bit set
    is swapped into place as before, and the block's pivot rows are kept
    reduced against each other.  When the block ends, every other row XORs
    in one entry of the table of the 2^k combinations of its pivot rows
    (:func:`_eliminate_block`), indexed by the row's bits in the block's
    columns: one lookup in place of k eliminations.  The output is that of
    the column-by-column loop, because the same rows become pivots with the
    same swaps, and a fully reduced row is the one row of its coset that is
    zero at every other pivot column.  k is about log2 of the row count, at
    most 8 (a 256-entry table); below 32 rows a table saves less than its
    bookkeeping costs, so k is 1 there and each pivot is eliminated at once.

    Returns a list of ``(pivot_col, row_mask, combo_mask)`` in pivot order,
    where ``combo_mask`` names the original rows that XOR to ``row_mask``.
    Each row is fully reduced: zero at every other pivot column, with its
    lowest set bit at its own pivot column.
    """
    width = max(rows, default=0).bit_length()
    work = [m | 1 << (width + i) for i, m in enumerate(rows)]
    size = len(work)
    k = min(8, size.bit_length() - 2)  # columns per block
    if k < 4:
        k = 1
    cols = []
    block = {}  # pivot column -> pivot row, for the open block's pivots
    for col in range(width):
        bit, done = 1 << col, len(cols)
        if not block:
            for hit in range(done, size):
                if work[hit] & bit:
                    break
            else:
                continue
            pivot, work[hit] = work[hit], work[done]
            cols.append(col)
            if k == 1:
                work = [w ^ pivot if w & bit else w for w in work]
                work[done] = pivot
                if done + 1 == size:
                    break
                continue
            block[col] = pivot
            start, done = col, done + 1
        else:
            test = bit  # a row's reduced bit at col is the parity of row & test
            for c, p in block.items():
                if p & bit:
                    test |= 1 << c
            for hit in range(done, size):
                if (work[hit] & test).bit_count() & 1:
                    pivot, work[hit] = work[hit], work[done]
                    for c, p in block.items():
                        if pivot >> c & 1:
                            pivot ^= p
                    for c, p in block.items():
                        if p & bit:
                            block[c] = p ^ pivot
                    block[col] = pivot
                    cols.append(col)
                    done += 1
                    break
        if col + 1 == start + k or done == size or col + 1 == width:
            work = _eliminate_block(work, block, start, col + 1)
            work[done - len(block) : done] = block.values()
            block = {}
            if done == size:
                break
    low = ~(-1 << width)
    return [(col, w & low, w >> width) for col, w in zip(cols, work)]


def _eliminate_block(work: list, block: dict, lo: int, hi: int) -> list:
    """``work`` with each row XORed with the ``block`` pivots (column -> fully
    reduced pivot row) at its set bits in columns lo..hi-1: one lookup in the
    table of their 2^(hi-lo) combinations, indexed by those bits of the row.
    Columns of the window without a pivot add a zero row to the table."""
    table = _span([block.get(c, 0) for c in range(lo, hi)])
    window = ~(-1 << hi)
    return [w ^ table[(w & window) >> lo] for w in work]


def rank(matrix: BitMatrix) -> int:
    """GF(2) row rank.  Empty matrices have rank 0."""
    return len(_echelon(matrix.row_masks))


def _span(rows: Sequence[int]) -> list:
    """All 2^len(rows) XOR combinations of ``rows``, entry k combining the
    rows at the set bits of k: one XOR per entry, by doubling."""
    out = [0]
    for row in rows:
        out += [s ^ row for s in out]
    return out


def symplectic_product(v1: BitVector, v2: BitVector) -> int:
    """Symplectic inner product of two ``(x-part | z-part)`` vectors.

    Returns ``sum_j (x1_j*z2_j + z1_j*x2_j) mod 2``; the result is 0 exactly
    when the Pauli operators carried by the vectors commute.
    """
    if len(v1) != len(v2):
        raise ValueError(f"length mismatch: {len(v1)} vs {len(v2)}")
    if len(v1) % 2:
        raise ValueError(f"symplectic product needs even length, got {len(v1)}")
    n = len(v1) // 2
    return (_swap_halves(v1.mask, n) & v2.mask).bit_count() & 1


def _swap_halves(mask: int, n: int) -> int:
    """The 2n-bit (x|z) mask with its halves swapped, (z|x).  The symplectic
    form of ``mask`` with a 2n-bit mask b, ``sum_j (x_j*z'_j + z_j*x'_j) mod 2``,
    is then ``(_swap_halves(mask, n) & b).bit_count() & 1``: one AND and one
    popcount per row tested against ``mask``.  It is the package's one
    symplectic test."""
    return mask >> n | (mask & ~(-1 << n)) << n


def _commute_pairwise(masks: Sequence[int], n: int) -> bool:
    """True when the 2n-bit (x|z) masks commute pairwise: each mask is
    swapped once (:func:`_swap_halves`) and tested against the masks after it."""
    for i, a in enumerate(masks):
        swapped = _swap_halves(a, n)
        for b in masks[i + 1 :]:
            if (swapped & b).bit_count() & 1:
                return False
    return True


def _pairing_transpose(masks: Sequence[int], n: int) -> list:
    """The 2n rows of the transposed pairing matrix of 2n-bit (x|z) masks:
    bit q of row j is the symplectic form of the unit vector e_j with
    masks[q], which is bit j of masks[q] with its halves swapped.  The masks are written as one string of bits,
    each highest bit first and the last mask first, so bit j of every mask
    is the strided slice ``bits[2n - 1 - j :: 2n]``, read as one int with
    masks[0] at bit 0.  No masks give 2n zero rows."""
    if not masks:
        return [0] * (2 * n)
    step = 2 * n
    bits = "".join([format(m, f"0{step}b") for m in reversed(masks)])
    columns = [int(bits[c::step], 2) for c in range(step - 1, -1, -1)]
    return columns[n:] + columns[:n]
