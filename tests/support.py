"""Test-only helpers that no `hookforge verify` unit reaches.

`cycle_stats` counts an involution's fixed points and 2-cycles directly from
its images; the tests use it as the oracle for the fixed-point histogram of
`hookforge.involutions`.  `mp_const` is the constant polynomial of the
packed-monomial kernel in `hookforge._multipoly`.  `reverse_row_insert_oracle`
and `forward_row_insert_oracle` run the row insertions on Yamanouchi words
one word at a time, with one bytes search per bump; the tests use them as the
oracles of the byte-column kernels in `hookforge.tableaux`.
"""

from dataclasses import dataclass
from typing import Sequence

from hookforge._multipoly import MPoly
from hookforge.involutions import Involution
from hookforge.partitions import Cell
from hookforge.tableaux import MAX_ROWS


@dataclass(frozen=True)
class CycleStats:
    """Fixed-point and 2-cycle counts; alpha1 + 2*alpha2 = n."""

    alpha1: int
    alpha2: int


def cycle_stats(inv: Involution) -> CycleStats:
    fixed = sum(1 for i, img in enumerate(inv.images, start=1) if img == i)
    return CycleStats(alpha1=fixed, alpha2=(inv.n - fixed) // 2)


def mp_const(nvars: int, value: int) -> MPoly:
    if value == 0:
        return {}
    return {0: value}


def reverse_row_insert_oracle(
    words: Sequence[bytes], cell: Cell
) -> tuple[list[bytes], list[int]]:
    """`hookforge.tableaux.reverse_row_insert_words` one word at a time: the
    per-word loop that the byte-column kernel replaced, kept as its oracle.

    Returns the reduced words and the ejected letters as parallel lists.  In
    a word, the mover displaces the last entry of the row above that precedes
    it, and deleting the ejected letter's byte is the relabelling.  Every
    word is checked on its own: the cell must be one of its corners, and each
    row above must hold an entry below the mover.
    """
    r, c = cell
    if not 1 <= r <= MAX_ROWS:
        raise ValueError(f"cell {tuple(cell)} is not a removable corner")
    above = range(r - 1, 0, -1)
    reduced: list[bytes] = []
    letters: list[int] = []
    for word in words:
        if not 1 <= c == word.count(r) or (r < MAX_ROWS and word.count(r + 1) >= c):
            raise ValueError(f"cell {tuple(cell)} is not a removable corner")
        out = bytearray(word)
        moving = out.rfind(r)  # the corner holds the largest entry of its row
        for row in above:
            x = out.rfind(row, 0, moving)
            if x < 0:
                raise ValueError(
                    f"not a lattice word: row {row} has no entry below {moving + 1}"
                )
            out[moving] = row
            moving = x
        del out[moving]
        reduced.append(bytes(out))
        letters.append(moving + 1)
    return reduced, letters


def forward_row_insert_oracle(
    words: Sequence[bytes], values: Sequence[int]
) -> tuple[list[bytes], list[tuple[int, int]]]:
    """`hookforge.tableaux.forward_row_insert_words` one word at a time: the
    per-word loop that the byte-column kernel replaced, kept as its oracle.

    Returns the grown words and the new cells, as (row, col) tuples, in
    parallel lists.  Inserting a placeholder byte at value-1 shifts the
    larger entries up by one; in each row the mover displaces the first
    entry that follows it.
    """
    row_numbers = range(1, MAX_ROWS + 1)
    grown: list[bytes] = []
    cells: list[tuple[int, int]] = []
    for word, value in zip(words, values, strict=True):
        if not 1 <= value <= len(word) + 1:
            raise ValueError(f"insertion value must lie in 1..{len(word) + 1}")
        out = bytearray(word)
        out.insert(value - 1, 0)
        moving = value - 1
        for row in row_numbers:
            x = out.find(row, moving + 1)
            out[moving] = row
            if x < 0:
                break
            moving = x
        else:
            raise ValueError(
                f"insertion needs row {MAX_ROWS + 1}: a row number takes one byte, "
                f"so at most {MAX_ROWS} rows"
            )
        grown.append(bytes(out))
        cells.append((row, out.count(row)))
    return grown, cells
