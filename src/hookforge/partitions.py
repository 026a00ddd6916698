"""Partition shapes: cells, hooks, contents, corners, and the hook-length
counting formula.

Diagrams use the English (matrix) convention with 1-based cells, so the cell
in row i and column j has content j - i.  "Outer corners" are the positions
where a cell may be added (there are d of them) and "inner corners" are the
removable cells of hook length 1 (there are d - 1, interlacing the outer
corners by content).  Note that some of the literature swaps these two terms.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cache
from operator import add
from typing import Iterator, NamedTuple

from . import _records


class Cell(NamedTuple):
    row: int
    col: int


def content(c: Cell) -> int:
    """Diagonal content col - row."""
    return c.col - c.row


class _PartitionFields(NamedTuple):
    parts: tuple[int, ...] = ()


class Partition(_records.Validated, _PartitionFields):
    """Weakly decreasing positive parts; the empty tuple is the shape of 0.

    An immutable named tuple, validated on construction."""

    __slots__ = ()

    def __new__(cls, parts: tuple[int, ...] = ()):
        prev = None
        for p in parts:
            if not isinstance(p, int) or p < 1:
                raise ValueError(f"parts must be positive integers: {parts}")
            if prev is not None and p > prev:
                raise ValueError(f"parts must be weakly decreasing: {parts}")
            prev = p
        return tuple.__new__(cls, (parts,))

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def rows(self) -> int:
        return len(self.parts)

    def conjugate(self) -> "Partition":
        return Partition(_conjugate_parts(self.parts))

    def cells(self) -> Iterator[Cell]:
        for r, length in enumerate(self.parts, start=1):
            for c in range(1, length + 1):
                yield Cell(r, c)

    def contains(self, cell: Cell) -> bool:
        return 1 <= cell.row <= len(self.parts) and 1 <= cell.col <= self.parts[cell.row - 1]

    def serialize(self) -> str:
        return ",".join(str(p) for p in self.parts) if self.parts else "-"

    @classmethod
    def parse(cls, text: str) -> "Partition":
        text = text.strip()
        if text in ("-", ""):
            return cls(())
        return cls(tuple(int(p) for p in text.split(",")))

    def __str__(self):
        return self.serialize()


@cache
def _conjugate_parts(parts: tuple[int, ...]) -> tuple[int, ...]:
    if not parts:
        return ()
    out = [0] * parts[0]
    for p in parts:
        for j in range(p):
            out[j] += 1
    return tuple(out)


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n in reverse-lexicographic order, (n) first."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return [Partition(())]
    out = []
    parts = [n]
    while True:
        out.append(Partition(tuple(parts)))
        # rightmost part exceeding 1 shrinks; the tail is repacked greedily
        i = len(parts) - 1
        while i >= 0 and parts[i] == 1:
            i -= 1
        if i < 0:
            return out
        rest = len(parts) - i
        parts[i] -= 1
        del parts[i + 1 :]
        while rest > 0:
            nxt = min(parts[-1], rest)
            parts.append(nxt)
            rest -= nxt


def hook_length(lam: Partition, cell: Cell) -> int:
    """Arm + leg + 1 of a cell inside the shape."""
    if not lam.contains(cell):
        raise ValueError(f"cell {tuple(cell)} outside shape {lam}")
    arm = lam.parts[cell.row - 1] - cell.col
    leg = _conjugate_parts(lam.parts)[cell.col - 1] - cell.row
    return arm + leg + 1


def hooks(lam: Partition) -> list[int]:
    """Hook lengths of every cell, row by row."""
    conj = _conjugate_parts(lam.parts)
    return [
        length - c + conj[c - 1] - r + 1
        for r, length in enumerate(lam.parts, start=1)
        for c in range(1, length + 1)
    ]


def hook_census(n: int) -> dict[bytes, int]:
    """Each sorted hook multiset of the shapes of n, as an n-byte key (byte i
    the (i+1)-th smallest hook), mapped to its number of shapes, in sorted
    key order.  A shape and its conjugate share one key, so any summand that
    depends only on the hooks, such as f-lambda or a hook-weight product, is
    computed once per key instead of once per shape.  The shapes come from
    `_hooked_shapes`, which builds each one once per process by adding a
    first row, so a sweep over n shares them.  Every hook must fit in a
    byte, so n is at most 255.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > 255:
        raise ValueError("hook_census needs n <= 255: each hook is stored in one byte")
    census = Counter(sorted_hooks for _, sorted_hooks in _hooked_shapes(n))
    return dict(sorted(census.items()))


_PLUS_ONE = bytes(range(1, 256)) + b"\0"  # byte c -> c + 1, for c < 255


@cache
def _hooked_shapes(n: int) -> list[tuple[bytes, bytes]]:
    """(conjugate, sorted hooks) of every shape of n, both as bytes.

    A shape of n is a first row of length k on top of a shape of n - k whose
    first row, the length of its conjugate c, is at most k.  The rows below
    keep their hooks, the new row's cell j (0-based) has hook k - j + c[j]
    with c padded by zeros to length k, and the new conjugate is c[j] + 1.
    """
    if n == 0:
        return [(b"", b"")]
    out = []
    for k in range(1, n + 1):
        arms = range(k, 0, -1)  # k - j
        for conj, tail_hooks in _hooked_shapes(n - k):
            if len(conj) <= k:
                col = conj + bytes(k - len(conj))
                row = bytes(map(add, arms, col))
                out.append((col.translate(_PLUS_ONE), bytes(sorted(tail_hooks + row))))
    return out


def hook_quotient(n: int, hook_lengths) -> int:
    """n! divided by the product of the hook lengths, asserted exact."""
    prod = 1
    for h in hook_lengths:
        prod *= h
    quot, rem = divmod(math.factorial(n), prod)
    if rem:
        raise ArithmeticError(f"hook product does not divide {n}!")
    return quot


def f_lambda(lam: Partition) -> int:
    """Number of standard fillings: n! divided by the product of all hooks."""
    return hook_quotient(lam.n, hooks(lam))


class CornerProfile(NamedTuple):
    """Outer and inner corner cells with their contents, both ordered by
    strictly decreasing content (top-right to bottom-left).

    The contents strictly interlace: x_1 > y_1 > x_2 > ... > y_{d-1} > x_d.
    """

    outer_cells: tuple[Cell, ...]
    inner_cells: tuple[Cell, ...]
    outer_contents: tuple[int, ...]
    inner_contents: tuple[int, ...]


def addable_cells(lam: Partition) -> list[Cell]:
    """Positions where a cell may be added, by decreasing content."""
    out = []
    for r, length in enumerate(lam.parts, start=1):
        if r == 1 or length < lam.parts[r - 2]:
            out.append(Cell(r, length + 1))
    out.append(Cell(len(lam.parts) + 1, 1))
    return out


def removable_cells(lam: Partition) -> list[Cell]:
    """Cells of hook length 1, by decreasing content."""
    out = []
    for r, length in enumerate(lam.parts, start=1):
        below = lam.parts[r] if r < len(lam.parts) else 0
        if length > below:
            out.append(Cell(r, length))
    return out


def corner_profile(lam: Partition) -> CornerProfile:
    outer = tuple(addable_cells(lam))
    inner = tuple(removable_cells(lam))
    return CornerProfile(
        outer_cells=outer,
        inner_cells=inner,
        outer_contents=tuple(content(c) for c in outer),
        inner_contents=tuple(content(c) for c in inner),
    )


def add_cell(lam: Partition, cell: Cell) -> Partition:
    if cell not in addable_cells(lam):
        raise ValueError(f"cell {tuple(cell)} is not addable to {lam}")
    parts = list(lam.parts)
    if cell.row == len(parts) + 1:
        parts.append(1)
    else:
        parts[cell.row - 1] += 1
    return Partition(tuple(parts))


def remove_cell(lam: Partition, cell: Cell) -> Partition:
    if cell not in removable_cells(lam):
        raise ValueError(f"cell {tuple(cell)} is not removable from {lam}")
    parts = list(lam.parts)
    parts[cell.row - 1] -= 1
    if parts and parts[-1] == 0:
        parts.pop()
    return Partition(tuple(parts))
