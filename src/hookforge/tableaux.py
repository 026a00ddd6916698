"""Standard Young tableaux: exhaustive enumeration and the row-insertion
bijection between (tableau, corner) pairs and (smaller tableau, letter) pairs.

Reverse row-insertion starts in a removable corner and bumps upward: in each
row above, the moving entry displaces the largest entry smaller than it, and
the value pushed out of row 1 is the ejected letter.  Forward row-insertion
is the exact inverse.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain

from .partitions import Cell, Partition

Rows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class StandardTableau:
    """Rows of entries forming a bijective filling of a partition shape by
    1..n, strictly increasing along rows and down columns."""

    rows: Rows = ()

    def __post_init__(self):
        rows = self.rows
        n = sum(map(len, rows))
        if sorted(chain.from_iterable(rows)) != list(range(1, n + 1)):
            raise ValueError(f"entries must be a bijection onto 1..{n}")
        if any(a >= b for row in rows for a, b in zip(row, row[1:])):
            raise ValueError("rows must strictly increase")
        if any(a >= b for up, down in zip(rows, rows[1:]) for a, b in zip(up, down)):
            raise ValueError("columns must strictly increase")
        Partition(tuple(map(len, rows)))  # validates the shape

    @property
    def n(self) -> int:
        return sum(len(r) for r in self.rows)

    @property
    def shape(self) -> Partition:
        return Partition(tuple(len(r) for r in self.rows))

    def entry(self, cell: Cell) -> int:
        return self.rows[cell.row - 1][cell.col - 1]

    def reading_word(self) -> tuple[int, ...]:
        """Row-by-row concatenation, used as the deterministic sort key."""
        return tuple(chain.from_iterable(self.rows))

    def serialize(self) -> str:
        return serialize_rows(self.rows)

    @classmethod
    def parse(cls, text: str) -> "StandardTableau":
        text = text.strip()
        if not text:
            return cls(())
        return cls(
            tuple(tuple(int(v) for v in row.split()) for row in text.split("/"))
        )

    def __str__(self):
        return self.serialize()


def serialize_rows(rows: Rows) -> str:
    """Rows written as in StandardTableau.serialize, standard or not."""
    return "/".join(" ".join(map(str, row)) for row in rows)


def enumerate_syt(shape: Partition) -> list[StandardTableau]:
    """All standard tableaux of the given shape, sorted by reading word.

    Values 1..n are placed in increasing order; a cell is available once the
    cells above and to its left are filled, which is exactly the standard
    condition.  Each tableau is built through the validating constructor, so
    the enumeration is checked, not trusted.
    """
    n = shape.n
    if n == 0:
        return [StandardTableau(())]
    rows = [[0] * p for p in shape.parts]
    fill = [0] * len(shape.parts)  # filled prefix length per row
    found: list[StandardTableau] = []

    def place(v: int):
        if v > n:
            found.append(StandardTableau(tuple(map(tuple, rows))))
            return
        for r, row in enumerate(rows):
            c = fill[r]
            if c < len(row) and (r == 0 or fill[r - 1] > c):
                row[c] = v
                fill[r] += 1
                place(v + 1)
                fill[r] -= 1
        return

    place(1)
    found.sort(key=StandardTableau.reading_word)
    return found


def enumerate_syt_of_size(n: int) -> list[StandardTableau]:
    """All standard tableaux with n cells, over every shape of n."""
    from .partitions import partitions_of

    return [t for lam in partitions_of(n) for t in enumerate_syt(lam)]


def reverse_row_insert(tab: StandardTableau, cell: Cell) -> tuple[StandardTableau, int]:
    """Delete the corner cell by upward bumping and eject a letter.

    Returns the size n-1 tableau (entries above the ejected letter shifted
    down by one) together with the ejected letter i in 1..n.
    """
    rows, ejected = reverse_row_insert_rows(tab.rows, cell)
    return StandardTableau(rows), ejected


def forward_row_insert(tab: StandardTableau, value: int) -> tuple[StandardTableau, Cell]:
    """Insert a letter by downward bumping; inverse of reverse_row_insert.

    Entries >= value are first shifted up by one so that value is fresh.
    Returns the grown tableau and the newly created cell.
    """
    rows, cell = forward_row_insert_rows(tab.rows, value)
    return StandardTableau(rows), cell


def reverse_row_insert_rows(rows: Rows, cell: Cell) -> tuple[Rows, int]:
    """reverse_row_insert on bare rows: the result is not validated."""
    r, c = cell
    removable = 1 <= r <= len(rows) and c == len(rows[r - 1])
    if not removable or (r < len(rows) and len(rows[r]) >= c):
        raise ValueError(f"cell {tuple(cell)} is not a removable corner")
    rows = [list(row) for row in rows]
    moving = rows[r - 1].pop()
    if not rows[r - 1]:
        rows.pop()
    for row in reversed(rows[: r - 1]):
        pos = bisect_left(row, moving) - 1  # rightmost entry below the mover
        row[pos], moving = moving, row[pos]
    ejected = moving
    out = tuple(tuple([v - 1 if v > ejected else v for v in row]) for row in rows)
    return out, ejected


def forward_row_insert_rows(rows: Rows, value: int) -> tuple[Rows, Cell]:
    """forward_row_insert on bare rows: the result is not validated."""
    n = sum(map(len, rows)) + 1
    if not 1 <= value <= n:
        raise ValueError(f"insertion value must lie in 1..{n}")
    rows = [[v + 1 if v >= value else v for v in row] for row in rows]
    moving = value
    for r, row in enumerate(rows):
        pos = bisect_right(row, moving)
        if pos == len(row):
            row.append(moving)
            return tuple(map(tuple, rows)), Cell(r + 1, len(row))
        row[pos], moving = moving, row[pos]
    rows.append([moving])
    return tuple(map(tuple, rows)), Cell(len(rows), 1)
