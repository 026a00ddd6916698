"""Standard Young tableaux: exhaustive enumeration and the row-insertion
bijection between (tableau, corner) pairs and (smaller tableau, letter) pairs.

Reverse row-insertion starts in a removable corner and bumps upward: in each
row above, the moving entry displaces the largest entry smaller than it, and
the value pushed out of row 1 is the ejected letter.  Forward row-insertion
is the exact inverse.

Both insertions run on the tableau's Yamanouchi word, one byte per entry
holding its row, so that each bump is one bytes search and relabelling the
entries is one byte inserted or deleted (Knuth, TAOCP vol. 3, 5.1.4).  The
two kernels, `reverse_row_insert_words` and `forward_row_insert_words`, take
a list of words at once, so that the bijection check makes one call per
shape and corner; the per-word forms are one-word calls of them.

Tableaux come in two forms.  `enumerate_syt` builds `StandardTableau` rows,
each checked by the validating constructor.  `lattice_words` builds the
Yamanouchi words of two consecutive sizes directly, letter by letter, and
`validate_word` checks a word against its shape with no code shared with
that enumerator.  `verify_bijection`, the proof that corner deletion is a
bijection, runs on this second form.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple, Sequence

from . import partitions
from .partitions import Cell, Partition, partitions_of

Rows = tuple[tuple[int, ...], ...]
WordsByShape = dict[Partition, list[bytes]]

MAX_ROWS = 255  # a Yamanouchi word holds each row number in one byte


class _TableauFields(NamedTuple):
    rows: Rows = ()


class StandardTableau(_TableauFields):
    """Rows of entries forming a bijective filling of a partition shape by
    1..n, strictly increasing along rows and down columns.

    An immutable named tuple, validated on construction by `__post_init__`,
    which the constructor calls through the class."""

    __slots__ = ()

    def __new__(cls, rows: Rows = ()):
        self = tuple.__new__(cls, (rows,))
        StandardTableau.__post_init__(self)
        return self

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
    return [t for lam in partitions_of(n) for t in enumerate_syt(lam)]


def lattice_words(n: int) -> tuple[WordsByShape, WordsByShape]:
    """The Yamanouchi words of sizes n-1 and n (n >= 1), each grouped by
    shape in `partitions_of` order and sorted within each shape.

    The words are built level by level from the empty word; a word of shape
    lam takes the letter r where row r of lam may grow by one cell.  The
    words of size n are the words of size n-1 extended once more, so each
    size is built once.  The words are not validated here: see
    `validate_word`.
    """
    if n < 1:
        raise ValueError("lattice_words needs n >= 1: it also builds size n-1")
    level: dict[tuple[int, ...], list[bytes]] = {(): [b""]}
    for _ in range(n - 1):
        level = _extend(level)
    larger = _extend(level)
    return (
        {lam: sorted(level[lam.parts]) for lam in partitions_of(n - 1)},
        {lam: sorted(larger[lam.parts]) for lam in partitions_of(n)},
    )


def _extend(
    level: dict[tuple[int, ...], list[bytes]]
) -> dict[tuple[int, ...], list[bytes]]:
    """Every word of the level with one letter appended, keyed by new shape."""
    out: dict[tuple[int, ...], list[bytes]] = {}
    for parts, words in level.items():
        for i, p in enumerate(parts + (0,)):
            if i == 0 or p < parts[i - 1]:  # row i+1 may grow
                letter = bytes((i + 1,))
                grown = parts[:i] + (p + 1,) + parts[i + 1 :]
                out.setdefault(grown, []).extend([w + letter for w in words])
    return out


def validate_word(word: bytes, shape: Partition) -> None:
    """Raise ValueError unless `word` is the Yamanouchi word of a standard
    tableau of `shape`: no 0 byte, every prefix a lattice word (no row
    longer than the row above it) and row r holding shape.parts[r-1]
    entries."""
    parts = shape.parts
    counts = [0] * len(parts)
    for v, r in enumerate(word, 1):
        if r == 0:
            raise ValueError("row numbers in a word start at 1")
        if r > len(parts):
            raise ValueError(f"entry {v} is in row {r}, beyond the shape {shape}")
        if r > 1 and counts[r - 1] == counts[r - 2]:
            raise ValueError(
                f"not a lattice word: entry {v} would make row {r} "
                f"longer than row {r - 1}"
            )
        counts[r - 1] += 1
    if tuple(counts) != parts:
        raise ValueError(f"row lengths {tuple(counts)} do not match the shape {shape}")


def yamanouchi_word(rows: Rows) -> bytes:
    """The Yamanouchi word of a standard tableau: byte v-1 holds the row
    (1-based) of entry v.

    `rows` must be the rows of a standard tableau; a row number takes one
    byte, so at most MAX_ROWS rows are allowed.
    """
    if len(rows) > MAX_ROWS:
        raise ValueError(
            f"{len(rows)} rows do not fit a Yamanouchi word: "
            f"a row number takes one byte, so at most {MAX_ROWS} rows"
        )
    word = bytearray(sum(map(len, rows)))
    for r, row in enumerate(rows, 1):
        for v in row:
            word[v - 1] = r
    return bytes(word)


def rows_of_word(word: bytes) -> Rows:
    """The rows that a word of row numbers 1..MAX_ROWS describes: row r holds
    the entries v with byte v-1 equal to r, in increasing order.  A word that
    is not a lattice word gives rows that are not a standard tableau."""
    if 0 in word:
        raise ValueError("row numbers in a word start at 1")
    rows: list[list[int]] = [[] for _ in range(max(word, default=0))]
    for v, r in enumerate(word, 1):
        rows[r - 1].append(v)
    return tuple(map(tuple, rows))


def reverse_row_insert(tab: StandardTableau, cell: Cell) -> tuple[StandardTableau, int]:
    """Delete the corner cell by upward bumping and eject a letter.

    Returns the size n-1 tableau (entries above the ejected letter shifted
    down by one) together with the ejected letter i in 1..n.
    """
    word, ejected = reverse_row_insert_word(yamanouchi_word(tab.rows), cell)
    return StandardTableau(rows_of_word(word)), ejected


def forward_row_insert(tab: StandardTableau, value: int) -> tuple[StandardTableau, Cell]:
    """Insert a letter by downward bumping; inverse of reverse_row_insert.

    Entries >= value are first shifted up by one so that value is fresh.
    Returns the grown tableau and the newly created cell.
    """
    word, cell = forward_row_insert_word(yamanouchi_word(tab.rows), value)
    return StandardTableau(rows_of_word(word)), cell


def reverse_row_insert_words(
    words: Sequence[bytes], cell: Cell
) -> tuple[list[bytes], list[int]]:
    """reverse_row_insert on each of a shape's Yamanouchi words, deleting the
    same corner from every one; the results are not validated.

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


def forward_row_insert_words(
    words: Sequence[bytes], values: Sequence[int]
) -> tuple[list[bytes], list[tuple[int, int]]]:
    """forward_row_insert of values[k] into words[k], for every k; the
    results are not validated.

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


def reverse_row_insert_word(word: bytes, cell: Cell) -> tuple[bytes, int]:
    """reverse_row_insert_words on one word."""
    [reduced], [letter] = reverse_row_insert_words((word,), cell)
    return reduced, letter


def forward_row_insert_word(word: bytes, value: int) -> tuple[bytes, Cell]:
    """forward_row_insert_words on one word, with the new cell as a Cell."""
    [grown], [cell] = forward_row_insert_words((word,), (value,))
    return grown, Cell(*cell)


def verify_bijection(n: int) -> str | None:
    """The row-insertion bijection (SYT(n), corner) <-> (SYT(n-1), letter).

    Both codomains are enumerated once, as Yamanouchi words grouped by shape,
    and every word is validated once, before any insertion runs, by a check
    that shares no code with the enumerator.  Each corner of each P in
    SYT(n) is deleted once by reverse insertion; the resulting word must be
    the word of an enumerated tableau T (checked by lookup), the letter must
    lie in 1..n, no pair (T, letter) may be reached twice, and forward
    insertion of the pair must give back the word of P and the corner.  The
    insertions run one corner of one shape at a time, over all the words of
    that shape; the pairs are checked one by one, and the round trip is
    walked pair by pair only when the batch differs somewhere.

    No forward-then-reverse pass over SYT(n-1) x [n] is needed.  The checks
    above make corner deletion injective into E x [n], E the validated
    SYT(n-1), and the domain has n|E| elements, so the map is onto.  Every
    pair in E x [n] is thus the image of some (P, corner), and its round trip
    already inserted that pair forward and got (P, corner) back, whose
    reverse insertion is the pair: the second pass would only replay calls.

    Returns None when the bijection holds at n, else the first failure's
    witness.
    """
    smaller, larger = lattice_words(n)
    for groups in (smaller, larger):
        for lam, words in groups.items():
            for word in words:
                try:
                    validate_word(word, lam)
                except ValueError as exc:
                    return _invalid_word_witness(word, lam, exc)
    flat = list(chain.from_iterable(smaller.values()))
    index = {word: i for i, word in enumerate(flat)}
    size = len(flat)
    reached = bytearray(n * size)
    corner_total = 0
    for lam, words in larger.items():
        for cell in partitions.removable_cells(lam):
            corner_total += len(words)
            reduced, letters = reverse_row_insert_words(words, cell)
            for word, small, letter in zip(words, reduced, letters):
                if not 1 <= letter <= n:
                    shown = serialize_rows(rows_of_word(word))
                    return f"ejected letter {letter} out of range for {shown}"
                i = index.get(small)
                if i is None:
                    return _unenumerated_witness(word, cell, small)
                slot = i * n + letter - 1
                if reached[slot]:
                    return "corner deletions are not injective"
                reached[slot] = 1
            grown, cells = forward_row_insert_words(reduced, letters)
            if grown != words or cells.count(cell) != len(cells):
                for word, back, back_cell in zip(words, grown, cells):
                    if back != word or back_cell != cell:
                        shown = serialize_rows(rows_of_word(word))
                        return f"round trip failed at {shown} corner {tuple(cell)}"
    if corner_total != n * size:
        return f"corner count {corner_total} != n * |SYT(n-1)| = {n * size}"
    return None


def _invalid_word_witness(word: bytes, lam: Partition, exc: ValueError) -> str:
    """Why an enumerated word is not the word of a standard tableau of lam."""
    try:
        shown = repr(serialize_rows(rows_of_word(word)))
    except ValueError:  # a 0 byte names no row
        shown = f"bytes {list(word)}"
    return f"enumerated rows {shown} are not a standard tableau of shape {lam}: {exc}"


def _unenumerated_witness(word: bytes, cell: Cell, reduced: bytes) -> str:
    """Why a corner deletion's word is not among the enumerated SYT(n-1)."""
    rows = rows_of_word(reduced)
    try:
        StandardTableau(rows)
    except ValueError as exc:
        reason = f"not standard: {exc}"
    else:
        reason = "standard but missing from the enumeration"
    return (
        f"deleting corner {tuple(cell)} of {serialize_rows(rows_of_word(word))} "
        f"gave {serialize_rows(rows)!r}, {reason}"
    )
