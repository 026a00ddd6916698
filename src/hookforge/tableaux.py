"""Standard Young tableaux: exhaustive enumeration and the row-insertion
bijection between (tableau, corner) pairs and (smaller tableau, letter) pairs.

Reverse row-insertion starts in a removable corner and bumps upward: in each
row above, the moving entry displaces the largest entry smaller than it, and
the value pushed out of row 1 is the ejected letter.  Forward row-insertion
is the exact inverse.

Both insertions run on the tableau's Yamanouchi word, one byte per entry
holding its row (Knuth, TAOCP vol. 3, 5.1.4).  The two kernels,
`reverse_row_insert_words` and `forward_row_insert_words`, take a list of
words of one length at once and read it as byte columns, one byte per word:
a bump is a scan with one state byte per word, the row searched for, so
each position of all the words is a few `bytes.translate` and big-integer
steps.  Each count of a word is one byte digit, so reverse insertion takes
at most 255 letters and forward insertion 254; the per-word forms are
one-word calls of them.

Tableaux come in two forms.  `enumerate_syt` builds `StandardTableau` rows,
each checked by the validating constructor.  `lattice_words` builds the
Yamanouchi words of two consecutive sizes directly, letter by letter, and
`validate_words` checks all the words of a shape at once, with no code shared
with that enumerator; `validate_word` checks one and names what is wrong.
`verify_bijection`, the proof that corner deletion is a bijection, runs on
this second form.
"""

from __future__ import annotations

import struct
from itertools import chain
from typing import NamedTuple, Sequence

from . import _records, partitions
from .partitions import Cell, Partition, partitions_of

Rows = tuple[tuple[int, ...], ...]
WordsByShape = dict[Partition, list[bytes]]

MAX_ROWS = 255  # a Yamanouchi word holds each row number in one byte


class _TableauFields(NamedTuple):
    rows: Rows = ()


class StandardTableau(_records.Validated, _TableauFields):
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
    `validate_words`.
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


def _eq(v: int) -> bytes:  # the `bytes.translate` table of byte == v (none past 255)
    return (bytes(v) + b"\x01" + bytes(255))[:256]


def _int(column: bytes) -> int:  # a byte column as an integer: digit i is word i's byte
    return int.from_bytes(column, "little")


def validate_words(words: Sequence[bytes], shape: Partition) -> int | None:
    """The index of the first word that `validate_word` rejects for `shape`,
    or None.  The words are read as byte columns, and row r keeps one digit
    per word: a guard bit plus the count of row r-1 less that of row r, row 0
    counting every entry.  A prefix with more of row r than of row r-1 clears
    the guard bit, and a 0 byte or a row beyond the shape leaves a final count
    short of its part."""
    parts, n, sizes = shape.parts, shape.n, list(map(len, words))
    stop = len(words)
    if sizes.count(n) < stop:
        stop = next(i for i, size in enumerate(sizes) if size != n)
    k = n.bit_length() // 8 + 1  # digits of k bytes keep a guard bit above n
    ones, guard = _int(b"\x01".ljust(k, b"\0") * stop), _int((bytes(k - 1) + b"\x80") * stop)
    joined, wide = b"".join(words[:stop]), bytearray(k * stop)
    tables = [_eq(r) for r in range(1, len(parts) + 1)]
    diffs, floor = [guard] * len(parts), -1  # floor: every prefix's digits ANDed
    for p in range(n):
        wide[::k] = joined[p::n]
        above = ones
        for r, table in enumerate(tables):
            below = _int(wide.translate(table))
            diffs[r] += above - below
            floor &= diffs[r]
            above = below
    bad = guard & ~floor
    for diff, more, part in zip(diffs, (n, *parts), parts):  # the counts are the parts
        bad |= diff ^ guard + (more - part) * ones
    if bad:
        stop = min(stop, ((bad & -bad).bit_length() - 1) // (8 * k))
    return stop if stop < len(words) else None


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


def _one_length(words: Sequence[bytes], most: int) -> int:
    """The one length of a batch's words, at most `most` letters so that each
    count of a word fits a byte; else ValueError, before any word is read."""
    n = len(words[0]) if words else 0
    if list(map(len, words)).count(n) < len(words):
        raise ValueError("the words of a batch must share one length")
    if n > most:
        raise ValueError(f"a batch takes words of at most {most} letters: a count takes one byte")
    return n


def reverse_row_insert_words(
    words: Sequence[bytes], cell: Cell
) -> tuple[list[bytes], list[int]]:
    """reverse_row_insert on each of a shape's Yamanouchi words, deleting the
    same corner from every one; the results are not validated.  Returns the
    reduced words and the ejected letters.  The words, of one length up to
    MAX_ROWS, are scanned from the last column, the state starting at the
    corner's row: a byte equal to it moves up a row, the state falls by one,
    and row 1 ejects the letter.  Every word is checked: the cell must be
    its corner, and each row above must hold an entry below the mover."""
    n = _one_length(words, MAX_ROWS)
    r, c = cell
    if not 1 <= r <= MAX_ROWS or words and not 1 <= c <= n:
        raise ValueError(f"cell {tuple(cell)} is not a removable corner")
    if not words:
        return [], []
    size, joined = len(words), b"".join(words)
    cols = [joined[p::n] for p in range(n)]
    counts = [sum(_int(col.translate(_eq(row))) for col in cols) for row in (r, r + 1)]
    own, below = (count.to_bytes(size, "little") for count in counts)  # rows r and r + 1
    corner = size
    if not c == min(own) == max(own) > max(below):
        corner = next(i for i, (a, b) in enumerate(zip(own, below)) if not c == a > b)
    state, done, after, letters, zero = _int(bytes((r,)) * size), 0, 0, 0, _eq(0)
    left = bytearray(size * (n - 1))
    for p in reversed(range(n)):
        col = _int(cols[p])
        hit = _int((col ^ state).to_bytes(size, "little").translate(zero)) & ~done
        out, state = col - hit, state - hit
        if p < n - 1:  # a word done right of p keeps byte p, the others p + 1
            left[p :: n - 1] = (after ^ (out ^ after) & done * 255).to_bytes(size, "little")
        done, after = _int(state.to_bytes(size, "little").translate(zero)), out
        letters += done  # done from the ejected letter's byte leftward
    stuck = (done.to_bytes(size, "little") + b"\0").find(0)  # never reached row 1
    if corner <= stuck and corner < size:
        raise ValueError(f"cell {tuple(cell)} is not a removable corner")
    if stuck < size:
        bumped = after.to_bytes(size, "little")[stuck:][:1] + left[stuck * (n - 1) :]
        moving = next(p for p, (a, b) in enumerate(zip(words[stuck], bumped)) if a != b)
        row = state.to_bytes(size, "little")[stuck]
        raise ValueError(f"not a lattice word: row {row} has no entry below {moving + 1}")
    # a Struct of its own: `struct.unpack` would keep each batch's format in its cache
    return [*struct.Struct(f"{n - 1}s" * size).unpack(left)], [*letters.to_bytes(size, "little")]


def forward_row_insert_words(
    words: Sequence[bytes], values: Sequence[int]
) -> tuple[list[bytes], list[tuple[int, int]]]:
    """forward_row_insert of values[k] into words[k], for every k; the
    results are not validated.  Returns the grown words and the new cells,
    as (row, col) tuples.  The words, of one length up to MAX_ROWS - 1 so
    that a grown word's rows fit a byte, are scanned from the first column
    with a 0 byte at value-1, the state 0 before it and then the mover's row:
    a byte equal to the state moves down a row and the state rises by one."""
    m = _one_length(words, MAX_ROWS - 1)
    n, size = m + 1, min(len(words), len(values))
    head = values[:size]
    if head and not 1 <= min(head) <= max(head) <= n:  # scan the words before it
        size = next(k for k, v in enumerate(head) if not 1 <= v <= n)
    joined, packed = b"".join(words[:size]), bytes(head[:size])
    every, state, upto, prev = _int(b"\xff" * size), 0, 0, 0
    out_cols, outs, zero = bytearray(size * n), [], _eq(0)
    for q in range(n):
        at = _int(packed.translate(_eq(q + 1)))  # the words whose value is q + 1
        col = _int(joined[q::m]) if q < m else 0
        after, upto = upto, upto + at * 255  # all-ones bytes past the 0 byte, and at it
        g = (col & every - upto) | (prev & after)  # the 0 byte at value-1
        hit = _int((g ^ state).to_bytes(size, "little").translate(zero)) & after
        out, state, prev = g + hit + at, state + hit + at, col
        out_cols[q::n] = out.to_bytes(size, "little")
        outs.append(out)
    if size < len(head):
        raise ValueError(f"insertion value must lie in 1..{n}")
    if len(values) != len(words):  # as zip(..., strict=True) reports it
        longer = "longer" if len(values) > len(words) else "shorter"
        raise ValueError(f"zip() argument 2 is {longer} than argument 1")
    same = sum(_int((out ^ state).to_bytes(size, "little").translate(zero)) for out in outs)
    grown = struct.Struct(f"{n}s" * size).unpack(out_cols)  # col: the row's bytes
    return list(grown), list(zip(state.to_bytes(size, "little"), same.to_bytes(size, "little")))


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
            bad = validate_words(words, lam)
            if bad is not None:
                return _invalid_word_witness(words[bad], lam)
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


def _invalid_word_witness(word: bytes, lam: Partition) -> str:
    """Why an enumerated word is not the word of a standard tableau of lam,
    in `validate_word`'s terms."""
    reason = "validate_word accepts it, validate_words does not"
    try:
        validate_word(word, lam)
    except ValueError as exc:
        reason = str(exc)
    try:
        shown = repr(serialize_rows(rows_of_word(word)))
    except ValueError:  # a 0 byte names no row
        shown = f"bytes {list(word)}"
    return f"enumerated rows {shown} are not a standard tableau of shape {lam}: {reason}"


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
