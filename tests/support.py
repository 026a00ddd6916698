"""Test-only helpers that no `hookforge verify` unit reaches.

`cycle_stats` counts an involution's fixed points and 2-cycles directly from
its images; the tests use it as the oracle for the fixed-point histogram of
`hookforge.involutions`.  `mp_const` is the constant polynomial of the
packed-monomial kernel in `hookforge._multipoly`.  `reverse_row_insert_oracle`
and `forward_row_insert_oracle` run the row insertions on Yamanouchi words
one word at a time, with one bytes search per bump; the tests use them as the
oracles of the byte-column kernels in `hookforge.tableaux`.  `phi_terms`
lists phi_n's terms as hook-power maps, the input of
`hookforge.identity._materialize`; the tests use it as the oracle of the
byte-column factoring `hookforge.identity._phi_columns`.  `defined_functions`
names the functions a module defines, for tests that poison all of them, and
`reach` records the package code that a call enters, for tests that compare
the code two routes of one check read.
"""

import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import hookforge
from hookforge._multipoly import MPoly
from hookforge.involutions import Involution
from hookforge.partitions import Cell, hook_census, hook_quotient
from hookforge.tableaux import MAX_ROWS


@dataclass(frozen=True)
class CycleStats:
    """Fixed-point and 2-cycle counts; alpha1 + 2*alpha2 = n."""

    alpha1: int
    alpha2: int


def cycle_stats(inv: Involution) -> CycleStats:
    fixed = sum(1 for i, img in enumerate(inv.images, start=1) if img == i)
    return CycleStats(alpha1=fixed, alpha2=(inv.n - fixed) // 2)


def phi_terms(n: int) -> list[tuple[int, Counter]]:
    """The terms of phi_n as (count, hook powers), one per hook multiset:
    f-lambda and the weight depend only on the hooks, so the shapes sharing
    a multiset (conjugate pairs, in particular) are pooled."""
    return [
        (count * hook_quotient(n, key), Counter(key))
        for key, count in hook_census(n).items()
    ]


def defined_functions(module) -> list[str]:
    """The names of the functions that `module` defines, `@cache`d ones
    included, and none that it imports."""
    return sorted(
        name
        for name, value in vars(module).items()
        if callable(value)
        and not isinstance(value, type)
        and getattr(value, "__module__", None) == module.__name__
    )


PACKAGE = Path(hookforge.__file__).resolve().parent


def reach(call, *args) -> set[str]:
    """The package functions that `call(*args)` enters, as qualified names
    under `hookforge` such as `exact.Polynomial._over`, with every `@cache`
    of the package cleared first so that a cached value hides no code.

    Calls are recorded with `sys.setprofile` and named by `co_qualname`
    (Python 3.11 on).  Code nested in a function (a comprehension, a
    lambda, a local function) counts as that function.
    """
    names: set[str] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            path = Path(code.co_filename)
            if path.parent == PACKAGE:
                names.add(f"{path.stem}.{code.co_qualname.split('.<locals>.')[0]}")

    for name, module in list(sys.modules.items()):
        if name == "hookforge" or name.startswith("hookforge."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call(*args)
    finally:
        sys.setprofile(previous)
    return names


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
