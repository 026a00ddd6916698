"""Test-only helpers that no `hookforge verify` unit reaches.

`cycle_stats` counts an involution's fixed points and 2-cycles directly from
its images; the tests use it as the oracle for the fixed-point histogram of
`hookforge.involutions`, whose enumerator lists each involution as a tuple of
images.  `mp_const` is the constant polynomial of the packed-monomial kernel
in `hookforge._multipoly`.  `reverse_row_insert_oracle`
and `forward_row_insert_oracle` run the row insertions on Yamanouchi words
one word at a time, with one bytes search per bump; the tests use them as the
oracles of the byte-column kernels in `hookforge.tableaux`.  `phi_terms`
lists phi_n's terms as hook-power maps, the input of
`hookforge.identity._materialize`; the tests use it as the oracle of the
byte-column factoring `hookforge.identity._phi_columns`.  `defined_functions`
lists the functions a module defines, and `reach` records the package code
that a call enters.  The ledger's independence tests declare each check's
routes through `assert_routes_share` and `assert_routes_stand_alone`, and
`uncached` brackets a test's patches between two clearings of every `@cache`.
"""

import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Sequence

import pytest

import hookforge
from hookforge._multipoly import MPoly
from hookforge.partitions import Cell, hook_census, hook_quotient
from hookforge.tableaux import MAX_ROWS


@dataclass(frozen=True)
class CycleStats:
    """Fixed-point and 2-cycle counts; alpha1 + 2*alpha2 = n."""

    alpha1: int
    alpha2: int


def cycle_stats(images: tuple[int, ...]) -> CycleStats:
    fixed = sum(1 for i, img in enumerate(images, start=1) if img == i)
    return CycleStats(alpha1=fixed, alpha2=(len(images) - fixed) // 2)


def phi_terms(n: int) -> list[tuple[int, Counter]]:
    """The terms of phi_n as (count, hook powers), one per hook multiset:
    f-lambda and the weight depend only on the hooks, so the shapes sharing
    a multiset (conjugate pairs, in particular) are pooled."""
    return [
        (count * hook_quotient(n, key), Counter(key))
        for key, count in hook_census(n).items()
    ]


def defined_functions(module) -> list[tuple]:
    """`(module, name)` for each function that `module` defines, `@cache`d
    ones included, and none that it imports: a poison list."""
    return sorted(
        (module, name)
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

    clear_caches()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call(*args)
    finally:
        sys.setprofile(previous)
    return names


def clear_caches() -> None:
    """Clear every `@cache` of the package."""
    for name, module in list(sys.modules.items()):
        if name == "hookforge" or name.startswith("hookforge."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@contextmanager
def uncached(monkeypatch):
    """Clear every `@cache` of the package before the block, and after it
    undo `monkeypatch` and clear them again."""
    clear_caches()
    try:
        yield
    finally:
        monkeypatch.undo()
        clear_caches()


def assert_routes_share(routes, allowed=()) -> list[set[str]]:
    """Fail unless the routes of one check share just the code `allowed`
    declares; return the names that `reach` records for each route.

    A route is `(call, sentinel)`, a call with no arguments and a function
    that it must enter.  Two routes may both enter a function that `allowed`
    names, or one under an entry that ends in `.`, such as `exact.`; a named
    function that no two routes share is a stale declaration.
    """
    reached = []
    for call, sentinel in routes:
        names = reach(call)
        assert sentinel in names, f"{call.__qualname__} did not enter {sentinel}"
        reached.append(names)
    shared = set().union(*(a & b for a, b in combinations(reached, 2)))
    prefixes = tuple(entry for entry in allowed if entry.endswith("."))
    undeclared = sorted(n for n in shared if n not in allowed and not n.startswith(prefixes))
    assert undeclared == [], f"two routes both enter {undeclared}"
    stale = sorted(set(allowed) - shared - set(prefixes))
    assert stale == [], f"no two routes both enter {stale}"
    return reached


def assert_routes_stand_alone(monkeypatch, routes) -> list:
    """Fail unless each route gives the same value with its poison list
    poisoned; return the values.

    A route is `(call, poison)`, a call with no arguments and the `(owner,
    name)` pairs that it must not reach; in an `uncached` block, each pair
    is replaced by a function that fails the test, which no `except
    Exception` in the route can catch.
    """
    values = []
    for call, poison in routes:
        values.append(call())
        with uncached(monkeypatch):
            for owner, name in poison:
                why = f"{call.__qualname__} reached {owner.__name__}.{name}"
                monkeypatch.setattr(owner, name, lambda *a, why=why, **k: pytest.fail(why))
            assert call() == values[-1], f"{call.__qualname__} changed its value"
    return values


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
