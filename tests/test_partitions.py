"""Tests for partition shapes, hooks, corners, and counting."""

import math
from collections import Counter
from functools import cache

import pytest

from hookforge import partitions
from hookforge.partitions import (
    Cell,
    Partition,
    add_cell,
    addable_cells,
    content,
    corner_profile,
    f_lambda,
    hook_census,
    hook_length,
    hook_quotient,
    hooks,
    partitions_of,
    removable_cells,
    remove_cell,
)
from hookforge.involutions import involution_count
from hookforge.tableaux import enumerate_syt


@cache
def partition_count(n):
    """Independent p(n) oracle via the pentagonal-number recurrence."""
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        if g1 <= n:
            total += sign * partition_count(n - g1)
        if g2 <= n:
            total += sign * partition_count(n - g2)
        k += 1
    return total


def test_partition_validation():
    Partition((3, 3, 1))
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_serialize_roundtrip():
    assert Partition((3, 1)).serialize() == "3,1"
    assert Partition(()).serialize() == "-"
    for lam in partitions_of(7):
        assert Partition.parse(lam.serialize()) == lam


def test_partitions_of_zero():
    assert partitions_of(0) == [Partition(())]


def test_partitions_of_four_in_reverse_lex_order():
    assert [p.parts for p in partitions_of(4)] == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]


def test_partition_counts_match_pentagonal_recurrence():
    assert len(partitions_of(10)) == 42
    for n in range(26):
        assert len(partitions_of(n)) == partition_count(n)


def test_partitions_are_unique():
    for n in range(13):
        ps = partitions_of(n)
        assert len({p.parts for p in ps}) == len(ps)
        assert all(p.n == n for p in ps)


def test_hook_length_examples():
    assert hook_length(Partition((2, 1)), Cell(1, 1)) == 3  # arm 1 + leg 1 + 1
    assert hook_length(Partition((1,)), Cell(1, 1)) == 1
    assert hook_length(Partition((3, 1)), Cell(1, 1)) == 4  # arm 2 + leg 1 + 1


def test_hook_length_outside_raises():
    with pytest.raises(ValueError):
        hook_length(Partition((2, 1)), Cell(2, 2))


def test_hooks_listing():
    assert sorted(hooks(Partition((3, 2)))) == [1, 1, 2, 3, 4]


def test_hooks_invariant_under_conjugation():
    for n in range(11):
        for lam in partitions_of(n):
            assert sorted(hooks(lam)) == sorted(hooks(lam.conjugate()))


def test_content():
    assert content(Cell(1, 1)) == 0
    assert content(Cell(2, 5)) == 3
    assert content(Cell(4, 1)) == -3


def test_f_lambda_examples():
    assert f_lambda(Partition((2, 1))) == 2
    assert f_lambda(Partition(())) == 1
    assert f_lambda(Partition((3, 2))) == 5  # 5!/(4*3*1*2*1)


def test_f_lambda_matches_exhaustive_enumeration():
    for n in range(13):
        for lam in partitions_of(n):
            assert f_lambda(lam) == len(enumerate_syt(lam)), lam


def test_f_lambda_squares_sum_to_factorial():
    for n in range(13):
        assert sum(f_lambda(lam) ** 2 for lam in partitions_of(n)) == math.factorial(n)


def test_hook_census_counts_every_shape_under_its_sorted_key():
    for n in range(15):
        shapes = partitions_of(n)
        census = hook_census(n)
        assert sum(census.values()) == len(shapes)
        assert list(census) == sorted(census)
        for lam in shapes:
            key = bytes(sorted(hooks(lam)))
            assert key in census
            assert bytes(sorted(hooks(lam.conjugate()))) == key


def test_hook_census_equals_the_census_of_the_enumerated_shapes(monkeypatch):
    # the first-row census against hooks() over partitions_of(), key by key
    for n in range(21):
        expected = Counter(bytes(sorted(hooks(lam))) for lam in partitions_of(n))
        assert list(hook_census(n).items()) == sorted(expected.items())
    # a hook of 256 would not fit in a byte: refused before any level is built
    built = []
    monkeypatch.setattr(partitions, "_hooked_shapes", built.append)
    with pytest.raises(ValueError, match="255"):
        hook_census(256)
    assert built == []


def test_hook_quotients_count_involutions_and_permutations():
    # sum f-lambda = I(n) and sum f-lambda^2 = n!, summed once per key
    for n in range(15):
        census = hook_census(n)
        assert sum(c * hook_quotient(n, k) for k, c in census.items()) == involution_count(n)
        assert sum(c * hook_quotient(n, k) ** 2 for k, c in census.items()) == math.factorial(n)


def test_hook_quotient_is_exact_or_raises():
    assert hook_quotient(3, (3, 1, 1)) == 2
    assert hook_quotient(0, ()) == 1
    with pytest.raises(ArithmeticError):
        hook_quotient(3, (2, 2, 2))


def test_corner_profile_examples():
    empty = corner_profile(Partition(()))
    assert empty.outer_contents == (0,) and empty.inner_contents == ()
    assert empty.outer_cells == (Cell(1, 1),)

    prof = corner_profile(Partition((3, 1)))
    assert prof.outer_contents == (3, 0, -2)
    assert prof.inner_contents == (2, -1)
    assert prof.outer_cells == (Cell(1, 4), Cell(2, 2), Cell(3, 1))
    assert prof.inner_cells == (Cell(1, 3), Cell(2, 1))

    prof = corner_profile(Partition((2, 2)))
    assert prof.outer_contents == (2, -2)
    assert prof.inner_contents == (0,)


def test_corner_profile_interlacing():
    for n in range(15):
        for lam in partitions_of(n):
            prof = corner_profile(lam)
            assert len(prof.outer_cells) == len(prof.inner_cells) + 1
            merged = []
            for i, x in enumerate(prof.outer_contents):
                merged.append(x)
                if i < len(prof.inner_contents):
                    merged.append(prof.inner_contents[i])
            assert all(a > b for a, b in zip(merged, merged[1:]))
            assert len(set(merged)) == len(merged)


def test_add_remove_examples():
    assert add_cell(Partition((2, 1)), Cell(2, 2)) == Partition((2, 2))
    assert remove_cell(Partition((2, 2)), Cell(2, 2)) == Partition((2, 1))
    assert add_cell(Partition(()), Cell(1, 1)) == Partition((1,))


def test_add_then_remove_is_identity():
    for n in range(15):
        for lam in partitions_of(n):
            for cell in addable_cells(lam):
                grown = add_cell(lam, cell)
                assert grown.n == n + 1
                assert remove_cell(grown, cell) == lam
            for cell in removable_cells(lam):
                shrunk = remove_cell(lam, cell)
                assert shrunk.n == n - 1
                assert add_cell(shrunk, cell) == lam


def test_add_remove_reject_non_corners():
    lam = Partition((2, 2))
    with pytest.raises(ValueError):
        add_cell(lam, Cell(2, 3))
    with pytest.raises(ValueError):
        remove_cell(lam, Cell(1, 2))


def test_hooks_change_only_in_added_row_and_column_by_one():
    for n in range(13):
        for lam in partitions_of(n):
            for cell in addable_cells(lam):
                grown = add_cell(lam, cell)
                for other in lam.cells():
                    before = hook_length(lam, other)
                    after = hook_length(grown, other)
                    if other.row == cell.row or other.col == cell.col:
                        assert after == before + 1
                    else:
                        assert after == before
                assert hook_length(grown, cell) == 1
