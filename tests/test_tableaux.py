"""Tests for standard tableaux enumeration and the row-insertion bijection."""

import pytest

from hookforge.involutions import involution_count
from hookforge.partitions import Cell, Partition, f_lambda, partitions_of, removable_cells
from hookforge.tableaux import (
    StandardTableau,
    enumerate_syt,
    enumerate_syt_of_size,
    forward_row_insert,
    reverse_row_insert,
)


def T(text):
    return StandardTableau.parse(text)


def test_validation_rejects_bad_fillings():
    with pytest.raises(ValueError):
        StandardTableau(((2, 1),))  # row not increasing
    with pytest.raises(ValueError):
        StandardTableau(((1, 3), (2, 2)))  # repeated entry
    with pytest.raises(ValueError):
        StandardTableau(((1, 4), (3,), (2,)))  # column not increasing
    with pytest.raises(ValueError):
        StandardTableau(((1,), (2, 3)))  # not a partition shape


def test_serialize_roundtrip():
    tab = T("1 3/2")
    assert tab.serialize() == "1 3/2"
    assert tab.shape == Partition((2, 1))
    assert tab.entry(Cell(2, 1)) == 2


def test_enumerate_small_shapes():
    assert len(enumerate_syt(Partition((1, 1)))) == 1
    two = enumerate_syt(Partition((2, 1)))
    assert [t.serialize() for t in two] == ["1 2/3", "1 3/2"]
    assert len(enumerate_syt(Partition((2, 2)))) == 2
    assert enumerate_syt(Partition(())) == [StandardTableau(())]


def test_enumeration_sorted_by_reading_word_and_counted_by_hooks():
    for n in range(9):
        for lam in partitions_of(n):
            tabs = enumerate_syt(lam)
            words = [t.reading_word() for t in tabs]
            assert words == sorted(words)
            assert len(set(words)) == len(tabs) == f_lambda(lam)


def test_total_tableaux_count_involutions():
    for n in range(11):
        assert len(enumerate_syt_of_size(n)) == involution_count(n)


def test_reverse_single_cell():
    reduced, letter = reverse_row_insert(T("1"), Cell(1, 1))
    assert reduced == StandardTableau(()) and letter == 1


def test_reverse_from_first_row_ejects_entry():
    reduced, letter = reverse_row_insert(T("1 2"), Cell(1, 2))
    assert reduced == T("1") and letter == 2


def test_reverse_bumps_upward():
    # deleting the corner below sends 2 up to displace 1
    reduced, letter = reverse_row_insert(T("1 3/2"), Cell(2, 1))
    assert letter == 1
    assert reduced == T("1 2")


def test_reverse_requires_removable_corner():
    with pytest.raises(ValueError):
        reverse_row_insert(T("1 2/3"), Cell(1, 1))
    with pytest.raises(ValueError):
        reverse_row_insert(T("1 2 3"), Cell(1, 2))


def test_forward_into_empty():
    grown, cell = forward_row_insert(StandardTableau(()), 1)
    assert grown == T("1") and cell == Cell(1, 1)


def test_forward_value_out_of_range():
    with pytest.raises(ValueError):
        forward_row_insert(T("1 2"), 4)
    with pytest.raises(ValueError):
        forward_row_insert(T("1 2"), 0)


def test_forward_reverse_roundtrips_exhaustively():
    for n in range(1, 8):
        for tab in enumerate_syt_of_size(n):
            for cell in removable_cells(tab.shape):
                reduced, letter = reverse_row_insert(tab, cell)
                assert reduced.n == n - 1
                assert 1 <= letter <= n
                assert forward_row_insert(reduced, letter) == (tab, cell)
    for n in range(1, 8):
        for tab in enumerate_syt_of_size(n - 1):
            for letter in range(1, n + 1):
                grown, cell = forward_row_insert(tab, letter)
                assert grown.n == n
                assert reverse_row_insert(grown, cell) == (tab, letter)


def test_corner_deletion_is_a_bijection():
    for n in range(1, 8):
        pairs = set()
        total = 0
        for tab in enumerate_syt_of_size(n):
            for cell in removable_cells(tab.shape):
                reduced, letter = reverse_row_insert(tab, cell)
                pairs.add((reduced.rows, letter))
                total += 1
        assert len(pairs) == total == n * len(enumerate_syt_of_size(n - 1))


def test_corner_sum_identity():
    for n in range(1, 8):
        corner_sum = sum(
            len(removable_cells(tab.shape)) for tab in enumerate_syt_of_size(n)
        )
        assert corner_sum == n * len(enumerate_syt_of_size(n - 1))


def test_enumerated_tableaux_pass_explicit_validation():
    for n in range(8):
        for t in enumerate_syt_of_size(n):
            assert StandardTableau(t.rows) == t
