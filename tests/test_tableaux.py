"""Tests for standard tableaux enumeration and the row-insertion bijection."""

from bisect import bisect_left, bisect_right
from itertools import product

import pytest

from hookforge.involutions import involution_count
from hookforge.partitions import Cell, Partition, f_lambda, partitions_of, removable_cells
from hookforge.tableaux import (
    MAX_ROWS,
    Rows,
    StandardTableau,
    enumerate_syt,
    enumerate_syt_of_size,
    forward_row_insert,
    forward_row_insert_word,
    forward_row_insert_words,
    lattice_words,
    reverse_row_insert,
    reverse_row_insert_word,
    reverse_row_insert_words,
    rows_of_word,
    validate_word,
    validate_words,
    verify_bijection,
    yamanouchi_word,
)

from support import forward_row_insert_oracle, reverse_row_insert_oracle


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


# The row kernels the word kernels replaced, kept as the reference.


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


def test_word_kernels_match_the_row_kernels():
    for n in range(1, 9):
        for tab in enumerate_syt_of_size(n):
            word = yamanouchi_word(tab.rows)
            assert rows_of_word(word) == tab.rows
            for cell in removable_cells(tab.shape):
                rows, letter = reverse_row_insert_rows(tab.rows, cell)
                assert reverse_row_insert_word(word, cell) == (
                    yamanouchi_word(rows), letter
                )
        for tab in enumerate_syt_of_size(n - 1):
            word = yamanouchi_word(tab.rows)
            for letter in range(1, n + 1):
                rows, cell = forward_row_insert_rows(tab.rows, letter)
                assert forward_row_insert_word(word, letter) == (
                    yamanouchi_word(rows), cell
                )


def test_word_kernels_reject_bad_input():
    word = yamanouchi_word(T("1 2/3").rows)
    assert word == b"\x01\x01\x02"
    for cell in (Cell(1, 1), Cell(1, 3), Cell(2, 2), Cell(0, 0), Cell(256, 1)):
        with pytest.raises(ValueError, match="not a removable corner"):
            reverse_row_insert_word(word, cell)
    # the end of row 1, but row 2 is as long
    with pytest.raises(ValueError, match="not a removable corner"):
        reverse_row_insert_word(yamanouchi_word(T("1 2/3 4").rows), Cell(1, 2))
    for value in (0, 5):
        with pytest.raises(ValueError, match=r"must lie in 1\.\.4"):
            forward_row_insert_word(word, value)
    # the mover from row 2 is below every entry of row 1, so a -1 from the
    # search must not index the last byte
    with pytest.raises(ValueError, match="not a lattice word"):
        reverse_row_insert_word(b"\x02", Cell(2, 1))
    with pytest.raises(ValueError, match="not a lattice word"):
        reverse_row_insert_word(b"\x02\x02\x01", Cell(2, 2))


def test_batch_kernels_match_the_validating_oracles_pair_by_pair():
    for n in range(1, 8):
        for lam in partitions_of(n):
            tabs = enumerate_syt(lam)
            words = [yamanouchi_word(t.rows) for t in tabs]
            for cell in removable_cells(lam):
                reduced, letters = reverse_row_insert_words(words, cell)
                grown, cells = forward_row_insert_words(reduced, letters)
                assert len(reduced) == len(letters) == len(grown) == len(cells) == len(tabs)
                for k, tab in enumerate(tabs):
                    smaller, letter = reverse_row_insert(tab, cell)
                    assert reduced[k] == yamanouchi_word(smaller.rows)
                    assert letters[k] == letter
                    back, back_cell = forward_row_insert(smaller, letter)
                    assert grown[k] == yamanouchi_word(back.rows)
                    assert cells[k] == tuple(back_cell) and type(cells[k]) is tuple
    assert reverse_row_insert_words([], Cell(1, 1)) == ([], [])
    assert forward_row_insert_words([], []) == ([], [])


def test_batch_kernels_check_every_word():
    corner = "cell (1, 1) is not a removable corner"
    lattice = "not a lattice word: row 1 has no entry below 1"
    value = "insertion value must lie in 1..4"
    longest = "a batch takes words of at most 255 letters: a count takes one byte"
    longer = "a batch takes words of at most 254 letters: a count takes one byte"
    mixed = "the words of a batch must share one length"
    column = bytes(range(1, MAX_ROWS + 1))
    cases = [
        # a bad word after a good one of the same length: the batch kernels check each word
        (reverse_row_insert_words, ([b"\x01\x02\x03", b"\x01\x01\x02"], Cell(3, 1)),
         "cell (3, 1) is not a removable corner"),
        (reverse_row_insert_words, ([b"\x01", b"\x02"], Cell(1, 1)), corner),
        (reverse_row_insert_words, ([b"\x01\x02", b"\x02\x01"], Cell(2, 1)), lattice),
        (forward_row_insert_words, ([b"\x01\x02\x01", b"\x01\x01\x02"], [1, 5]), value),
        # a word longer than a byte's counts hold, and a batch of mixed lengths
        (reverse_row_insert_words, ([column + b"\x01"], Cell(1, 1)), longest),
        (forward_row_insert_words, ([b"\x01" * 254, column], [1, 1]), mixed),
        (forward_row_insert_words, ([column], [1]), longer),
        # the per-word kernels raise the same texts
        (reverse_row_insert_word, (b"\x01\x01\x02", Cell(1, 1)), corner),
        (reverse_row_insert_word, (b"\x02", Cell(2, 1)), lattice),
        (forward_row_insert_word, (b"\x01\x01\x02", 5), value),
        (reverse_row_insert_word, (column + b"\x01", Cell(1, 1)), longest),
        (forward_row_insert_word, (column, 1), longer),
    ]
    for kernel, args, text in cases:
        with pytest.raises(ValueError) as raised:
            kernel(*args)
        assert str(raised.value) == text
    with pytest.raises(ValueError, match="is not a removable corner"):
        reverse_row_insert_words([], Cell(MAX_ROWS + 1, 1))
    with pytest.raises(ValueError):  # one value per word
        forward_row_insert_words([b"\x01"], [1, 2])


def test_more_rows_than_a_byte_holds_raise():
    column = tuple((v,) for v in range(1, MAX_ROWS + 1))
    assert rows_of_word(yamanouchi_word(column)) == column
    assert reverse_row_insert(StandardTableau(column), Cell(MAX_ROWS, 1)) == (
        StandardTableau(column[:-1]), 1
    )
    with pytest.raises(ValueError, match="one byte, so at most 255 rows"):
        yamanouchi_word(column + ((MAX_ROWS + 1,),))
    with pytest.raises(ValueError, match="at most 254 letters: a count takes one byte"):
        forward_row_insert(StandardTableau(column), 1)
    with pytest.raises(ValueError, match="start at 1"):
        rows_of_word(b"\x01\x00")


def test_lattice_words_are_the_words_of_the_enumerated_tableaux():
    for n in range(1, 10):
        smaller, larger = lattice_words(n)
        for m, groups in ((n - 1, smaller), (n, larger)):
            assert list(groups) == partitions_of(m)
            for lam, words in groups.items():
                assert words == sorted(
                    yamanouchi_word(t.rows) for t in enumerate_syt(lam)
                )
                assert len(words) == f_lambda(lam)
    with pytest.raises(ValueError, match="n >= 1"):
        lattice_words(0)


def test_validate_word_accepts_exactly_the_words_of_standard_tableaux():
    for m in range(5):
        for lam in partitions_of(m):
            standard = {yamanouchi_word(t.rows) for t in enumerate_syt(lam)}
            for letters in product(range(4), repeat=m):
                word = bytes(letters)
                if word in standard:
                    validate_word(word, lam)
                else:
                    with pytest.raises(ValueError):
                        validate_word(word, lam)


def test_validate_word_names_what_is_wrong():
    with pytest.raises(ValueError, match="not a lattice word: entry 3 would make row 2"):
        validate_word(b"\x01\x02\x02", Partition((2, 1)))
    with pytest.raises(ValueError, match="not a lattice word: entry 1"):
        validate_word(b"\x02\x01", Partition((1, 1)))
    with pytest.raises(ValueError, match=r"row lengths \(2, 1, 0\) do not match the shape 1,1,1"):
        validate_word(b"\x01\x01\x02", Partition((1, 1, 1)))
    with pytest.raises(ValueError, match="beyond the shape 2"):
        validate_word(b"\x01\x02", Partition((2,)))
    with pytest.raises(ValueError, match="start at 1"):
        validate_word(b"\x01\x00", Partition((2,)))
    validate_word(b"", Partition(()))


def outcome(kernel, *args):
    """A kernel's results, or the text of the ValueError it raises."""
    try:
        return tuple(map(list, kernel(*args)))
    except ValueError as exc:
        return str(exc)


def test_column_kernels_match_the_per_word_oracles_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    by_shape = {Partition(()): [b""]}
    for m in range(1, 13):
        by_shape.update(lattice_words(m)[1])
    shapes = sorted(by_shape, key=lambda lam: (lam.n, lam.parts))
    mixed = "the words of a batch must share one length"

    def noise(m):
        # arbitrary bytes of one length (0 bytes, rows that skip, the top rows)
        # reach every failure
        return st.one_of(
            st.binary(min_size=m, max_size=m),
            st.lists(st.sampled_from((0, 1, 2, 3, 254, 255)), min_size=m, max_size=m).map(bytes),
        )

    def words_of(sizes):
        others = [mu for mu in shapes if mu.n in sizes]
        return st.sampled_from(others).flatmap(lambda mu: st.sampled_from(by_shape[mu]))

    cells = st.builds(Cell, st.sampled_from((0, 1, 2, 3, 4, 254, 255, 256)), st.integers(0, 13))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.sampled_from(shapes), st.data())
    def agree(lam, data):
        m = lam.n
        words = data.draw(st.lists(st.sampled_from(by_shape[lam]), min_size=1, max_size=30))
        if data.draw(st.booleans()):  # noise and the words of other shapes of m
            extra = st.one_of(noise(m), words_of({m}))
            for _ in range(data.draw(st.integers(1, 4))):
                words.insert(data.draw(st.integers(0, len(words))), data.draw(extra))
        # a mixed batch: words of other lengths, up to the 255 rows of a byte
        other = st.one_of(
            st.integers(0, 13).filter(lambda k: k != m).flatmap(noise),
            words_of(set(range(13)) - {m}),
            st.just(bytes(range(1, MAX_ROWS + 1))),
        )
        is_mixed = data.draw(st.booleans())
        for _ in range(data.draw(st.integers(1, 3)) if is_mixed else 0):
            words.insert(data.draw(st.integers(0, len(words))), data.draw(other))
        for cell in [*removable_cells(lam), data.draw(cells)]:
            expected = mixed if is_mixed else outcome(reverse_row_insert_oracle, words, cell)
            assert outcome(reverse_row_insert_words, words, cell) == expected
        inside = [data.draw(st.integers(1, len(w) + 1)) for w in words]
        anywhere = [data.draw(st.integers(-1, len(w) + 2)) for w in words]
        count = data.draw(st.sampled_from((0, len(words), len(words) + 1)))
        for values in (inside, anywhere, anywhere[:count] + [1] * (count - len(words))):
            expected = mixed if is_mixed else outcome(forward_row_insert_oracle, words, values)
            assert outcome(forward_row_insert_words, words, values) == expected

    agree()


def test_column_kernels_match_the_oracles_on_every_corner_and_value():
    for m in range(1, 8):
        smaller, larger = lattice_words(m)
        for lam, words in larger.items():
            for cell in removable_cells(lam):
                assert outcome(reverse_row_insert_words, words, cell) == outcome(
                    reverse_row_insert_oracle, words, cell
                )
        words = [w for ws in smaller.values() for w in ws]
        for value in range(1, m + 1):
            values = [value] * len(words)
            assert outcome(forward_row_insert_words, words, values) == outcome(
                forward_row_insert_oracle, words, values
            )


def test_column_kernels_match_the_oracles_on_zero_bytes():
    # a 0 byte left of where a word reaches row 1, or before the placeholder,
    # equals the scan's state there but is not bumped
    for words, cell in (
        ([b"\x00\x01", b"\x01\x00"], Cell(1, 1)),
        ([b"\x00\x01\x02", b"\x01\x00\x02"], Cell(2, 1)),
    ):
        assert outcome(reverse_row_insert_words, words, cell) == outcome(
            reverse_row_insert_oracle, words, cell
        )
    assert reverse_row_insert_words([b"\x00\x01\x02"], Cell(2, 1)) == ([b"\x00\x01"], [2])
    for words, values in (([b"\x00\x01", b"\x01\x00"], [3, 2]), ([b"\x00\x00"], [1])):
        assert outcome(forward_row_insert_words, words, values) == outcome(
            forward_row_insert_oracle, words, values
        )


def test_column_kernels_hold_words_longer_than_a_byte():
    # each count, letter, value and row of a word takes one byte digit, so
    # reverse insertion takes words of at most 255 letters and forward
    # insertion at most 254, whose grown word has 255
    longest = "a batch takes words of at most 255 letters: a count takes one byte"
    longer = "a batch takes words of at most 254 letters: a count takes one byte"
    row = b"\x01" * 300
    two_rows = b"\x01" * 280 + b"\x02" * 10
    for words, cell in (([row], Cell(1, 300)), ([two_rows, two_rows], Cell(2, 10))):
        assert outcome(reverse_row_insert_words, words, cell) == longest
    for words, values in (([row], [300]), ([row], [301]), ([two_rows], [290]), ([row], [302])):
        assert outcome(forward_row_insert_words, words, values) == longer
    # the boundary: 255 letters reverse, 254 letters forward
    column = bytes(range(1, MAX_ROWS + 1))
    full_row, hook = b"\x01" * 255, b"\x01" * 200 + bytes(range(2, 56))
    for words, cell in (
        ([full_row], Cell(1, 255)),
        ([column], Cell(MAX_ROWS, 1)),
        ([b"\x01" * 245 + b"\x02" * 10, b"\x01\x02" * 10 + b"\x01" * 235], Cell(2, 10)),
        ([hook + b"\x01"], Cell(1, 201)),
    ):
        assert outcome(reverse_row_insert_words, words, cell) == outcome(
            reverse_row_insert_oracle, words, cell
        )
    assert reverse_row_insert_words([full_row], Cell(1, 255)) == ([full_row[1:]], [255])
    for words, values in (
        ([full_row[1:]], [255]),
        ([full_row[1:]], [1]),
        ([column[1:]], [1]),
        ([column[:-1], hook], [254, 1]),
        ([hook, full_row[1:]], [100, 256]),
    ):
        assert outcome(forward_row_insert_words, words, values) == outcome(
            forward_row_insert_oracle, words, values
        )
    assert forward_row_insert_words([column[:-1]], [1]) == ([column], [(MAX_ROWS, 1)])
    assert outcome(reverse_row_insert_words, [column + b"\x01"], Cell(1, 1)) == longest
    assert validate_words([row, two_rows], Partition((300,))) == 1
    assert validate_words([two_rows], Partition((280, 10))) is None


def first_rejected(words, shape):
    """The index of the first word validate_word rejects, or None."""
    for i, word in enumerate(words):
        try:
            validate_word(word, shape)
        except ValueError:
            return i
    return None


def test_validate_words_finds_the_first_bad_word_of_each_kind():
    lam = Partition((4, 3, 2, 1))
    _, larger = lattice_words(10)
    good = larger[lam]
    cases = {
        "a 0 byte": good[7][:3] + b"\x00" + good[7][4:],
        "a row beyond the shape": good[7][:9] + b"\x05",
        # the right row counts, but entry 8 puts row 4 ahead of row 3
        "a late lattice break": bytes((1, 1, 1, 1, 2, 2, 2, 4, 3, 3)),
        "row counts": b"\x01" * 4 + b"\x02" * 4 + b"\x03\x04",
        "a short word": good[7][:9],
        "a long word": good[7] + b"\x01",
    }
    for kind, bad in cases.items():
        with pytest.raises(ValueError):
            validate_word(bad, lam)
        for at in (0, 5, len(good) - 1):
            words = good[:at] + [bad] + good[at:] + [b"\x00"]
            assert validate_words(words, lam) == first_rejected(words, lam) == at, kind
    assert validate_words(good, lam) is None
    assert validate_words([], lam) is None
    assert validate_words([b""], Partition(())) is None
    assert validate_words([b"\x01"], Partition(())) == 0
    assert validate_words([b"\x01\x02"], Partition((1, 1))) is None


def test_bijection_witness_is_validate_word_text(monkeypatch):
    from hookforge import tableaux

    bad = b"\x01\x02\x02"

    def with_bad_word(n):
        smaller, larger = lattice_words(n)
        larger[Partition((1, 1, 1))] = [b"\x01\x02\x03"]
        larger[Partition((2, 1))] = [*larger[Partition((2, 1))], bad]
        return smaller, larger

    monkeypatch.setattr(tableaux, "lattice_words", with_bad_word)
    with pytest.raises(ValueError) as raised:
        validate_word(bad, Partition((2, 1)))
    assert verify_bijection(3) == (
        f"enumerated rows '1/2 3' are not a standard tableau of shape 2,1: {raised.value}"
    )
