"""Tests for involution enumeration, cycle statistics, and their weights."""

import random
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from support import CycleStats, cycle_stats, reach

from hookforge.exact import Polynomial, PowerSeries, RationalFunction, series_exp
from hookforge.involutions import (
    PSI_ENUMERATION_BOUND,
    Involution,
    enumerate_involutions,
    g_poly,
    g_poly_oracle,
    psi_n,
    verify_involution_egf,
)


def test_involution_validation():
    Involution((2, 1, 3))
    with pytest.raises(ValueError):
        Involution((2, 3, 1))  # a 3-cycle
    with pytest.raises(ValueError):
        Involution((1, 1))


def test_serialize():
    assert Involution((2, 1, 3)).serialize() == "2 1 3"
    assert Involution.parse("2 1 3") == Involution((2, 1, 3))


def test_enumeration_counts():
    assert len(enumerate_involutions(0)) == 1
    assert enumerate_involutions(0) == [Involution(())]
    assert len(enumerate_involutions(3)) == 4
    assert len(enumerate_involutions(6)) == 76


def test_enumeration_matches_recurrence():
    for n in range(10):
        assert len(enumerate_involutions(n)) == g_poly(n, 1, 1)


def test_enumeration_unique_and_self_inverse():
    for n in range(8):
        invs = enumerate_involutions(n)
        assert len({inv.images for inv in invs}) == len(invs)
        for inv in invs:
            for i, img in enumerate(inv.images, start=1):
                assert inv.images[img - 1] == i


def test_cycle_stats_invariant():
    for n in range(8):
        for inv in enumerate_involutions(n):
            st = cycle_stats(inv)
            assert st.alpha1 + 2 * st.alpha2 == n
    assert cycle_stats(Involution((2, 1, 3))) == CycleStats(alpha1=1, alpha2=1)


def test_g_poly_examples():
    assert g_poly(2, 1, 1) == 2
    assert g_poly(4, 1, 1) == 10
    assert g_poly(3, 0, 1) == 0  # no fixed-point-free involution on odd n
    assert g_poly(0, 7, 9) == 1


def test_g_poly_oracle_examples():
    assert g_poly_oracle(2, 1, 1) == 2
    assert g_poly_oracle(2, 3, 5) == 14  # 3^2 + 5
    assert g_poly_oracle(0, Fraction(1, 3), 4) == 1


def test_g_poly_matches_oracle_at_random_points():
    rng = random.Random(90125)
    for _ in range(20):
        u1 = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        u2 = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        for n in range(9):
            assert g_poly(n, u1, u2) == g_poly_oracle(n, u1, u2)


def test_involution_egf_examples():
    assert verify_involution_egf(6, 1, 1)
    assert verify_involution_egf(6, 1, 0)  # reduces to exp(t)
    assert verify_involution_egf(5, 0, 1)  # even series only


def test_involution_egf_coefficients_directly():
    arg = PowerSeries([Fraction(0), Fraction(1), Fraction(1, 2)], order=8)
    expanded = series_exp(arg)
    for n in range(9):
        assert expanded.coefficient(n) == Fraction(g_poly(n, 1, 1), factorial(n))


def test_involution_egf_at_random_rational_points():
    rng = random.Random(2001)
    for _ in range(10):
        u1 = Fraction(rng.randint(-12, 12), rng.randint(1, 7))
        u2 = Fraction(rng.randint(-12, 12), rng.randint(1, 7))
        assert verify_involution_egf(8, u1, u2)


def test_psi_small_values():
    assert psi_n(0) == RationalFunction.one()
    assert psi_n(1) == RationalFunction(Polynomial([1, 1]), Polynomial([1, -1]))
    expected = RationalFunction(Polynomial([2, 0, 2]), Polynomial([1, -2, 1]))
    assert psi_n(2) == expected


def test_psi_recursion_agrees_with_enumeration():
    # the two routes are asserted inside psi_n up to the enumeration bound;
    # recompute the enumeration side independently here for small n
    from hookforge.identity import weight_w

    for n in range(9):
        total = RationalFunction.zero()
        for inv in enumerate_involutions(n):
            a1 = cycle_stats(inv).alpha1
            term = RationalFunction.one()
            for _ in range(a1):
                term = term * weight_w(1)
            total = total + term
        assert total == psi_n(n)


def test_psi_cold_large_n_does_not_recurse():
    from hookforge.identity import weight_w

    psi_n.cache_clear()
    try:
        value = psi_n(1500)  # deeper than the default recursion limit
        assert value.den.degree == 1500 and value.num.degree == 1500
        # psi_n is g_n at u1 = w(1), u2 = 1, point by point
        for q in (Fraction(0), Fraction(2), Fraction(-3, 5)):
            assert value(q) == g_poly(1500, weight_w(1)(q), 1)
        # and still the value of the generic recursion at small n
        w1 = weight_w(1)
        expected = [RationalFunction.one(), w1]
        for m in range(1, 20):
            expected.append(w1 * expected[m] + m * expected[m - 1])
        for n, rf in enumerate(expected):
            assert psi_n(n) == rf, n
    finally:
        psi_n.cache_clear()


def test_enumerated_involutions_pass_explicit_validation():
    for n in range(10):
        invs = enumerate_involutions(n)
        assert len(invs) == g_poly(n, 1, 1)
        for inv in invs:
            assert Involution(inv.images) == inv


def test_g_poly_at_one_one_is_iterative():
    assert g_poly(1500, 1, 1) > g_poly(1499, 1, 1)
    prev, cur = 1, 1
    for n in range(2, 13):
        prev, cur = cur, cur + (n - 1) * prev
        assert g_poly(n, 1, 1) == cur
    assert [g_poly(n, 1, 1) for n in range(2)] == [1, 1]


def test_fixed_point_histogram_matches_cycle_stats():
    from hookforge.involutions import _fixed_point_histogram

    u1, u2 = Fraction(-3, 2), Fraction(5, 7)
    for n in range(PSI_ENUMERATION_BOUND + 1):
        hist = _fixed_point_histogram(n)
        counted = Counter(cycle_stats(inv).alpha1 for inv in enumerate_involutions(n))
        assert hist == [counted[a1] for a1 in range(n + 1)], n
        assert sum(hist) == g_poly(n, 1, 1)
        assert g_poly_oracle(n, u1, u2) == g_poly(n, u1, u2)


def _walked(n: int) -> list[tuple[int, ...]]:
    from hookforge.involutions import _involution_blocks

    seen = []
    for rows, cols in _involution_blocks(n):
        seen.extend(zip(*cols) if cols else [()] * rows)
    return seen


def test_walk_visits_each_involution_once():
    for n in range(8):
        brute = {
            p for p in permutations(range(1, n + 1))
            if all(p[img - 1] == i for i, img in enumerate(p, start=1))
        }
        seen = _walked(n)
        assert len(seen) == len(set(seen)), n
        assert set(seen) == brute, n


def _reference_walk(free: tuple[int, ...], images: dict[int, int]):
    """The documented recursion, rebuilt from fresh tuples and dicts: the
    largest free point is fixed first, then paired with each smaller free
    point in increasing order."""
    if not free:
        yield tuple(images[i] for i in sorted(images))
        return
    e, rest = free[-1], free[:-1]
    yield from _reference_walk(rest, {**images, e: e})
    for k, f in enumerate(rest):
        yield from _reference_walk(rest[:k] + rest[k + 1 :], {**images, e: f, f: e})


def test_walk_visits_in_the_documented_order():
    for n in range(7):
        assert _walked(n) == list(_reference_walk(tuple(range(1, n + 1)), {})), n


def _faulting_first_block(monkeypatch, corrupt):
    """Patch the block seam so that corrupt(n, rows, cols) rewrites the
    first block of Inv(n); the other blocks pass through unchanged."""
    from hookforge import involutions

    blocks = involutions._involution_blocks

    def faulty(n):
        it = blocks(n)
        yield corrupt(n, *next(it))
        yield from it

    monkeypatch.setattr(involutions, "_involution_blocks", faulty)


def _dropping_first_leaf(monkeypatch):
    """The first involution dropped from the first block."""
    _faulting_first_block(monkeypatch, lambda n, rows, cols: (rows - 1, [c[1:] for c in cols]))


def _unpairing_first_leaf(monkeypatch):
    """The first involution (the identity) reported with point n sent to 1,
    as if a pairing of n with 1 had been written halfway: the row count is
    unchanged, only one image is wrong."""

    def corrupt(n, rows, cols):
        cols = list(cols)
        cols[n - 1] = b"\x01" + bytes(cols[n - 1][1:])
        return rows, cols

    _faulting_first_block(monkeypatch, corrupt)


def _off_by_one_relabel(monkeypatch):
    """Each relabelling table skips k + 1 instead of k: every row keeps its
    positions, but an image k stays k where it should become k + 1."""
    from hookforge import involutions

    skip = involutions._skip_table
    monkeypatch.setattr(involutions, "_skip_table", lambda k: skip(k + 1))


@pytest.mark.parametrize(
    "fault", [_dropping_first_leaf, _unpairing_first_leaf, _off_by_one_relabel]
)
@pytest.mark.fails("theorem1prime")
def test_psi_cross_check_fails_on_a_faulty_walk(monkeypatch, fault):
    n = 6
    psi_n.cache_clear()
    try:
        fault(monkeypatch)
        with pytest.raises(AssertionError, match=f"psi recursion and enumeration disagree at n={n}:"):
            psi_n(n)
    finally:
        monkeypatch.undo()
        psi_n.cache_clear()
    psi_n(n)


def test_enumerators_reject_n_outside_0_to_255():
    from hookforge.involutions import MAX_POINTS, _fixed_point_histogram

    assert MAX_POINTS == 255
    for enumerator in (_fixed_point_histogram, enumerate_involutions):
        with pytest.raises(ValueError, match="nonnegative"):
            enumerator(-1)
        with pytest.raises(ValueError, match="may not exceed 255"):
            enumerator(256)


def test_fixed_point_histogram_memory_stays_small():
    # Inv(12) is never joined and no object is built per involution; either
    # pushes the peak past 2.5 MB (joining measured 2.9 MB, objects 32 MB)
    import tracemalloc

    from hookforge.involutions import _fixed_point_histogram

    tracemalloc.start()
    try:
        _fixed_point_histogram(12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, peak


@pytest.mark.independence("egf")
def test_egf_kronecker_sides_read_no_code_of_each_other(monkeypatch):
    # verify_egf_kronecker compares g_poly's recursion with the exponential
    # series at one integer point; each side still gives its coefficients
    # with every function of the other side poisoned
    from hookforge import exact, involutions

    order = 8
    x0 = Fraction(factorial(order) + 2)
    u2 = x0 ** (order + 1)

    def recursion():
        return [involutions.g_poly(n, x0, u2) / factorial(n) for n in range(order + 1)]

    def exponential():
        series = PowerSeries([Fraction(0), x0, u2 / 2], order=order).exp()
        return [series.coefficient(n) for n in range(order + 1)]

    def poisoned(*args):
        raise AssertionError("one side of the egf check reached the other")

    expected = recursion()
    assert exponential() == expected
    series_side = ((exact.PowerSeries, name) for name in ("exp", "__mul__", "__add__"))
    recursion_side = ((involutions, name) for name in ("g_poly", "g_poly_oracle", "psi_n"))
    for route, names in ((recursion, series_side), (exponential, recursion_side)):
        for owner, name in names:
            monkeypatch.setattr(owner, name, poisoned)
        try:
            assert route() == expected
        finally:
            monkeypatch.undo()


@pytest.mark.independence("egf")
def test_egf_kronecker_sides_enter_no_common_function():
    # at the Kronecker point of order 8, `g_poly` over the integers and the
    # series' `exp` enter no common package function, not even of `exact`
    from hookforge.involutions import _egf_point

    order = 8
    x0 = _egf_point(order)
    u2 = x0 ** (order + 1)
    series = PowerSeries([Fraction(0), Fraction(x0), Fraction(u2, 2)], order=order)
    recursion = reach(lambda: [g_poly(n, x0, u2) for n in range(order + 1)])
    expansion = reach(series.exp)
    assert "involutions.g_poly" in recursion
    assert "exact.PowerSeries.exp" in expansion
    assert sorted(recursion & expansion) == []


@pytest.mark.independence("theorem1prime")
def test_psi_recursion_and_enumeration_share_only_the_exact_kernel():
    # psi_n's cross-check at n = 8: `g_poly`'s recursion and `g_poly_oracle`
    # over the enumerated involutions enter no common code outside `exact`
    from hookforge import involutions

    w1 = RationalFunction(Polynomial((1, 1)), Polynomial((1, -1)))
    recursion = reach(involutions._psi_by_recursion, 8)
    enumeration = reach(g_poly_oracle, 8, w1, 1)
    assert "involutions.g_poly" in recursion
    assert "involutions._fixed_point_histogram" in enumeration
    assert sorted(name for name in recursion & enumeration if not name.startswith("exact.")) == []
