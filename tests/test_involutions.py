"""Tests for involution enumeration, cycle statistics, and their weights."""

import random
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from hookforge.exact import Polynomial, PowerSeries, RationalFunction, series_exp
from hookforge.involutions import (
    PSI_ENUMERATION_BOUND,
    CycleStats,
    Involution,
    cycle_stats,
    enumerate_involutions,
    g_poly,
    g_poly_oracle,
    involution_count,
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
        assert len(enumerate_involutions(n)) == involution_count(n)


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
        assert expanded.coefficient(n) == Fraction(involution_count(n), factorial(n))


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
        assert len(invs) == involution_count(n)
        for inv in invs:
            assert Involution(inv.images) == inv


def test_involution_count_is_iterative():
    involution_count.cache_clear()
    assert involution_count(1500) > involution_count(1499)
    prev, cur = 1, 1
    for n in range(2, 13):
        prev, cur = cur, cur + (n - 1) * prev
        assert involution_count(n) == cur
    assert [involution_count(n) for n in range(2)] == [1, 1]


def test_fixed_point_histogram_matches_cycle_stats():
    from hookforge.involutions import _fixed_point_histogram

    u1, u2 = Fraction(-3, 2), Fraction(5, 7)
    for n in range(PSI_ENUMERATION_BOUND + 1):
        hist = _fixed_point_histogram(n)
        counted = Counter(cycle_stats(inv).alpha1 for inv in enumerate_involutions(n))
        assert hist == [counted[a1] for a1 in range(n + 1)], n
        assert sum(hist) == involution_count(n)
        assert g_poly_oracle(n, u1, u2) == g_poly(n, u1, u2)


def _dropping_first_leaf(walk):
    def walker(n, leaf):
        seen = []

        def skip_once(images):
            if seen:
                leaf(images)
            seen.append(True)

        walk(n, skip_once)

    return walker


def _unpairing_first_leaf(walk):
    """The first involution (the identity) reported with point n sent to 1,
    as if a pairing of n with 1 had been written halfway: the leaf count is
    unchanged, only one image is wrong."""

    def walker(n, leaf):
        seen = []

        def corrupt_once(images):
            if seen:
                leaf(images)
                return
            seen.append(True)
            kept = images[n]
            images[n] = 1
            leaf(images)
            images[n] = kept

        walk(n, corrupt_once)

    return walker


@pytest.mark.parametrize("fault", [_dropping_first_leaf, _unpairing_first_leaf])
def test_psi_cross_check_fails_on_a_faulty_walk(monkeypatch, fault):
    from hookforge import involutions

    n = 6
    psi_n.cache_clear()
    try:
        monkeypatch.setattr(involutions, "_walk_involutions", fault(involutions._walk_involutions))
        with pytest.raises(AssertionError, match=f"disagree at n={n}:"):
            psi_n(n)
    finally:
        monkeypatch.undo()
        psi_n.cache_clear()
    psi_n(n)
