"""Tests for the exact arithmetic kernel."""

import copy
import math
import pickle
import random
from fractions import Fraction
from itertools import zip_longest

import pytest

from hookforge.exact import (
    Polynomial,
    PowerSeries,
    RationalFunction,
    poly_gcd,
    _heu_gcd,
    _int_divexact,
    _int_mul,
    series_exp,
)


def P(*coeffs):
    return Polynomial(coeffs)


def random_fraction(rng, bound=50):
    den = rng.randint(1, bound)
    return Fraction(rng.randint(-bound, bound), den)


def random_polynomial(rng, max_degree=5, bound=9):
    degree = rng.randint(0, max_degree)
    return Polynomial([random_fraction(rng, bound) for _ in range(degree + 1)])


# -- rationals ---------------------------------------------------------------


def test_bigrational_invariants():
    v = Fraction(6, -4)
    assert v.numerator == -3 and v.denominator == 2
    assert Fraction(0, 7) == Fraction(0, 1)


def test_field_axioms_on_random_triples():
    rng = random.Random(20817)
    for _ in range(1000):
        a, b, c = (random_fraction(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if a != 0:
            assert a * (1 / a) == 1


# -- polynomials -------------------------------------------------------------


def test_polynomial_strips_trailing_zeros():
    assert P(1, 2, 0, 0).coeffs == (1, 2)
    assert P(0, 0).is_zero
    assert P().degree == -1
    assert P(3).degree == 0


def test_polynomial_arithmetic_basics():
    a = P(1, 1)  # 1 + q
    b = P(-1, 1)  # -1 + q
    assert a * b == P(-1, 0, 1)
    assert a + b == P(0, 2)
    assert a - a == P()
    assert 2 * a == P(2, 2)
    assert a**3 == P(1, 3, 3, 1)
    assert a(Fraction(1, 2)) == Fraction(3, 2)


def test_polynomial_divmod_roundtrip():
    rng = random.Random(3)
    for _ in range(200):
        a = random_polynomial(rng)
        b = random_polynomial(rng)
        if b.is_zero:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree


def test_operations_no_caller_runs_raise_type_error():
    # a quotient of polynomials is built as RationalFunction(num, den),
    # Euclidean division takes a Polynomial divisor, and a series adds only
    # a series
    p, q = P(1, 1), P(-1, 1)
    series = PowerSeries([0, 1], order=3)
    for operation in (lambda: p / q, lambda: divmod(p, 2), lambda: series + 1):
        with pytest.raises(TypeError):
            operation()


def test_poly_gcd_cancels_factor():
    # q^2 - 1 = (q - 1)(q + 1)
    assert poly_gcd(P(-1, 0, 1), P(1, 1)) == P(1, 1)


def test_poly_gcd_coprime_is_one():
    assert poly_gcd(P(0, 1), P(1)) == P(1)


def test_poly_gcd_monic_common_factor():
    # 6q^2 + 6q = 6q(q + 1) and 4q = 4 * q share the monic factor q
    assert poly_gcd(P(0, 6, 6), P(0, 4)) == P(0, 1)


def test_poly_gcd_both_zero_raises():
    with pytest.raises(ValueError):
        poly_gcd(P(), P())


def test_poly_gcd_divides_random_products():
    rng = random.Random(11)
    for _ in range(60):
        a, b, c = (random_polynomial(rng, 3) for _ in range(3))
        if a.is_zero or b.is_zero or c.is_zero:
            continue
        g = poly_gcd(a * c, b * c)
        # the common factor c divides the gcd
        assert (g % c.monic()).is_zero


def _primitive(ints):
    g = math.gcd(*ints)
    return [v // g for v in ints]


def _int_pseudo_rem(a, b):
    """Pseudo-remainder of integer polynomial a by b (lc(b)^k scaled)."""
    rem = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(rem) - 1 >= db and rem:
        if rem[-1] == 0:
            rem.pop()
            continue
        top = rem[-1]
        shift = len(rem) - 1 - db
        rem = [c * lb for c in rem]
        for j, bc in enumerate(b):
            rem[shift + j] -= top * bc
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def prs_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Reference monic gcd of two polynomials, not both zero: a primitive
    pseudo-remainder sequence over the integer numerators, which shares
    only `Polynomial._over` and `monic` with `poly_gcd`."""
    if a.is_zero or b.is_zero:
        return (b if a.is_zero else a).monic()
    pa, pb = _primitive(a._ints), _primitive(b._ints)
    if len(pa) < len(pb):
        pa, pb = pb, pa
    while pb:
        rem = _int_pseudo_rem(pa, pb)
        if rem:
            rem = _primitive(rem)
        pa, pb = pb, rem
    return Polynomial._over(pa, pa[-1])


def test_poly_gcd_retries_when_a_candidate_does_not_divide(monkeypatch):
    from hookforge import exact

    a = P(3, 7, 2)  # (2q + 1)(q + 3)
    b = P(-1, -5, -6, -1, -2)  # -(2q + 1)(q^3 + 3q + 1)
    divexact = exact._int_divexact
    rejected = []

    def spy(x, y):
        try:
            return divexact(x, y)
        except ArithmeticError:
            rejected.append(list(y))
            raise

    monkeypatch.setattr(exact, "_int_divexact", spy)
    g = poly_gcd(a, b)
    monkeypatch.undo()
    # at xi = 2^5 the digits of gcd(a(xi), b(xi)) = 2275 are 2q^2 + 7q + 3,
    # which divides a but not b, so the next round runs
    assert rejected == [[3, 7, 2]]
    assert g == P(Fraction(1, 2), 1) == prs_gcd(a, b)
    assert (a % g).is_zero and (b % g).is_zero


def test_polynomial_rejects_non_rational_coefficients():
    for bad in (0.1, "1/3", None, 1j):
        with pytest.raises(TypeError):
            Polynomial((1, bad))
    with pytest.raises(TypeError):
        Polynomial.monomial(2, 0.5)
    with pytest.raises(TypeError):
        Polynomial((1,)) + 0.5


# -- the stored format: integer numerators over one denominator --------------


def assert_lowest_terms(p: Polynomial):
    assert p._den > 0
    assert math.gcd(p._den, *p._ints) == 1
    assert not p._ints or p._ints[-1] != 0


def assert_same(p: Polynomial, q: Polynomial):
    """Equal values have equal parts, equal coeffs and equal hashes."""
    assert_lowest_terms(p)
    assert_lowest_terms(q)
    assert (p._ints, p._den) == (q._ints, q._den)
    assert p.coeffs == q.coeffs
    assert hash(p) == hash(q)


def test_stored_format_is_one_per_value():
    half_third = P(Fraction(1, 2), Fraction(1, 3))  # (3 + 2q) / 6
    assert (half_third._ints, half_third._den) == ((3, 2), 6)
    for same in (
        Polynomial._over([3, 2], 6),
        Polynomial._over([6, 4], 12),  # a common factor
        Polynomial._over([-3, -2], -6),  # a negative denominator
        Polynomial._over([-9, -6, 0, 0], -18),  # and trailing zeros
        P(Fraction(1, 2)) + P(0, Fraction(1, 3)),
        P(1, Fraction(1, 3)) - P(Fraction(1, 2)),
        P(Fraction(3, 2)) * P(Fraction(1, 3), Fraction(2, 9)),
        P(Fraction(3, 4), Fraction(1, 2)) * Fraction(2, 3),
        P(3, 2) / 6,
    ):
        assert_same(same, half_third)
    # halves that add up to integers leave the denominator 1
    assert_same(P(Fraction(1, 2), Fraction(3, 2)) + P(Fraction(1, 2), Fraction(1, 2)), P(1, 2))
    for zero in (P(0, 0), Polynomial._over([0, 0], 5), Polynomial._over([], -3),
                 half_third - half_third, half_third * 0):
        assert_same(zero, P())
        assert hash(zero) == hash(0)
    for half in (P(Fraction(2, 4)), Polynomial._over([3], 6), Polynomial._over([-1], -2)):
        assert_same(half, P(Fraction(1, 2)))
        assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert_same(Polynomial._over([10], 2), P(5))
    assert hash(P(5)) == hash(5)


# -- rational functions ------------------------------------------------------


def test_normalize_cancels_common_factor():
    f = RationalFunction(P(-1, 0, 1), P(-1, 1))  # (q^2-1)/(q-1)
    assert f.num == P(1, 1) and f.den == P(1)


def test_normalize_makes_denominator_monic():
    # (1+q)/(1-q) = (-1-q)/(q-1)
    f = RationalFunction(P(1, 1), P(1, -1))
    assert f.num == P(-1, -1) and f.den == P(-1, 1)


def test_normalize_zero_numerator():
    f = RationalFunction(P(), P(2, 0, 0, 1))
    assert f.num == P() and f.den == P(1)


def test_normalize_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        RationalFunction(P(1), P())


def test_equal_functions_have_identical_representations():
    a = RationalFunction(P(1, 1), P(1, -1))
    b = RationalFunction(P(2, 2), P(2, -2))
    assert a.num == b.num and a.den == b.den and a == b


def test_product_quotient_roundtrip_random():
    rng = random.Random(71)
    for _ in range(200):
        a = random_polynomial(rng)
        b = random_polynomial(rng)
        if b.is_zero:
            continue
        assert RationalFunction(a * b, b) == RationalFunction(a, P(1))


def test_equality_canonical_and_cross_multiplied_agree():
    rng = random.Random(5150)
    for _ in range(500):
        a = RationalFunction(random_polynomial(rng, 3), P(1) + random_polynomial(rng, 2) ** 2)
        # scaled copy (equal) or an independent draw (usually unequal)
        if rng.random() < 0.5:
            scale = random_polynomial(rng, 2)
            if scale.is_zero:
                continue
            b = RationalFunction(a.num * scale, a.den * scale)
        else:
            b = RationalFunction(random_polynomial(rng, 3), P(1) + random_polynomial(rng, 2) ** 2)
        assert (a == b) == a.cross_equal(b)


def test_ratfunc_arithmetic():
    w1 = RationalFunction(P(1, 1), P(1, -1))
    assert w1 - w1 == RationalFunction.zero()
    assert w1 / w1 == RationalFunction.one()
    assert w1 + 1 == RationalFunction(P(2), P(1, -1))
    assert (w1**2).cross_equal(w1 * w1)


def test_ratfunc_eval():
    w1 = RationalFunction(P(1, 1), P(1, -1))
    assert w1(Fraction(1, 2)) == 3
    assert RationalFunction(P(1, 1), P(1))(0) == 1


def test_ratfunc_eval_pole_raises():
    w1 = RationalFunction(P(1, 1), P(1, -1))
    with pytest.raises(ZeroDivisionError, match="pole"):
        w1(1)


# -- power series ------------------------------------------------------------


def test_series_exp_of_t():
    f = PowerSeries([0, 1], order=3)
    assert series_exp(f) == PowerSeries(
        [1, 1, Fraction(1, 2), Fraction(1, 6)], order=3
    )


def test_series_exp_bivariate_example():
    # exp(t + z t^2/2) to order 2: 1 + t + (1/2 + z/2) t^2
    z_half = Polynomial([0, Fraction(1, 2)])
    f = PowerSeries([Polynomial(), Polynomial([1]), z_half], order=2)
    result = series_exp(f)
    assert result.coefficient(0) == Polynomial([1])
    assert result.coefficient(1) == Polynomial([1])
    assert result.coefficient(2) == Polynomial([Fraction(1, 2), Fraction(1, 2)])


def test_series_exp_of_zero():
    assert series_exp(PowerSeries([0], order=5)) == PowerSeries([1], order=5)


def test_series_exp_nonzero_constant_raises():
    with pytest.raises(ValueError, match="zero constant term"):
        series_exp(PowerSeries([1, 1], order=3))


def test_series_exp_inverse_property():
    rng = random.Random(404)
    for _ in range(50):
        order = rng.randint(1, 8)
        f = PowerSeries(
            [Fraction(0)] + [random_fraction(rng, 6) for _ in range(order)],
            order=order,
        )
        product = series_exp(f) * series_exp(-f)
        assert product == PowerSeries([1], order=order)


def test_series_truncation_invariants():
    s = PowerSeries([1, 2], order=4)
    assert len(s.coeffs) == 5 and s.order == 4
    with pytest.raises(IndexError):
        s.coefficient(5)
    with pytest.raises(ValueError):
        s + PowerSeries([1], order=2)


def test_series_over_rational_function_coefficients():
    w1 = RationalFunction(P(1, 1), P(1, -1))
    f = PowerSeries([RationalFunction.zero(), w1], order=3)
    e = series_exp(f)
    assert e.coefficient(2) == w1 * w1 * Fraction(1, 2)
    assert e.coefficient(3) == w1 * w1 * w1 * Fraction(1, 6)


def test_equal_values_hash_equal():
    assert len({1, Polynomial.one(), RationalFunction.one()}) == 1
    assert hash(P(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert hash(Polynomial.zero()) == hash(0) == hash(RationalFunction.zero())
    p = P(1, 2)
    assert RationalFunction(p) == p
    assert len({p, RationalFunction(p)}) == 1
    assert len({p, RationalFunction(p, 2), RationalFunction(P(1), p)}) == 3


@pytest.mark.parametrize(
    "route",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_exact_values_copy_and_pickle(route):
    p = P(Fraction(1, 2), 0, -3)
    rf = RationalFunction(P(2, 2), P(3, -3, 6))
    series = PowerSeries([Fraction(1, 3), p, rf], order=4)
    for value in (p, Polynomial.zero(), rf, RationalFunction.one(), series):
        back = route(value)
        assert type(back) is type(value)
        assert back == value and hash(back) == hash(value)
    assert route(p)._ints == p._ints and route(p)._den == p._den
    assert route(rf).num == rf.num and route(rf).den == rf.den


def test_int_divexact_on_a_non_monic_divisor():
    assert _int_divexact([3, 5, -2], [1, 2]) == [3, -1]  # (3 - q)(1 + 2q)
    with pytest.raises(ArithmeticError):
        _int_divexact([3, 5, -1], [1, 2])  # top coefficient not a multiple of 2
    with pytest.raises(ArithmeticError):
        _int_divexact([4, 5, -2], [1, 2])  # remainder 1 in the constant term


# -- properties of the integer-backed kernel (hypothesis) ---------------------


def schoolbook_product(a: Polynomial, b: Polynomial) -> Polynomial:
    """Reference product, one Fraction multiply-add per coefficient pair."""
    if a.is_zero or b.is_zero:
        return Polynomial()
    out = [Fraction(0)] * (a.degree + b.degree + 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return Polynomial(out)


def _polynomial_strategy(st):
    fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
    return st.lists(fractions, max_size=6).map(Polynomial)


def test_stored_format_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
    lists = st.lists(fractions, max_size=6)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(lists, lists, st.integers(1, 5), st.sampled_from((1, -1)))
    def one_format(a, b, factor, sign):
        pa, pb = Polynomial(a), Polynomial(b)
        assert_lowest_terms(pa)
        assert_lowest_terms(pb)
        # the same value over a scaled denominator of either sign
        den = sign * factor * math.lcm(1, *(c.denominator for c in a))
        assert_same(Polynomial._over([int(c * den) for c in a], den), pa)
        pairs = list(zip_longest(a, b, fillvalue=0))
        assert_same(pa + pb, Polynomial([x + y for x, y in pairs]))
        assert_same(pa - pb, Polynomial([x - y for x, y in pairs]))
        assert_same(pa * pb, schoolbook_product(pa, pb))

    one_format()


def test_int_mul_matches_the_double_loop_product_property():
    # digits of +-1 take the add and subtract rows, others the multiply row
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    digits = st.one_of(st.sampled_from((-1, 0, 1)), st.integers(-(2**80), 2**80))
    lists = st.lists(digits, min_size=1, max_size=8)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(lists, lists)
    def product(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        assert _int_mul(a, b) == out

    product()


def cross_scaled_sum(a: Polynomial, b: Polynomial) -> Polynomial:
    """Reference sum: both numerators scaled to the product denominator."""
    x = [v * b._den for v in a._ints]
    y = [v * a._den for v in b._ints]
    total = [s + t for s, t in zip_longest(x, y, fillvalue=0)]
    return Polynomial._over(total, a._den * b._den)


def test_sums_over_equal_and_unequal_denominators_are_unchanged():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    ints = st.lists(st.integers(-10**12, 10**12), max_size=6)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(ints, ints, st.integers(1, 12), st.integers(1, 12))
    def same_sum(a, b, den_a, den_b):
        for pa, pb in (
            (Polynomial._over(list(a)), Polynomial._over(list(b))),  # both over 1
            (Polynomial._over(list(a), den_a), Polynomial._over(list(b), den_b)),
        ):
            total = pa + pb
            assert_same(total, cross_scaled_sum(pa, pb))
            assert total.coeffs == Polynomial(
                [x + y for x, y in zip_longest(pa.coeffs, pb.coeffs, fillvalue=0)]
            ).coeffs

    same_sum()
    # the equal-denominator branch, past 1: 1/6 + 5/6 q plus 5/6 - 5/6 q is 1
    half = Polynomial._over([1, 5], 6) + Polynomial._over([5, -5], 6)
    assert (half._ints, half._den) == ((1,), 1)


def test_kernel_properties():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    polys = _polynomial_strategy(st)
    nonzero = polys.filter(lambda p: not p.is_zero)

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(polys, polys)
    def product(a, b):
        assert a * b == schoolbook_product(a, b)
        assert b * a == a * b

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(polys, nonzero)
    def division(a, b):
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(polys, polys)
    def gcd(a, b):
        hypothesis.assume(not (a.is_zero and b.is_zero))
        g = poly_gcd(a, b)
        assert g.is_monic()
        assert (a % g).is_zero and (b % g).is_zero

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(polys, nonzero, nonzero)
    def canonical(n, d, c):
        r = RationalFunction(n, d)
        assert r.den.is_monic()
        assert poly_gcd(r.num, r.den) == Polynomial.one()
        # poly_gcd and the canonical form share `_heu_gcd`: check the reference
        assert prs_gcd(r.num, r.den) == Polynomial.one()
        assert r.num * d == n * r.den  # cross-equal to the unreduced n/d
        scaled = RationalFunction(n * c, d * c)
        assert (scaled.num.coeffs, scaled.den.coeffs) == (r.num.coeffs, r.den.coeffs)

    int_polys = st.lists(st.integers(-20, 20), min_size=1, max_size=6).filter(
        lambda v: v[-1] != 0
    )

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(int_polys, int_polys, int_polys)
    def int_divexact(a, b, r):
        assert _int_divexact(_int_mul(a, b), b) == a
        # a nonzero r of lower degree than b is a remainder: inexact
        r = r[: len(b) - 1]
        hypothesis.assume(any(r))
        inexact = _int_mul(a, b)
        inexact[: len(r)] = [x + y for x, y in zip(inexact, r)]
        with pytest.raises(ArithmeticError):
            _int_divexact(inexact, b)

    for prop in (product, division, gcd, canonical, int_divexact):
        prop()


def test_poly_gcd_matches_the_pseudo_remainder_sequence_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # small coefficients share factors often; large ones (up to 10^12) make
    # the first packing base large
    large = st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 6))
    polys = st.one_of(_polynomial_strategy(st), st.lists(large, max_size=6).map(Polynomial))
    nonzero = polys.filter(lambda p: not p.is_zero)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(polys, polys, nonzero)
    def same_gcd(a, b, c):
        hypothesis.assume(not (a.is_zero and b.is_zero))
        g = poly_gcd(a * c, b * c)
        assert g == prs_gcd(a * c, b * c)
        # RationalFunction divides by these numerators as the primitive gcd
        assert math.gcd(*g._ints) == 1
        if not (a.is_zero or b.is_zero):
            # the canonical form's parts are `_heu_gcd`'s quotients: times the
            # reference gcd's primitive numerators, they give back the inputs
            pa, pb = (_primitive((p * c)._ints) for p in (a, b))
            _, qa, qb = _heu_gcd(pa, pb)
            ref = list(prs_gcd(a * c, b * c)._ints)
            assert (_int_mul(qa, ref), _int_mul(qb, ref)) == (pa, pb)

    same_gcd()
