"""Tests for the factored cyclotomic path: the Kronecker-point summation
behind `_materialize`, checked against generic rational-function arithmetic,
and perturbed term lists showing that the factored comparisons can fail."""

from functools import cache

import pytest

from hookforge import identity
from hookforge.exact import Polynomial, RationalFunction
from hookforge.identity import (
    _WeightProduct,
    _cyclo_sum,
    _lemma1_terms,
    _materialize,
    _phi_terms,
    _weight_product_of_hooks,
    phi_n,
    verify_lemma1,
    verify_theorem1prime,
    weight_lambda,
    weight_w,
)
from hookforge.involutions import psi_n
from hookforge.partitions import Partition, f_lambda, hooks, partitions_of


@cache
def generic_cyclotomic(d: int) -> Polynomial:
    """Phi_d by exact division of q^d - 1 over the rationals, independent of
    the factored path's own integer table."""
    poly = Polynomial.monomial(d) - 1
    for e in range(1, d):
        if d % e == 0:
            poly = poly // generic_cyclotomic(e)
    return poly


def generic_cyclo_sum(terms) -> Polynomial:
    total = Polynomial.zero()
    for c, cofactor in terms:
        prod = Polynomial((c,))
        for d, k in cofactor.items():
            prod = prod * generic_cyclotomic(d) ** k
        total = total + prod
    return total


def generic_value(wp: _WeightProduct) -> RationalFunction:
    value = RationalFunction(wp.sign)
    for d, e in wp.expo.items():
        value = value * RationalFunction(generic_cyclotomic(d)) ** e
    return value


def assert_same(got: RationalFunction, expected: RationalFunction):
    assert got.num == expected.num and got.den == expected.den


# -- unpacking edge cases ------------------------------------------------------


def test_sum_cancelling_to_zero():
    assert _cyclo_sum([(5, {1: 2, 3: 1}), (-5, {3: 1, 1: 2})]) == []
    # w((2)) + w((1,1)) - w(1)^2 - 1 = 0: both shapes have hooks {1, 2}
    terms = [
        (2, _weight_product_of_hooks([1, 2])),
        (-1, _weight_product_of_hooks([1, 1])),
        (-1, _WeightProduct()),
    ]
    assert _materialize(terms) == RationalFunction.zero()


def test_negative_leading_coefficient():
    # -5 (q - 1)^2: the top digit borrows from nothing above it
    assert _cyclo_sum([(-5, {1: 2})]) == [-5, 10, -5]
    # w(1) = (1 + q)/(1 - q) in canonical form is -(1 + q)/(q - 1)
    got = _materialize([(1, _WeightProduct().mul_w(1))])
    assert got.num.coeffs == (-1, -1) and got.den.coeffs == (-1, 1)
    assert_same(got, weight_w(1))


@pytest.mark.parametrize("bits", [1, 7, 8, 9, 15, 16, 63, 64, 65, 200])
def test_single_term_at_the_bound(bits):
    # a constant term's coefficient is the bound itself
    for c in (2**bits - 1, 2**bits, -(2**bits - 1), -(2**bits)):
        assert _cyclo_sum([(c, {})]) == [c]
        # (q - 1) has both coefficients at half the bound
        assert _cyclo_sum([(c, {1: 1})]) == [-c, c]
        # (q + 1)^3 (q^2 + q + 1)
        expected = generic_cyclo_sum([(c, {2: 3, 3: 1})])
        assert _cyclo_sum([(c, {2: 3, 3: 1})]) == list(expected.coeffs)


def test_terms_adding_up_past_one_terms_bound():
    # the bound is a sum over the terms, not the largest term's bound
    assert _cyclo_sum([(127, {})] * 4) == [508]
    terms = [(2**15 - 1, {})] * 3 + [(-(2**15), {1: 1})] * 2
    assert _cyclo_sum(terms) == list(generic_cyclo_sum(terms).coeffs)


def test_alternating_signs():
    # term coefficients alternate, and so do the coefficients of (q - 1)^k
    terms = [((-1) ** i * (17 + 100 * i), {1: 2 * i + 1, 4: i}) for i in range(6)]
    expected = generic_cyclo_sum(terms)
    got = _cyclo_sum(terms)
    assert got == list(expected.coeffs)
    assert any(a < 0 < b or b < 0 < a for a, b in zip(got, got[1:]))
    wps = [
        (c, _WeightProduct(1, {1: -k, 4: -j}))
        for c, k, j in [(1, 3, 1), (-2, 2, 0), (3, 1, 2), (-4, 4, 1)]
    ]
    expected_rf = sum((c * generic_value(wp) for c, wp in wps), RationalFunction.zero())
    assert_same(_materialize(wps), expected_rf)


def test_coefficient_zero_terms_are_skipped():
    wp = _weight_product_of_hooks([1, 3])
    assert _materialize([(0, wp)]) == RationalFunction.zero()
    assert_same(_materialize([(0, wp), (2, _WeightProduct())]), RationalFunction(2))


# -- oracle: random term lists against generic arithmetic -----------------------


def test_materialize_matches_generic_sums_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    hook_products = st.lists(
        st.tuples(
            st.integers(-8, 8).filter(bool),  # a hook length, sign included
            st.integers(-2, 2),  # its power
        ),
        max_size=4,
    ).map(lambda hs: ("hooks", hs))
    exponent_vectors = st.tuples(
        st.sampled_from((1, -1)),
        st.dictionaries(st.integers(1, 12), st.integers(-3, 3).filter(bool), max_size=4),
    ).map(lambda v: ("expo", v))
    term_lists = st.lists(
        st.tuples(st.integers(-60, 60), st.one_of(hook_products, exponent_vectors)),
        max_size=5,
    )

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(term_lists)
    def check(raw):
        terms = []
        expected = RationalFunction.zero()
        for coeff, (kind, data) in raw:
            if kind == "hooks":
                wp = _WeightProduct()
                generic = RationalFunction.one()
                for h, power in data:
                    wp.mul_w(h, power)
                    generic = generic * weight_w(h) ** power
            else:
                sign, expo = data
                wp = _WeightProduct(sign, dict(expo))
                generic = generic_value(wp)
            terms.append((coeff, wp))
            expected = expected + coeff * generic
        assert_same(_materialize(terms), expected)

    check()


# -- the order in which the terms are summed ------------------------------------


def test_cyclo_sum_ignores_term_order_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    cofactors = st.dictionaries(st.integers(1, 12), st.integers(1, 3), max_size=4)
    terms = st.lists(st.tuples(st.integers(-60, 60), cofactors), max_size=8)

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(terms, st.data())
    def check(raw, data):
        # equal cofactors (a repeated term, and one with its sign flipped)
        # and an empty cofactor are always among the terms
        terms = raw + raw[:1] + [(-c, dict(e)) for c, e in raw[1:2]] + [(3, {})]
        expected = list(generic_cyclo_sum(terms).coeffs)
        assert _cyclo_sum(terms) == expected
        shuffled = data.draw(st.permutations(terms))
        assert _cyclo_sum(shuffled) == expected

    check()


def test_factored_sums_match_independent_routes():
    # phi_n and each shape's weight against plain products of hook weights
    # summed over the shapes, while that stays cheap (its cost grows about
    # fourfold per two boxes) ...
    for n in range(11):
        total = RationalFunction.zero()
        for lam in partitions_of(n):
            weight = RationalFunction.one()
            for h in hooks(lam):
                weight = weight * weight_w(h)
            if n <= 8:
                assert_same(weight_lambda(lam), weight)
            total = total + f_lambda(lam) * weight
        assert_same(phi_n(n), total)
    # ... and phi_n against psi_n's integer recursion (Theorem 1'), which
    # sums no cyclotomic terms, up to n = 28
    for n in range(29):
        assert_same(phi_n(n), psi_n(n))


# -- the factored comparisons can fail ------------------------------------------


def _shift_hook_one(wp: _WeightProduct) -> _WeightProduct:
    """The same product with one hook of length 1 made a hook of length 2."""
    return wp.copy().mul_w(1, -1).mul_w(2)


@pytest.mark.parametrize("perturbation", ["count", "hook"])
def test_perturbed_phi_terms_fail_theorem1prime(monkeypatch, perturbation):
    n = 7
    terms = _phi_terms(n)
    assert _materialize(terms) == psi_n(n)
    coeff, wp = terms[3]
    if perturbation == "count":
        terms[3] = (coeff + 1, wp)  # an off-by-one f-lambda
    else:
        terms[3] = (coeff, _shift_hook_one(wp))  # every shape of n >= 1 has a hook 1
    wrong = _materialize(terms)
    assert wrong != psi_n(n)

    real_phi = identity.phi_n
    monkeypatch.setattr(identity, "phi_n", lambda m: wrong if m == n else real_phi(m))
    witness = verify_theorem1prime(n)
    assert witness is not None
    assert witness == (
        f"n={n}: involution side {psi_n(n).format()} != tableau side {wrong.format()}"
    )
    assert verify_theorem1prime(n - 1) is None


def test_perturbed_lemma1_terms_fail(monkeypatch):
    lam = Partition((3, 1))
    lhs, rhs = _lemma1_terms(lam)
    assert _materialize(lhs) == _materialize(rhs)
    lhs[0] = (1, lhs[0][1].copy().mul_w(2))  # one extension ratio times w(2)
    assert _materialize(lhs) != _materialize(rhs)

    monkeypatch.setattr(identity, "_lemma1_terms", lambda shape: (lhs, rhs))
    witness = verify_lemma1(lam)
    assert witness is not None
    assert witness.startswith(f"shape={lam.serialize()}: extensions ")
    assert _materialize(lhs).format() in witness
