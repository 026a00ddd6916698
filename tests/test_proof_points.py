"""Each check that proves its range with one exact value is tested against
the inequality that makes that value a proof.

A true identity evaluates right at any point, so no test that breaks the
identity can catch a weakened point.  `identity._prop2_point`,
`involutions._egf_point` and `identity._prop3_point` give the points as
functions of their size; the tests read them, build what their docstrings
bound with the generic kernel, and check every size the sweeps reach.
"""

from itertools import combinations
from math import comb, factorial

from hookforge import identity, involutions
from hookforge.exact import Polynomial, RationalFunction
from hookforge.identity import _prop2_point, _prop2_substitution_witness
from hookforge.involutions import g_poly
from hookforge.partitions import corner_profile, partitions_of

# A shape with d outer corners has at least d(d-1)/2 cells, so the 2d - 1
# contents of any shape up to 209 cells number at most 39; the egf and prop3
# sweeps in the tests and the README run to order 20 and n = 60.
CONTENT_COUNTS = range(1, 40)
EGF_ORDERS = range(21)
PROP3_SIZES = range(1, 61)


def cleared_difference(xs: list[int], ys: list[int]) -> Polynomial:
    """N - V of `_prop2_substitution_witness` for the contents xs + ys, in
    the generic kernel: with u_i = s_i q^(top - c_i), f the symmetric sum of
    the ratios (u_k + u_i)/(u_k - u_i) and V = prod_{i<j} (u_i - u_j), it is
    (f - 1) V, which must be a polynomial."""
    contents = xs + ys
    top = max(contents)
    us = [Polynomial.monomial(top - x) for x in xs]
    us += [-Polynomial.monomial(top - y) for y in ys]
    f = RationalFunction.zero()
    for k, uk in enumerate(us):
        term = RationalFunction.one()
        for i, ui in enumerate(us):
            if i != k:
                term = term * RationalFunction(uk + ui, uk - ui)
        f = f + term
    v = Polynomial.one()
    for ui, uj in combinations(us, 2):
        v = v * (ui - uj)
    return ((f - 1) * v).as_polynomial()


def l1_norm(p: Polynomial) -> int:
    assert all(c.denominator == 1 for c in p.coeffs)
    return sum(abs(int(c)) for c in p.coeffs)


def test_prop2_norm_bound_holds_for_true_and_false_contents():
    # true: an odd count of distinct contents, those of shapes or not, where
    # f = 1 and N - V = 0; false: even counts, where f = 0 and N - V = -V
    true = [
        (list(p.outer_contents), list(p.inner_contents))
        for m in range(7)
        for p in map(corner_profile, partitions_of(m))
    ]
    true += [([2, -4], [0]), ([7, -1, 3], [0, 5])]
    false = [([3, 0], [1, -2]), ([1], [0]), ([5, 2, -1], [4, 0, -3]), ([2, -4, 7], [0])]
    for xs, ys in true + false:
        n = len(xs + ys)
        difference = cleared_difference(xs, ys)
        assert (difference == 0) == ((xs, ys) in true), (xs, ys)
        assert l1_norm(difference) <= (n + 1) * 2 ** comb(n, 2), (xs, ys)


def test_prop2_point_lies_beyond_cauchys_bound_at_every_content_count():
    # Cauchy: an integer polynomial with 1-norm at most B has no root q >= B + 1
    for n in CONTENT_COUNTS:
        assert _prop2_point(n) >= 2 + (n + 1) * 2 ** comb(n, 2), n
    # and the recheck evaluates there
    witness = _prop2_substitution_witness([3, 0], [1, -2])
    assert f" at q={_prop2_point(4)} is 0, expected 1" in witness


def test_egf_point_separates_the_monomials_and_lies_beyond_cauchys_bound(monkeypatch):
    seen = []
    monkeypatch.setattr(
        involutions, "verify_involution_egf", lambda order, u1, u2: seen.append((u1, u2)) or True
    )
    for order in EGF_ORDERS:
        assert involutions.verify_egf_kronecker(order) is None
        [(x0, u2)] = seen
        seen.clear()
        # every coefficient of D_n, n <= order, is at most I(n) <= order!
        assert x0 >= 2 + factorial(order), order
        # u1^a u2^b with a + 2b <= n <= order goes to distinct integers
        images = [x0**a * u2**b for a in range(order + 1) for b in range((order - a) // 2 + 1)]
        assert len(set(images)) == len(images), order


def test_egf_coefficients_stay_within_the_bound():
    # the coefficients of g_n, read one to a power of x through the same
    # separation, are at most order! and number one per monomial
    x = Polynomial.monomial(1)
    for order in range(9):
        for n in range(order + 1):
            g = g_poly(n, x, x ** (order + 1))
            coeffs = [int(c) for c in g.coeffs if c]
            assert len(coeffs) == n // 2 + 1
            assert sum(coeffs) == g_poly(n, 1, 1) and max(coeffs) <= factorial(order)


def test_prop3_proof_point_has_n_distinct_nonzero_values(monkeypatch):
    # the alternant lemma fixes the constant from one value at distinct
    # points; verify_prop3 also needs them nonzero
    seen = []
    monkeypatch.setattr(identity, "verify_prop3", lambda a: seen.append(list(a)))
    monkeypatch.setattr(identity, "verify_prop3_alternating", lambda n: None)
    for n in PROP3_SIZES:
        # no seeded trial: the proof point is the only direct sum
        assert list(identity.prop3_checks(0, n, 0)) in ([], [None])
        [point] = seen
        seen.clear()
        assert len(set(point)) == len(point) == n and 0 not in point, n
