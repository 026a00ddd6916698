"""Tests for the identity verification engine."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

from hookforge.exact import Polynomial, PowerSeries, RationalFunction
from hookforge.identity import (
    hook_weight_sum,
    phi_n,
    rho,
    sample_distinct_rationals,
    verify_corner_hooks,
    verify_lemma1,
    verify_phi_recursion,
    verify_prop2,
    verify_prop2_for_shape,
    verify_prop3,
    verify_prop3_alternating,
    verify_prop3_residues,
    verify_theorem1,
    verify_theorem1prime,
    verify_weight_substitution,
    weight_lambda,
    weight_w,
)
from hookforge.involutions import g_poly
from hookforge.partitions import (
    Partition,
    add_cell,
    addable_cells,
    corner_profile,
    f_lambda,
    hooks,
    partitions_of,
    removable_cells,
    remove_cell,
)
from support import defined_functions, reach


def P(*coeffs):
    return Polynomial(coeffs)


def poison_engine(monkeypatch, poisoned, *entry_points):
    """Replace every function that `hookforge._factored` defines, and the
    named entry points of `hookforge.identity`, by `poisoned`."""
    from hookforge import _factored, identity

    for name in defined_functions(_factored):
        monkeypatch.setattr(_factored, name, poisoned)
    for name in entry_points:
        monkeypatch.setattr(identity, name, poisoned)


def naive_weight(lam):
    """Shape weight through generic arithmetic only, no factored fast path."""
    total = RationalFunction.one()
    for h in hooks(lam):
        total = total * weight_w(h)
    return total


# -- hook weight w -----------------------------------------------------------


def test_weight_w_examples():
    assert weight_w(1) == RationalFunction(P(1, 1), P(1, -1))
    assert weight_w(2) == RationalFunction(P(1, 0, 1), P(1, 0, -1))
    assert weight_w(-1) == -weight_w(1)


def test_weight_w_zero_raises():
    with pytest.raises(ValueError, match="pole"):
        weight_w(0)


def test_weight_w_antisymmetry():
    for h in range(1, 51):
        assert weight_w(-h) == -weight_w(h)


def test_weight_lambda_examples():
    assert weight_lambda(Partition(())) == RationalFunction.one()
    assert weight_lambda(Partition((1,))) == weight_w(1)
    # hooks of (2) are {2, 1}
    assert weight_lambda(Partition((2,))) == weight_w(1) * weight_w(2)


def test_weight_lambda_matches_generic_product():
    # validates the factored cyclotomic engine against plain arithmetic
    for n in range(9):
        for lam in partitions_of(n):
            assert weight_lambda(lam) == naive_weight(lam), lam


# -- the interpolating weight and its series ---------------------------------


def test_rho_examples():
    assert rho(1) == RationalFunction.one()
    assert rho(2) == RationalFunction(P(1, 1), P(4))
    assert rho(3) == RationalFunction(P(1, 3), P(9, 3))
    with pytest.raises(ValueError):
        rho(0)


def test_rho_specializes_to_hook_reciprocals():
    for h in range(1, 12):
        assert rho(h)(0) == Fraction(1, h * h)
        assert rho(h)(1) == Fraction(1, h)


def test_hook_weight_sum_is_polynomial_with_positive_coeffs():
    for n in range(9):
        total = hook_weight_sum(n)
        assert total.is_polynomial
        poly = total.as_polynomial()
        assert poly.degree == n // 2
        assert all(c > 0 for c in poly.coeffs)
        assert poly(0) == Fraction(1, factorial(n))
        assert poly(1) == Fraction(g_poly(n, 1, 1), factorial(n))


def test_theorem1_second_coefficient():
    # the two shapes of 2 each contribute (1 + z)/4
    assert hook_weight_sum(2) == RationalFunction(P(1, 1), P(2))


def test_verify_theorem1():
    witness = verify_theorem1(8)
    assert witness is None, witness


# -- the two sides of the expansion identity ---------------------------------


def test_phi_small_values():
    assert phi_n(0) == RationalFunction.one()
    assert phi_n(1) == weight_w(1)
    assert phi_n(2) == RationalFunction(P(2, 0, 2), P(1, -2, 1))


def test_phi_matches_generic_sum():
    for n in range(7):
        total = RationalFunction.zero()
        for lam in partitions_of(n):
            total = total + f_lambda(lam) * naive_weight(lam)
        assert total == phi_n(n)


def test_verify_theorem1prime_small():
    for n in range(9):
        witness = verify_theorem1prime(n)
        assert witness is None, witness


def test_verify_phi_recursion():
    for n in range(7):
        assert verify_phi_recursion(n) is None
    assert phi_n(1) == weight_w(1) * phi_n(0)  # the boundary case spelled out


# -- extend-retract identity --------------------------------------------------


def naive_lemma_check(lam):
    """The extend-retract identity through generic arithmetic, undivided."""
    lhs = RationalFunction.zero()
    for cell in addable_cells(lam):
        lhs = lhs + naive_weight(add_cell(lam, cell))
    rhs = weight_w(1) * naive_weight(lam)
    for cell in removable_cells(lam):
        rhs = rhs + naive_weight(remove_cell(lam, cell))
    return lhs == rhs


def test_verify_lemma1_examples():
    assert verify_lemma1(Partition(())) is None
    assert verify_lemma1(Partition((1,))) is None
    assert verify_lemma1(Partition((2, 1))) is None
    # the single-cell case written out: w((2)) + w((1,1)) = w(1)^2 + 1
    lhs = weight_lambda(Partition((2,))) + weight_lambda(Partition((1, 1)))
    assert lhs == weight_w(1) ** 2 + 1
    assert lhs == RationalFunction(P(2, 0, 2), P(1, -2, 1))


def test_verify_lemma1_matches_undivided_generic_route():
    for n in range(7):
        for lam in partitions_of(n):
            assert (verify_lemma1(lam) is None) == naive_lemma_check(lam)
            assert verify_lemma1(lam) is None


def test_verify_lemma1_sweep():
    for n in range(10):
        for lam in partitions_of(n):
            witness = verify_lemma1(lam)
            assert witness is None, witness


# -- corner content relations --------------------------------------------------


def test_corner_hooks_example_values():
    # extending (3,1) at its content-0 corner: the hook above becomes 3
    lam = Partition((3, 1))
    prof = corner_profile(lam)
    assert prof.outer_contents[0] - prof.outer_contents[1] == 3
    assert verify_corner_hooks(lam, 2) is None

    assert verify_corner_hooks(Partition((1,)), 1) is None  # vacuous products

    # (2,2): hook at (1,2) equals outer content 2 minus inner content 0
    assert verify_corner_hooks(Partition((2, 2)), 1) is None


def test_corner_hooks_index_validation():
    with pytest.raises(ValueError):
        verify_corner_hooks(Partition((2, 1)), 0)
    with pytest.raises(ValueError):
        verify_corner_hooks(Partition((2, 1)), 5)


def test_corner_hooks_sweep():
    for n in range(10):
        for lam in partitions_of(n):
            d = len(corner_profile(lam).outer_cells)
            for k in range(1, d + 1):
                witness = verify_corner_hooks(lam, k)
                assert witness is None, witness


@pytest.mark.fails("lemma1")
def test_corner_hooks_fail_on_an_off_by_one_hook(monkeypatch):
    from hookforge import cli, identity

    real_hook_length = identity.hook_length
    monkeypatch.setattr(identity, "hook_length", lambda lam, cell: real_hook_length(lam, cell) + 1)
    witness = verify_corner_hooks(Partition((3, 1)), 2)
    assert witness is not None
    assert witness.startswith("shape=3,1, k=2: extended row 1: hook at (1, 2) in 3,2 is 4, expected 3; ")
    # the extend-retract sums read hooks(), so the corner relations fail the unit
    report = cli.Unit("lemma1", {"n": 4})()
    assert report.verdict == "fail"
    assert ", k=" in report.witness


@pytest.mark.independence("lemma1")
def test_lemma1_routes_share_only_the_shape_helpers():
    # at the shape (4, 3, 1), the extend-retract difference and the corner
    # hook relations at every corner share only the shape helpers of
    # `partitions`: the constructor, the conjugate, the corners and the
    # one-cell edits
    lam = Partition((4, 3, 1))
    corners = range(1, len(corner_profile(lam).outer_cells) + 1)
    extend_retract = reach(verify_lemma1, lam)
    corner_hooks = reach(lambda: [verify_corner_hooks(lam, k) for k in corners])
    assert "identity._materialize" in extend_retract
    assert "partitions.hook_length" in corner_hooks
    assert sorted(extend_retract & corner_hooks) == [
        "partitions.Partition.__new__",
        "partitions._conjugate_parts",
        "partitions.add_cell",
        "partitions.addable_cells",
        "partitions.removable_cells",
        "partitions.remove_cell",
    ]


# -- corner content identity (interlaced weight-ratio sums) --------------------


def test_prop2_single_corner_is_trivial():
    assert verify_prop2([0], []) is None
    assert verify_prop2([17], []) is None


def test_prop2_content_examples():
    assert verify_prop2([3, 0, -2], [2, -1]) is None
    assert verify_prop2([2, -2], [0]) is None


def test_prop2_rejects_duplicates():
    with pytest.raises(ValueError, match="distinct"):
        verify_prop2([3, 0, 3], [2, -1])
    with pytest.raises(ValueError, match="distinct"):
        verify_prop2([3, 0], [3])


def test_prop2_rejects_non_integer_contents():
    with pytest.raises(TypeError):
        verify_prop2([Fraction(1, 2), 0], [1])


def test_prop2_shape_sweep():
    for n in range(10):
        for lam in partitions_of(n):
            witness = verify_prop2_for_shape(lam)
            assert witness is None, witness


# -- symmetric two-term sum -----------------------------------------------------


def test_prop3_examples():
    assert verify_prop3([5]) is None
    assert verify_prop3([1, 2]) is None
    # 3*5/((-1)(-3)) + 3*6/(1*(-2)) + 5*6/(3*2) = 5 - 9 + 5 = 1
    assert verify_prop3([1, 2, 4]) is None


def test_prop3_value_by_hand():
    from hookforge.identity import _signed_ratio_sum

    assert _signed_ratio_sum([Fraction(1), Fraction(2), Fraction(4)]) == 1
    assert _signed_ratio_sum([Fraction(1), Fraction(2)]) == 0


def test_prop3_rejects_bad_inputs():
    with pytest.raises(ValueError, match="distinct"):
        verify_prop3([1, 1, 2])
    with pytest.raises(ValueError, match="distinct"):
        verify_prop3([0, 1])
    with pytest.raises(ValueError):
        verify_prop3([])


def test_prop3_random_vectors():
    rng = random.Random(8128)
    for n in range(1, 21):
        vector = sample_distinct_rationals(rng, n)
        assert verify_prop3(vector) is None


def test_prop3_residues_single_value():
    # (t+1)/(t-1) = 1 + 2/(t-1): the only residue is 2
    assert verify_prop3_residues([1]) is None


def test_prop3_residues_frozen_pair():
    # b = (-3, 3) so the residues are (-6, 12); at t=0: 1 - (-6 + 6) = 1
    witness = verify_prop3_residues([1, 2])
    assert witness is None, witness
    # the frozen values, recomputed here by plain polynomial division in t
    num = P(1, 1) * P(2, 1)  # (t+1)(t+2)
    den = P(-1, 1) * P(-2, 1)  # (t-1)(t-2)
    c1 = num(Fraction(1)) / (den // P(-1, 1))(Fraction(1))
    c2 = num(Fraction(2)) / (den // P(-2, 1))(Fraction(2))
    assert (c1, c2) == (-6, 12)
    assert 1 - (c1 / 1 + c2 / 2) == 1  # the t = 0 evaluation


def test_prop3_residues_match_deleted_products():
    rng = random.Random(496)
    for n in (3, 7, 12):
        vector = sample_distinct_rationals(rng, n)
        assert verify_prop3_residues(vector) is None


def test_prop3_residues_reject_zero_sum_pairs():
    with pytest.raises(ValueError):
        verify_prop3_residues([3, -3, 1])


def test_prop3_alternating():
    for n in range(2, 7):
        witness = verify_prop3_alternating(n)
        assert witness is None, witness
    with pytest.raises(ValueError):
        verify_prop3_alternating(1)
    with pytest.raises(ValueError):
        verify_prop3_alternating(7)


def test_alternating_left_side_vanishes_for_two_values():
    # (a_1 + a_2) - (a_2 + a_1) = 0
    witness = verify_prop3_alternating(2)
    assert witness is None


@pytest.mark.fails("prop3")
def test_prop3_alternating_fails_on_a_flipped_summand(monkeypatch):
    from hookforge import _multipoly as mp
    from hookforge import identity

    difference_product = identity._difference_product

    def flipped(n, skip=None):  # negates the k = n - 1 summand of V*f, not V
        out = difference_product(n, skip)
        return mp.mp_neg(out) if skip == n - 1 else out

    monkeypatch.setattr(identity, "_difference_product", flipped)
    for n in range(2, 7):
        witness = verify_prop3_alternating(n)
        assert witness is not None and witness.startswith(f"n={n}: "), witness
        assert f"and {n % 2}*V differ in " in witness
    # one monomial is named, not the whole expansion
    assert len(witness) < 300


@pytest.mark.fails("prop3")
def test_prop3_alternating_fails_on_a_faulty_monomial_product(monkeypatch):
    # V is expanded as a determinant, not by mp_mul, so a product kernel that
    # joins monomials by `|` in place of `+` breaks V*f alone
    from hookforge import _multipoly as mp
    from hookforge import cli, identity

    def or_joined(a, b):
        out: mp.MPoly = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                out[ma | mb] = out.get(ma | mb, 0) + ca * cb
        return {mono: c for mono, c in out.items() if c}

    monkeypatch.setattr(identity.mp, "mp_mul", or_joined)
    report = cli.Unit("prop3", {"n": 3, "trials": 1}, 0)()
    assert report.verdict == "fail"
    assert report.witness.startswith("n=3: V*f and 1*V differ in 6 monomials"), report.witness


@pytest.mark.independence("prop3")
def test_prop3_routes_share_only_the_validation_and_the_deleted_products():
    # at the seeded vector of prop3_checks' first trial at n = 5, the direct
    # sum and the residues share only the input validation and the deleted
    # products (the residue is 2 a_k b_k); the symbolic route at n = 5 shares
    # nothing with either
    from hookforge.identity import _keyed_rng

    vector = sample_distinct_rationals(_keyed_rng(0, "prop3", 5, 0), 5)
    direct = reach(verify_prop3, vector)
    residues = reach(verify_prop3_residues, vector)
    symbolic = reach(verify_prop3_alternating, 5)
    assert "identity._signed_ratio_sum" in direct
    assert "identity._linear_products" in residues
    assert "_multipoly.mp_mul" in symbolic
    assert sorted(direct & residues) == [
        "identity._deleted_products",
        "identity._validate_distinct_nonzero",
    ]
    assert sorted(symbolic & (direct | residues)) == []


def test_prop3_alternating_summands_have_the_degree_of_v():
    # the alternant lemma's premise: each summand prod_{i != k}(a_k + a_i) V_k
    # of V*f, built as verify_prop3_alternating builds it, is homogeneous of
    # total degree C(n, 2) = deg V
    from hookforge import _multipoly as mp
    from hookforge.identity import _difference_product

    for n in range(2, 7):
        assert {sum(mono.to_bytes(n, "little")) for mono in _difference_product(n)} == {comb(n, 2)}
        for k in range(n):
            summand = _difference_product(n, skip=k)
            for i in range(n):
                if i != k:
                    summand = mp.mp_mul(summand, mp.mp_add(mp.mp_var(n, k), mp.mp_var(n, i)))
            assert {sum(mono.to_bytes(n, "little")) for mono in summand} == {comb(n, 2)}, (n, k)


# -- substitution between the z-form and q-form weights -------------------------


def test_weight_substitution_examples():
    assert verify_weight_substitution(1) is None
    assert verify_weight_substitution(2) is None
    assert verify_weight_substitution(3) is None


def test_weight_substitution_canonical_value_at_two():
    # both sides reduce to (1 + q^2) / (2 (1 + q)^2)
    expected = RationalFunction(P(1, 0, 1), 2 * P(1, 1) ** 2)
    lhs = rho(2)  # (1+z)/4 evaluated at z = ((1-q)/(1+q))^2
    num = P(1, 1) ** 2 + P(1, -1) ** 2
    assert RationalFunction(num, 4 * P(1, 1) ** 2) == expected
    rhs = weight_w(2) * RationalFunction(P(1, -1), 2 * P(1, 1))
    assert rhs == expected
    assert lhs(Fraction(1, 4)) == Fraction(5, 16)  # sanity: (1 + 1/4)/4


def test_weight_substitution_sweep():
    for n in range(1, 13):
        witness = verify_weight_substitution(n)
        assert witness is None, witness


# -- sampling -------------------------------------------------------------------


def test_sample_distinct_rationals_properties():
    rng = random.Random(42)
    values = sample_distinct_rationals(rng, 40)
    assert len(values) == 40
    assert all(v != 0 for v in values)
    assert len({abs(v) for v in values}) == 40  # distinct, no zero-sum pairs
    again = sample_distinct_rationals(random.Random(42), 40)
    assert values == again


def test_reports_carry_reproducible_witnesses():
    bad = verify_prop2([3, 0, -2], [2, -1])
    assert bad is None


@pytest.mark.fails("prop2")
def test_prop2_substitution_recheck_can_fail():
    from hookforge.identity import _prop2_substitution_witness

    # d outer and d inner contents: an even number of values, whose
    # symmetric sum is 0, not 1
    xs, ys = [3, 0], [1, -2]
    witness = _prop2_substitution_witness(xs, ys)
    q0 = 2 + 5 * 2**6
    assert witness is not None
    assert f"xs={xs}, ys={ys}" in witness and f"q={q0}" in witness
    assert "is 0, expected 1" in witness
    assert _prop2_substitution_witness([3, 0, -2], [2, -1]) is None


def test_prop2_substitution_recheck_is_independent(monkeypatch):
    from hookforge import identity

    def forbidden(*args, **kwargs):
        raise AssertionError("the recheck must not use the factored route")

    poison_engine(monkeypatch, forbidden, "_materialize", "weight_w")
    assert identity._prop2_substitution_witness([4, 1, -1, -4], [2, 0, -3]) is None


@pytest.mark.fails("substitution")
def test_substitution_fails_on_a_perturbed_binomial(monkeypatch):
    from hookforge import identity

    binomials = identity._substitution_binomials

    def perturbed(n):
        even, odd = binomials(n)
        return even, odd[:-1] + [odd[-1] + 1]

    monkeypatch.setattr(identity, "_substitution_binomials", perturbed)
    for n in (1, 4, 7):
        witness = verify_weight_substitution(n)
        assert witness is not None
        assert witness.startswith(f"n={n}: substituted weight ")
    monkeypatch.undo()
    assert verify_weight_substitution(4) is None


@pytest.mark.fails("substitution")
def test_rho_is_built_from_the_binomials_the_substitution_checks(monkeypatch):
    from hookforge import identity

    binomials = identity._substitution_binomials
    real = rho(4)

    def perturbed(n):
        even, odd = binomials(n)
        return even, odd[:-1] + [odd[-1] + 1]

    rho.cache_clear()
    try:
        monkeypatch.setattr(identity, "_substitution_binomials", perturbed)
        assert rho(4) != real
        assert rho(4) == RationalFunction(P(1, 6, 1), P(16, 20))
        witness = verify_weight_substitution(4)
    finally:
        monkeypatch.undo()
        rho.cache_clear()
    assert witness is not None and witness.startswith("n=4: substituted weight ")
    assert rho(4) == real


@pytest.mark.fails("theorem1")
def test_theorem1_fails_on_an_off_by_one_interpolating_weight(monkeypatch):
    from hookforge import identity

    real_rho = identity.rho
    hook_weight_sum.cache_clear()
    try:
        monkeypatch.setattr(identity, "rho", lambda n: real_rho(3 if n == 2 else n))
        witness = verify_theorem1(4)
    finally:
        monkeypatch.undo()
        hook_weight_sum.cache_clear()
    # both shapes of 2 have hooks {2, 1}, and rho(1) = 1
    wrong = 2 * real_rho(3)
    assert witness is not None
    assert witness == f"n=2: shape sum is not polynomial: {wrong.format('z')}"
    assert verify_theorem1(4) is None


@pytest.mark.fails("theorem1")
def test_theorem1_fails_when_canonicalisation_does_not_reduce(monkeypatch):
    from hookforge import exact

    real = exact._heu_gcd
    rho.cache_clear()
    hook_weight_sum.cache_clear()
    try:
        # the gcd is found, but the "quotients" are the undivided parts
        monkeypatch.setattr(exact, "_heu_gcd", lambda a, b: (real(a, b)[0], list(a), list(b)))
        witness = verify_theorem1(4)
    finally:
        monkeypatch.undo()
        rho.cache_clear()
        hook_weight_sum.cache_clear()
    # rho(3) = (1 + 3z)/(9 + 3z) is the first weight with a nonconstant
    # denominator, so n = 3 is the first sum that has to cancel one
    assert witness is not None
    assert witness.startswith("n=3: shape sum is not polynomial: ")
    assert verify_theorem1(4) is None


@pytest.mark.independence("theorem1")
def test_the_z_route_reads_no_factored_code(monkeypatch):
    from hookforge import involutions

    expected = [hook_weight_sum(n) for n in range(8)]

    def poisoned(*args):
        raise AssertionError("the z-route reached the factored path")

    rho.cache_clear()
    hook_weight_sum.cache_clear()
    poison_engine(monkeypatch, poisoned, "_materialize", "_phi_columns", "phi_n", "weight_lambda")
    monkeypatch.setattr(involutions, "psi_n", poisoned)
    try:
        assert [hook_weight_sum(n) for n in range(8)] == expected
        assert verify_theorem1(8) is None
    finally:
        monkeypatch.undo()
        rho.cache_clear()
        hook_weight_sum.cache_clear()


def outside_the_kernel(names: set[str]) -> list[str]:
    """The names that are not functions of the exact kernel, `hookforge.exact`."""
    return sorted(name for name in names if not name.startswith("exact."))


@pytest.mark.independence("theorem1")
def test_the_z_route_and_the_series_share_only_the_exact_kernel():
    # the two sides of theorem1 at n = 9 enter no common code outside
    # `exact`, and the z-route enters nothing of the factored engine
    z_half = Polynomial((0, Fraction(1, 2)))
    series = PowerSeries([Polynomial.zero(), Polynomial.one(), z_half], order=9)
    z_route, exp_side = reach(hook_weight_sum, 9), reach(series.exp)
    assert "identity.rho" in z_route and "exact.PowerSeries.exp" in exp_side
    assert outside_the_kernel(z_route & exp_side) == []
    assert sorted(name for name in z_route if name.startswith("_factored.")) == []


@pytest.mark.independence("theorem1prime")
def test_phi_n_and_psi_n_share_only_the_exact_kernel():
    from hookforge import involutions

    tableau_side, involution_side = reach(phi_n, 12), reach(involutions.psi_n, 12)
    assert "_factored._cyclo_sum" in tableau_side
    assert "involutions._psi_by_recursion" in involution_side
    assert outside_the_kernel(tableau_side & involution_side) == []


@pytest.mark.independence("theorem1prime")
def test_phi_n_and_psi_n_read_no_code_of_each_other(monkeypatch):
    # theorem1prime compares two routes: each still gives its values for
    # n <= 12 with every function of the other route poisoned
    from hookforge import identity, involutions

    phi_n, psi_n = identity.phi_n, involutions.psi_n
    expected_phi = [phi_n(n) for n in range(13)]
    expected_psi = [psi_n(n) for n in range(13)]

    def poisoned(*args):
        raise AssertionError("one side of theorem1prime reached the other")

    def poison_involution_side():
        for name in defined_functions(involutions):
            monkeypatch.setattr(involutions, name, poisoned)

    def poison_tableau_side():
        poison_engine(monkeypatch, poisoned, "_materialize", "_phi_columns", "phi_n")

    routes = (
        (phi_n, poison_involution_side, expected_phi),
        (psi_n, poison_tableau_side, expected_psi),
    )
    for route, poison_other_side, expected in routes:
        route.cache_clear()
        poison_other_side()
        try:
            assert [route(n) for n in range(13)] == expected
        finally:
            monkeypatch.undo()
            route.cache_clear()


@pytest.mark.independence("prop2")
def test_prop2_recheck_and_factored_zero_test_read_no_code_of_each_other(monkeypatch):
    # prop2 proves each shape twice: the factored sum minus 1 is zero, and the
    # substitution recheck evaluates the symmetric sum at one point; each
    # still gives its results for every shape of n <= 8 with every function
    # of the other poisoned
    from hookforge import identity

    contents = [
        (list(prof.outer_contents), list(prof.inner_contents))
        for n in range(9)
        for prof in map(corner_profile, partitions_of(n))
    ]

    def recheck():
        return [identity._prop2_substitution_witness(xs, ys) for xs, ys in contents]

    def zero_test():
        return [
            identity._materialize(identity._prop2_terms(xs, ys) + [(-1, {})]).is_zero
            for xs, ys in contents
        ]

    def poisoned(*args):
        raise AssertionError("one prop2 route reached the other")

    def poison_factored():
        poison_engine(monkeypatch, poisoned, "_materialize", "_prop2_terms")

    def poison_substitution():
        for name in ("_prop2_substitution_witness", "_signed_ratio_sum", "_deleted_products"):
            monkeypatch.setattr(identity, name, poisoned)

    expected = {recheck: recheck(), zero_test: zero_test()}
    assert len(contents) == 67 and expected[zero_test] == [True] * 67
    for route, poison_other in ((recheck, poison_factored), (zero_test, poison_substitution)):
        poison_other()
        try:
            assert route() == expected[route]
        finally:
            monkeypatch.undo()


@pytest.mark.independence("prop2")
def test_prop2_recheck_and_factored_zero_test_enter_no_common_function():
    # at shape (4, 3, 1) the factored zero test and the substitution recheck
    # enter no common package function, not even of `exact`
    from hookforge import identity

    prof = corner_profile(Partition((4, 3, 1)))
    xs, ys = list(prof.outer_contents), list(prof.inner_contents)
    zero_test = reach(
        lambda: identity._materialize(identity._prop2_terms(xs, ys) + [(-1, {})]).is_zero
    )
    recheck = reach(identity._prop2_substitution_witness, xs, ys)
    assert "_factored._cyclo_sum" in zero_test
    assert "identity._prop2_substitution_witness" in recheck
    assert sorted(zero_test & recheck) == []


@pytest.mark.fails("prop2")
def test_prop2_fails_on_a_perturbed_factored_term(monkeypatch):
    from hookforge import identity

    xs, ys = [3, 0, -2], [2, -1]
    real_terms = identity._prop2_terms

    def perturbed(outer, inner):
        terms = real_terms(outer, inner)
        coeff, wp = terms[0]
        terms[0] = (coeff + 1, wp)  # the first outer ratio counted twice
        return terms

    def unreachable(*args):
        raise AssertionError("the substitution recheck ran after a failed sum")

    monkeypatch.setattr(identity, "_prop2_terms", perturbed)
    monkeypatch.setattr(identity, "_prop2_substitution_witness", unreachable)
    witness = verify_prop2(xs, ys)
    wrong = identity._materialize(perturbed(xs, ys))
    assert wrong != RationalFunction.one()
    assert witness is not None
    assert witness == f"xs={xs}, ys={ys}: weight-ratio sum is {wrong.format()}, expected 1"
