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
from support import assert_routes_share, assert_routes_stand_alone, defined_functions, uncached


def P(*coeffs):
    return Polynomial(coeffs)


def engine(*entry_points) -> list:
    """The (owner, name) pairs of every function that `hookforge._factored`
    defines and of the named entry points of `hookforge.identity`."""
    from hookforge import _factored, identity

    return defined_functions(_factored) + [(identity, name) for name in entry_points]


def prop2_zero_test(xs, ys) -> bool:
    """prop2's factored route: the weight-ratio sum minus 1 is zero."""
    from hookforge import identity

    return identity._materialize(identity._prop2_terms(xs, ys) + [(-1, {})]).is_zero


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
    # at the shape (4, 3, 1), with the corner hook relations at every corner
    lam = Partition((4, 3, 1))
    corners = range(1, len(corner_profile(lam).outer_cells) + 1)

    def corner_hooks():
        return [verify_corner_hooks(lam, k) for k in corners]

    extend_retract = (lambda: verify_lemma1(lam), "identity._materialize")
    names = "Partition.__new__ _conjugate_parts add_cell addable_cells remove_cell removable_cells"
    allowed = {f"partitions.{name}" for name in names.split()}
    assert_routes_share([extend_retract, (corner_hooks, "partitions.hook_length")], allowed)


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
    # at the seeded vector of prop3_checks' first trial at n = 5; each
    # residue is 2 a_k b_k, with b_k the deleted product
    from hookforge.identity import _keyed_rng

    vector = sample_distinct_rationals(_keyed_rng(0, "prop3", 5, 0), 5)
    direct = (lambda: verify_prop3(vector), "identity._signed_ratio_sum")
    residues = (lambda: verify_prop3_residues(vector), "identity._linear_products")
    allowed = {"identity._deleted_products", "identity._validate_distinct_nonzero"}
    assert_routes_share([direct, residues], allowed)

    def evidence():
        return verify_prop3(vector), verify_prop3_residues(vector)

    symbolic = (lambda: verify_prop3_alternating(5), "_multipoly.mp_mul")
    assert_routes_share([symbolic, (evidence, "identity._linear_products")])


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

    with uncached(monkeypatch):
        monkeypatch.setattr(identity, "_substitution_binomials", perturbed)
        assert rho(4) != real
        assert rho(4) == RationalFunction(P(1, 6, 1), P(16, 20))
        witness = verify_weight_substitution(4)
    assert witness is not None and witness.startswith("n=4: substituted weight ")
    assert rho(4) == real


@pytest.mark.fails("theorem1")
def test_theorem1_fails_on_an_off_by_one_interpolating_weight(monkeypatch):
    from hookforge import identity

    real_rho = identity.rho
    with uncached(monkeypatch):
        monkeypatch.setattr(identity, "rho", lambda n: real_rho(3 if n == 2 else n))
        witness = verify_theorem1(4)
    # both shapes of 2 have hooks {2, 1}, and rho(1) = 1
    wrong = 2 * real_rho(3)
    assert witness is not None
    assert witness == f"n=2: shape sum is not polynomial: {wrong.format('z')}"
    assert verify_theorem1(4) is None


@pytest.mark.fails("theorem1")
def test_theorem1_fails_when_canonicalisation_does_not_reduce(monkeypatch):
    from hookforge import exact

    real = exact._heu_gcd
    with uncached(monkeypatch):
        # the gcd is found, but the "quotients" are the undivided parts
        monkeypatch.setattr(exact, "_heu_gcd", lambda a, b: (real(a, b)[0], list(a), list(b)))
        witness = verify_theorem1(4)
    # rho(3) = (1 + 3z)/(9 + 3z) is the first weight with a nonconstant
    # denominator, so n = 3 is the first sum that has to cancel one
    assert witness is not None
    assert witness.startswith("n=3: shape sum is not polynomial: ")
    assert verify_theorem1(4) is None


@pytest.mark.independence("theorem1")
def test_the_z_route_reads_no_factored_code(monkeypatch):
    from hookforge import involutions

    def z_route():
        return [hook_weight_sum(n) for n in range(8)], verify_theorem1(8)

    poison = engine("_materialize", "_phi_columns", "phi_n", "weight_lambda")
    poison.append((involutions, "psi_n"))
    [(_, witness)] = assert_routes_stand_alone(monkeypatch, [(z_route, poison)])
    assert witness is None


@pytest.mark.independence("theorem1")
def test_the_z_route_and_the_series_share_only_the_exact_kernel():
    # at n = 9; the z-route also enters nothing of the factored engine
    z_half = Polynomial((0, Fraction(1, 2)))
    series = PowerSeries([Polynomial.zero(), Polynomial.one(), z_half], order=9)
    z_route = (lambda: hook_weight_sum(9), "identity.rho")
    z_names, _ = assert_routes_share([z_route, (series.exp, "exact.PowerSeries.exp")], {"exact."})
    assert sorted(name for name in z_names if name.startswith("_factored.")) == []


@pytest.mark.independence("theorem1prime")
def test_phi_n_and_psi_n_share_only_the_exact_kernel():
    from hookforge import involutions

    tableau_side = (lambda: phi_n(12), "_factored._cyclo_sum")
    involution_side = (lambda: involutions.psi_n(12), "involutions._psi_by_recursion")
    assert_routes_share([tableau_side, involution_side], {"exact."})


@pytest.mark.independence("theorem1prime")
def test_phi_n_and_psi_n_read_no_code_of_each_other(monkeypatch):
    # each side gives its values for n <= 12 with the other side poisoned
    from hookforge import involutions

    involution_side = defined_functions(involutions)
    tableau_side = engine("_materialize", "_phi_columns", "phi_n")
    routes = [
        (lambda: [phi_n(n) for n in range(13)], involution_side),
        (lambda: [involutions.psi_n(n) for n in range(13)], tableau_side),
    ]
    assert_routes_stand_alone(monkeypatch, routes)


@pytest.mark.independence("prop2")
def test_prop2_recheck_and_factored_zero_test_read_no_code_of_each_other(monkeypatch):
    # prop2 proves each shape twice, by the factored sum minus 1 and by the
    # substitution recheck; each passes every shape of n <= 8, and one more
    # content set, alone
    from hookforge import identity

    contents = [
        (list(prof.outer_contents), list(prof.inner_contents))
        for n in range(9)
        for prof in map(corner_profile, partitions_of(n))
    ] + [([4, 1, -1, -4], [2, 0, -3])]

    def recheck():
        return [identity._prop2_substitution_witness(xs, ys) for xs, ys in contents]

    def zero_test():
        return [prop2_zero_test(xs, ys) for xs, ys in contents]

    names = ("_prop2_substitution_witness", "_signed_ratio_sum", "_deleted_products")
    substitution = [(identity, name) for name in names]
    factored = engine("_materialize", "_prop2_terms", "weight_w")
    routes = [(recheck, factored), (zero_test, substitution)]
    witnesses, zeros = assert_routes_stand_alone(monkeypatch, routes)
    assert len(contents) == 68 and witnesses == [None] * 68 and zeros == [True] * 68


@pytest.mark.independence("prop2")
def test_prop2_recheck_and_factored_zero_test_enter_no_common_function():
    from hookforge import identity

    prof = corner_profile(Partition((4, 3, 1)))
    xs, ys = list(prof.outer_contents), list(prof.inner_contents)
    zero_test = (lambda: prop2_zero_test(xs, ys), "_factored._cyclo_sum")
    witness = identity._prop2_substitution_witness
    recheck = (lambda: witness(xs, ys), "identity._prop2_substitution_witness")
    assert_routes_share([zero_test, recheck])


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

    ran = "the substitution recheck ran after a failed sum"
    monkeypatch.setattr(identity, "_prop2_terms", perturbed)
    monkeypatch.setattr(identity, "_prop2_substitution_witness", lambda *args: pytest.fail(ran))
    witness = verify_prop2(xs, ys)
    wrong = identity._materialize(perturbed(xs, ys))
    assert wrong != RationalFunction.one()
    assert witness is not None
    assert witness == f"xs={xs}, ys={ys}: weight-ratio sum is {wrong.format()}, expected 1"
