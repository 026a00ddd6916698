"""Tests for the factored cyclotomic path: the Kronecker-point summation
behind `_materialize`, checked against generic rational-function arithmetic,
and perturbed term lists showing that the factored comparisons can fail."""

import random
from collections import Counter
from functools import cache
from itertools import zip_longest

import pytest

from hookforge import cli, identity
from hookforge.exact import Polynomial, RationalFunction, _int_mul
from hookforge.identity import (
    _column_bound,
    _cyclo_norm,
    _cyclo_sum,
    _cyclotomic,
    _divisors,
    _factor_columns,
    _factor_terms,
    _lemma1_terms,
    _materialize,
    _phi_columns,
    _w_exponents,
    _w_factor_items,
    phi_n,
    verify_lemma1,
    verify_prop2,
    verify_theorem1prime,
    weight_lambda,
    weight_w,
)
from hookforge.involutions import psi_n
from hookforge.partitions import (
    Partition,
    add_cell,
    addable_cells,
    f_lambda,
    hooks,
    partitions_of,
    remove_cell,
    removable_cells,
)
from support import phi_terms


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


def generic_value(powers: dict[int, int]) -> RationalFunction:
    value = RationalFunction.one()
    for h, p in powers.items():
        value = value * weight_w(h) ** p
    return value


def assert_same(got: RationalFunction, expected: RationalFunction):
    assert got.num == expected.num and got.den == expected.den


# -- unpacking edge cases ------------------------------------------------------


def test_sum_cancelling_to_zero():
    assert _cyclo_sum([(5, {1: 2, 3: 1}), (-5, {3: 1, 1: 2})]) == []
    # w((2)) + w((1,1)) - w(1)^2 - 1 = 0: both shapes have hooks {1, 2}
    terms = [(2, {1: 1, 2: 1}), (-1, {1: 2}), (-1, {})]
    assert _materialize(terms) == RationalFunction.zero()


def test_negative_leading_coefficient():
    # -5 (q - 1)^2: the top digit borrows from nothing above it
    assert _cyclo_sum([(-5, {1: 2})]) == [-5, 10, -5]
    # w(1) = (1 + q)/(1 - q) in canonical form is -(1 + q)/(q - 1)
    got = _materialize([(1, {1: 1})])
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
    weighted = [
        (c, {1: k, 4: j}) for c, k, j in [(1, 3, 1), (-2, 2, 0), (3, 1, 2), (-4, 4, 1)]
    ]
    expected_rf = sum((c * generic_value(p) for c, p in weighted), RationalFunction.zero())
    assert_same(_materialize(weighted), expected_rf)


def test_coefficient_zero_terms_are_skipped():
    powers = {1: 1, 3: 1}
    assert _materialize([(0, powers)]) == RationalFunction.zero()
    assert_same(_materialize([(0, powers), (2, {})]), RationalFunction(2))


def test_materialize_hook_power_edge_cases():
    # a negative hook: w(-h) = -w(h)
    assert_same(_materialize([(1, {-2: 1})]), -weight_w(2))
    # a zero power contributes nothing
    assert_same(_materialize([(1, {3: 0, 1: 1})]), weight_w(1))
    # hook 0 is a pole of the weight, whatever its power
    for powers in ({0: 1}, {0: 0}):
        with pytest.raises(ValueError, match="pole"):
            _materialize([(1, powers)])
    # a power that `subtract` cancels to zero stays in the map and is ignored
    powers = Counter([2, 3, 3])
    powers.subtract([3, 3])
    assert powers[3] == 0
    assert_same(_materialize([(1, powers)]), weight_w(2))


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
    )
    term_lists = st.lists(st.tuples(st.integers(-60, 60), hook_products), max_size=5)

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(term_lists)
    def check(raw):
        terms = []
        expected = RationalFunction.zero()
        for coeff, data in raw:
            powers = Counter()
            for h, power in data:
                powers[h] += power
            terms.append((coeff, powers))
            expected = expected + coeff * generic_value(powers)
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


def int_mul_cyclo_sum(terms) -> list[int]:
    """sum(c * prod(Phi_d ** k)) by repeated `_int_mul` products of the
    `_cyclotomic` rows, summed coefficient by coefficient: no Kronecker
    point, no tree and no shared cofactors."""
    total: list[int] = []
    for c, cofactor in terms:
        prod = [c]
        for d, k in cofactor.items():
            for _ in range(k):
                prod = _int_mul(prod, _cyclotomic(d))
        total = [x + y for x, y in zip_longest(total, prod, fillvalue=0)]
    while total and total[-1] == 0:
        total.pop()
    return total


def test_cyclo_sum_matches_the_int_mul_oracle_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # zero exponents and empty maps included, as `_materialize` passes them
    cofactors = st.dictionaries(st.integers(1, 12), st.integers(0, 3), max_size=4)
    terms = st.lists(st.tuples(st.integers(-60, 60), cofactors), min_size=1, max_size=8)

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(terms)
    @hypothesis.example([(7, {})])  # a single term, empty cofactor
    @hypothesis.example([(-3, {4: 0, 6: 2})])  # a single term, a zero exponent
    @hypothesis.example([(2, {1: 1, 3: 0}), (5, {3: 2}), (-1, {})])
    def check(terms):
        assert _cyclo_sum(terms) == int_mul_cyclo_sum(terms)
        # each term and its negation cancel to the zero polynomial
        assert _cyclo_sum(terms + [(-c, e) for c, e in reversed(terms)]) == []

    check()
    assert _cyclo_sum([]) == int_mul_cyclo_sum([]) == []


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


# -- the byte-column factoring of phi_n against the dict factoring ---------------


def test_phi_columns_equal_the_dict_factoring_term_by_term():
    # the lifted terms in census order, then the common denominator
    for n in range(21):
        terms = phi_terms(n)
        lifted, den_exp, _ = _phi_columns(n)
        expected_lifted, expected_den = _factor_terms(terms)
        assert len(lifted) == len(expected_lifted) == len(terms)
        for got, expected in zip(lifted, expected_lifted):
            assert got == expected, n
        assert den_exp == expected_den, n


def test_phi_n_equals_materialize_of_the_oracle_terms():
    for n in range(29):
        assert_same(phi_n(n), _materialize(phi_terms(n)))


def test_phi_n_at_zero_and_out_of_range():
    # one empty multiset and no columns: the empty product, with coefficient 1
    assert _phi_columns(0)[:2] == ([(1, {})], {})
    assert_same(phi_n(0), RationalFunction.one())
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        phi_n(-1)
    with pytest.raises(
        ValueError, match="^hook_census needs n <= 255: each hook is stored in one byte$"
    ):
        phi_n(256)


def test_exponent_rule_equals_w_factor_items_for_every_byte():
    # one key holding the single hook h: c_m is 1 where m divides h
    for h in range(1, 256):
        counts = [b""] + [bytes([h % m == 0]) for m in range(1, 2 * h + 1)]
        exponents = [(d, _w_exponents(d, counts)[0]) for d in range(1, 2 * h + 1)]
        assert tuple((d, e) for d, e in exponents if e) == _w_factor_items(h), h
        assert _factor_columns([bytes([h])], [1])[:2] == _factor_terms([(1, {h: 1})]), h


def test_factor_columns_match_the_dict_factoring_on_any_hooks():
    # keys that are no shape's hooks: unsorted, repeated, beyond their length
    rng = random.Random("factor columns")
    for width in (1, 2, 3, 5, 8):
        for _ in range(10):
            keys = [bytes(rng.choices(range(1, 40), k=width)) for _ in range(rng.randint(1, 6))]
            coeffs = [rng.randint(-50, 50) or 1 for _ in keys]
            terms = [(c, Counter(key)) for c, key in zip(coeffs, keys)]
            assert _factor_columns(keys, coeffs)[:2] == _factor_terms(terms)
    keys = [bytes([255, 254, 128]), bytes([1, 2, 3])]
    terms = [(3, Counter(keys[0])), (-4, Counter(keys[1]))]
    assert _factor_columns(keys, [3, -4])[:2] == _factor_terms(terms)


@pytest.mark.fails("theorem1prime")
def test_a_misset_even_exponent_rule_fails_theorem1prime(monkeypatch):
    # c_{d/2} - c_d for even d raises the exponent of Phi_d by one per hook
    # that d divides: phi_1's hook 1 has no even divisor, and phi_2's hook 2
    # is the first such hook
    real = identity._w_exponents

    def misset(d, counts):
        if d % 2:
            return real(d, counts)
        return [h - c for h, c in zip(counts[d // 2], counts[d])]

    phi_n.cache_clear()
    try:
        monkeypatch.setattr(identity, "_w_exponents", misset)
        witnesses = [verify_theorem1prime(n) for n in range(5)]
        wrong = phi_n(2)
    finally:
        monkeypatch.undo()
        phi_n.cache_clear()
    assert witnesses[:2] == [None, None]
    assert witnesses[2] == (
        f"n=2: involution side {psi_n(2).format()} != tableau side {wrong.format()}"
    )
    assert all(witnesses[2:])
    assert verify_theorem1prime(2) is None


# -- the digit bound of phi_n's terms, computed from their columns ---------------


def term_pair_bound(terms) -> int:
    """The bound of `_column_bound`, one term at a time: each term pairs its
    factors Phi_{2^j} with its factors Phi_{2^j p}, p an odd prime, largest
    p first, and each pair counts 2 instead of 2p."""
    bound = 0
    for c, cofactor in terms:
        held = dict(cofactor)
        for two in sorted(d for d in held if d > 1 and d & (d - 1) == 0):
            spare = held[two]
            for p in sorted((d // two for d in held if d % two == 0), reverse=True):
                if p % 2 and len(_divisors(p)) == 2:
                    pairs = min(spare, held[two * p])
                    held[two * p] -= pairs
                    spare -= pairs
        norm = abs(c)
        for d, k in held.items():
            norm *= _cyclo_norm(d) ** k
        bound += norm
    return bound


def norm_product_bound(terms) -> int:
    """The default bound of `_cyclo_sum`: sum |c| * prod(||Phi_d||_1 ** k)."""
    bound = 0
    for c, cofactor in terms:
        norm = abs(c)
        for d, k in cofactor.items():
            norm *= _cyclo_norm(d) ** k
        bound += norm
    return bound


def as_columns(terms) -> tuple[list[int], list[list[int]], list[int]]:
    """`_column_bound`'s arguments for terms (c, {d: k})."""
    indices = sorted({d for _, cofactor in terms for d in cofactor})
    columns = [[cofactor.get(d, 0) for _, cofactor in terms] for d in indices]
    return indices, columns, [c for c, _ in terms]


def digit_bits(bound: int) -> int:
    """The digit width that `_cyclo_sum` takes for a bound."""
    return 8 * ((bound.bit_length() + 8) // 8)


def test_column_bound_lies_between_the_l1_norm_and_the_norm_product_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # Phi_{2^j} and Phi_{2^j p} for j <= 3 and p = 3, 5, 7, among others
    pairing = [2, 4, 8, 6, 10, 14, 12, 20, 28, 24, 40, 56]
    others = [1, 3, 5, 7, 9, 15, 18, 30]
    cofactors = st.dictionaries(st.sampled_from(pairing + others), st.integers(0, 3), max_size=6)
    terms = st.lists(st.tuples(st.integers(-60, 60), cofactors), min_size=1, max_size=6)

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(terms)
    @hypothesis.example([(1, {2: 1, 6: 1})])  # exactly 1 + q^3
    @hypothesis.example([(-5, {4: 2, 12: 1, 20: 3, 28: 1})])  # more partners than Phi_4
    @hypothesis.example([(3, {2: 3, 6: 1, 10: 1, 14: 0}), (0, {8: 1, 24: 2})])
    def check(terms):
        bound = _column_bound(*as_columns(terms))
        assert bound == term_pair_bound(terms)
        # sum |c| ||prod(Phi_d ** k)||_1, each term's product expanded exactly
        l1 = sum(sum(map(abs, int_mul_cyclo_sum([term]))) for term in terms)
        assert l1 <= bound <= norm_product_bound(terms)
        assert _cyclo_sum(terms, bound) == int_mul_cyclo_sum(terms)

    check()
    # each pair Phi_{2^j} Phi_{2^j p} is the binomial 1 + q^(2^(j-1) p), l1-norm 2
    for two, p in ((2, 3), (2, 7), (4, 5), (8, 3)):
        assert int_mul_cyclo_sum([(1, {two: 1, two * p: 1})]) == [1] + [0] * (two // 2 * p - 1) + [1]
        assert _column_bound([two, two * p], [[1], [1]], [1]) == 2


def test_phi_column_bound_equals_the_bound_term_by_term():
    for n in range(21):
        lifted, _, bound = _phi_columns(n)
        assert bound == term_pair_bound(lifted), n
        assert bound <= norm_product_bound(lifted), n


def test_phi_digit_widths():
    # bits per Kronecker digit for phi_n: the pair bound against the norm product
    widths = {18: (72, 80), 19: (72, 96), 20: (80, 96), 21: (88, 112), 22: (96, 112),
              23: (104, 120), 24: (104, 120), 28: (128, 160)}
    for n, expected in widths.items():
        lifted, _, bound = _phi_columns(n)
        assert (digit_bits(bound), digit_bits(norm_product_bound(lifted))) == expected, n


@pytest.mark.fails("theorem1prime")
def test_a_column_bound_without_coefficients_fails_theorem1prime(monkeypatch):
    # A bound that counts each term with coefficient 1 makes the Kronecker
    # digits too narrow once a coefficient of phi_n outgrows it: the digits
    # overflow into their neighbours, and phi_n is another rational function.
    real = identity._column_bound

    def without_coefficients(indices, columns, coeffs):
        return real(indices, columns, [1] * len(coeffs))

    phi_n.cache_clear()
    try:
        monkeypatch.setattr(identity, "_column_bound", without_coefficients)
        witnesses = [verify_theorem1prime(n) for n in range(10)]
        report = cli.Unit("theorem1prime", {"n": 9})()
    finally:
        monkeypatch.undo()
        phi_n.cache_clear()
    assert witnesses[:9] == [None] * 9
    assert (report.verdict, report.witness) == ("fail", witnesses[9])
    assert witnesses[9].startswith(f"n=9: involution side {psi_n(9).format()} != tableau side ")
    assert verify_theorem1prime(9) is None


# -- the reduction: one division, or trial division factor by factor -----------


def divisions(monkeypatch, terms) -> tuple[RationalFunction, list[tuple[list[int], bool]]]:
    """`_materialize(terms)` and each exact division it made: (divisor,
    whether it divided).  A first unspied run fills the cyclotomic table, so
    that only the reduction's own divisions are seen."""
    _materialize(terms)
    calls = []
    divexact = identity._int_divexact

    def spy(a, b):
        try:
            quotient = divexact(a, b)
        except ArithmeticError:
            calls.append((list(b), False))
            raise
        calls.append((list(b), True))
        return quotient

    monkeypatch.setattr(identity, "_int_divexact", spy)
    got = _materialize(terms)
    monkeypatch.undo()
    return got, calls


PHI_1 = [-1, 1]


def test_phi_n_cancels_every_factor_but_phi_1_in_one_division(monkeypatch):
    for n in range(11):
        terms = phi_terms(n)
        got, calls = divisions(monkeypatch, terms)
        expected = sum((c * generic_value(p) for c, p in terms), RationalFunction.zero())
        assert_same(got, expected)
        # at most one division by anything but Phi_1, and it divided; from
        # n = 3 on the shapes' weights have a factor Phi_d, d > 1, to cancel
        others = [(b, ok) for b, ok in calls if b != PHI_1]
        assert len(others) == (n >= 3)
        assert all(ok for _, ok in others)
        assert n == 0 or calls[-1] == (PHI_1, False)  # the Phi_1 loop runs last


def test_one_weight_falls_back_to_trial_division(monkeypatch):
    # a single term keeps its numerator factors, which are prime to its
    # denominator, so nothing beyond Phi_1 cancels
    lam = Partition((3, 1))  # w(4) w(2) w(1)^2 = Phi_8 / Phi_1^4: Phi_1 only
    got, calls = divisions(monkeypatch, [(1, Counter(hooks(lam)))])
    assert_same(got, generic_value(Counter(hooks(lam))))
    assert calls == [(PHI_1, False)]
    for parts, cancelling in (((2, 2, 1), {3: 1}), ((3, 2, 1), {3: 2, 5: 1})):
        lam = Partition(parts)
        got, calls = divisions(monkeypatch, [(1, Counter(hooks(lam)))])
        assert_same(got, generic_value(Counter(hooks(lam))))
        # the one division fails, then each factor is tried on its own
        assert calls[0] == (_cyclo_sum([(1, cancelling)]), False)
        tried = [b for b, _ in calls[1:]]
        assert tried == [PHI_1] + [list(identity._cyclotomic(d)) for d in sorted(cancelling)]
        assert not any(ok for _, ok in calls)


def test_lemma1_terms_are_exact_weight_ratios():
    # the hooks a neighbour shares with the shape cancel inside the term;
    # every term must still be the full ratio of the two shape weights
    def generic_weight(shape):
        return generic_value(Counter(hooks(shape)))

    for n in range(8):
        for lam in partitions_of(n):
            lhs, rhs = _lemma1_terms(lam)
            assert rhs[0] == (1, {1: 1})
            neighbours = [add_cell(lam, cell) for cell in addable_cells(lam)]
            neighbours += [remove_cell(lam, cell) for cell in removable_cells(lam)]
            terms = lhs + rhs[1:]
            assert len(terms) == len(neighbours)
            base = generic_weight(lam)
            for (coeff, powers), shape in zip(terms, neighbours):
                assert coeff == 1
                assert_same(_materialize([(1, powers)]), generic_weight(shape) / base)


# -- the factored comparisons can fail ------------------------------------------


def _shift_hook_one(powers: Counter) -> Counter:
    """The same product with one hook of length 1 made a hook of length 2."""
    shifted = Counter(powers)
    shifted.update({1: -1, 2: 1})
    return shifted


@pytest.mark.parametrize("perturbation", ["count", "hook"])
@pytest.mark.fails("theorem1prime")
def test_perturbed_phi_terms_fail_theorem1prime(monkeypatch, perturbation):
    n = 7
    terms = phi_terms(n)
    assert _materialize(terms) == psi_n(n)
    coeff, powers = terms[3]
    if perturbation == "count":
        terms[3] = (coeff + 1, powers)  # an off-by-one f-lambda
    else:
        terms[3] = (coeff, _shift_hook_one(powers))  # every shape of n >= 1 has a hook 1
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


@pytest.mark.fails("lemma1")
def test_perturbed_lemma1_terms_fail(monkeypatch):
    lam = Partition((3, 1))
    lhs, rhs = _lemma1_terms(lam)
    assert _materialize(lhs) == _materialize(rhs)
    lhs[0][1].update({2: 1})  # one extension ratio times w(2)
    assert _materialize(lhs) != _materialize(rhs)

    monkeypatch.setattr(identity, "_lemma1_terms", lambda shape: (lhs, rhs))
    witness = verify_lemma1(lam)
    assert witness is not None
    assert witness.startswith(f"shape={lam.serialize()}: extensions ")
    assert _materialize(lhs).format() in witness


def test_passing_folded_checks_materialize_once(monkeypatch):
    # a passing lemma1 or prop2 materializes the difference of its two sides
    # once; only the failing path builds the sides for the witness
    calls = []

    def counted(terms):
        calls.append(len(terms))
        return _materialize(terms)

    monkeypatch.setattr(identity, "_materialize", counted)
    for lam in (Partition(()), Partition((1,)), Partition((3, 1)), Partition((4, 2, 2, 1))):
        calls.clear()
        assert verify_lemma1(lam) is None
        assert calls == [len(addable_cells(lam)) + 1 + len(removable_cells(lam))]
    for xs, ys in (([0], []), ([3, 0, -2], [2, -1]), ([4, 1, -1, -4], [2, 0, -3])):
        calls.clear()
        assert verify_prop2(xs, ys) is None
        assert calls == [len(xs) + len(ys) + 1]


@pytest.mark.fails("theorem1prime")
def test_a_vanishing_cyclotomic_sum_fails_theorem1prime(monkeypatch):
    # With every factored sum zero, the folded differences vanish, so the
    # factored routes of lemma1 and prop2 pass (prop2's substitution recheck
    # reads no factored code and still guards that check).  theorem1prime
    # compares phi_n with psi_n, which sums no cyclotomic terms: it fails.
    phi_n.cache_clear()
    try:
        monkeypatch.setattr(identity, "_cyclo_sum", lambda terms, bound=None: [])
        assert verify_lemma1(Partition((3, 1))) is None
        assert verify_prop2([3, 0, -2], [2, -1]) is None
        report = cli.Unit("theorem1prime", {"n": 4})()
    finally:
        monkeypatch.undo()
        phi_n.cache_clear()
    assert (report.verdict, report.witness) == (
        "fail",
        f"n=4: involution side {psi_n(4).format()} != tableau side 0",
    )
    assert cli.Unit("theorem1prime", {"n": 4})().verdict == "pass"
