"""Cross-check of kernel results against sympy's rational-function
simplification.  Skipped when sympy is not installed: hookforge itself needs
only the standard library."""

from fractions import Fraction
from math import comb

import pytest

from hookforge.identity import hook_weight_sum, phi_n, rho
from hookforge.partitions import f_lambda, hooks, partitions_of

sympy = pytest.importorskip("sympy")

x = sympy.Symbol("x")


def canonical_parts(expr) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Coefficients, low degree first, of sympy.cancel(expr) as a reduced
    fraction with monic denominator."""
    num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
    num, den = sympy.Poly(num, x, domain=sympy.QQ), sympy.Poly(den, x, domain=sympy.QQ)
    lead = den.LC()

    def coeffs(p):
        return tuple(Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs()))

    return coeffs(num.quo_ground(lead)), coeffs(den.quo_ground(lead))


def sympy_rho(h: int):
    num = sum(comb(h, 2 * k) * x**k for k in range(h // 2 + 1))
    den = h * sum(comb(h, 2 * k + 1) * x**k for k in range((h + 1) // 2))
    return num / den


def assert_matches(ours, expr):
    assert (ours.num.coeffs, ours.den.coeffs) == canonical_parts(expr)


@pytest.mark.parametrize("h", range(1, 13))
def test_rho_matches_sympy(h):
    assert_matches(rho(h), sympy_rho(h))


@pytest.mark.parametrize("n", range(0, 9))
def test_hook_weight_sum_matches_sympy(n):
    expr = sum(
        (sympy.Mul(*(sympy_rho(h) for h in hooks(lam))) for lam in partitions_of(n)),
        sympy.Integer(0),
    )
    assert_matches(hook_weight_sum(n), expr)


@pytest.mark.parametrize("n", range(0, 9))
def test_phi_n_matches_sympy(n):
    expr = sum(
        (
            f_lambda(lam) * sympy.Mul(*((1 + x**h) / (1 - x**h) for h in hooks(lam)))
            for lam in partitions_of(n)
        ),
        sympy.Integer(0),
    )
    assert_matches(phi_n(n), expr)
