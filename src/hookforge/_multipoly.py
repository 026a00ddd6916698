"""Minimal exact multivariate polynomials over the integers.

A polynomial in n variables is a dict mapping exponent tuples of length n to
nonzero integer coefficients; {} is zero.  Just enough arithmetic lives here
to expand the alternating corner polynomial symbolically and divide it by
the difference-product factors one linear binomial at a time.
"""

from __future__ import annotations

MPoly = dict[tuple[int, ...], int]


def mp_const(nvars: int, value: int) -> MPoly:
    if value == 0:
        return {}
    return {(0,) * nvars: value}


def mp_var(nvars: int, idx: int) -> MPoly:
    exp = [0] * nvars
    exp[idx] = 1
    return {tuple(exp): 1}


def mp_add(a: MPoly, b: MPoly) -> MPoly:
    out = dict(a)
    for mono, c in b.items():
        s = out.get(mono, 0) + c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


def mp_neg(a: MPoly) -> MPoly:
    return {mono: -c for mono, c in a.items()}


def mp_mul(a: MPoly, b: MPoly) -> MPoly:
    out: MPoly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            s = out.get(mono, 0) + ca * cb
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


def mp_swap_vars(a: MPoly, i: int, j: int) -> MPoly:
    out: MPoly = {}
    for mono, c in a.items():
        m = list(mono)
        m[i], m[j] = m[j], m[i]
        out[tuple(m)] = c
    return out


def mp_linear_diff(nvars: int, i: int, j: int) -> MPoly:
    """The binomial x_i - x_j."""
    return mp_add(mp_var(nvars, i), mp_neg(mp_var(nvars, j)))


def mp_div_linear_diff(a: MPoly, i: int, j: int) -> MPoly:
    """Exact quotient a / (x_i - x_j); raises if the division leaves a
    remainder.

    Views a as univariate in x_i with coefficients free of x_i and runs
    synthetic division with the "root" x_j, shifting exponents of x_j to
    multiply by it.
    """
    if not a:
        return {}
    by_deg: dict[int, MPoly] = {}
    for mono, c in a.items():
        d = mono[i]
        m = list(mono)
        m[i] = 0
        by_deg.setdefault(d, {})[tuple(m)] = c
    top = max(by_deg)
    quot_by_deg: dict[int, MPoly] = {}
    carry: MPoly = {}
    for d in range(top, 0, -1):
        coeff = mp_add(by_deg.get(d, {}), carry)
        if coeff:
            quot_by_deg[d - 1] = coeff
        carry = _mp_mul_var(coeff, j)
    remainder = mp_add(by_deg.get(0, {}), carry)
    if remainder:
        raise ArithmeticError("polynomial is not divisible by the binomial")
    out: MPoly = {}
    for d, poly in quot_by_deg.items():
        for mono, c in poly.items():
            m = list(mono)
            m[i] = d
            out[tuple(m)] = c
    return out


def _mp_mul_var(a: MPoly, idx: int) -> MPoly:
    out: MPoly = {}
    for mono, c in a.items():
        m = list(mono)
        m[idx] += 1
        out[tuple(m)] = c
    return out
