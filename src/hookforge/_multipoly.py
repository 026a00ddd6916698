"""Minimal exact multivariate polynomials over the integers.

A polynomial in n variables is a dict mapping exponent tuples of length n to
nonzero integer coefficients; {} is zero.  Just enough arithmetic lives here
to expand the cleared symmetric sum and the difference product, so that they
can be compared as dicts: sums, negation, products and the binomial
x_i - x_j, with no division.
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


def mp_linear_diff(nvars: int, i: int, j: int) -> MPoly:
    """The binomial x_i - x_j."""
    return mp_add(mp_var(nvars, i), mp_neg(mp_var(nvars, j)))
