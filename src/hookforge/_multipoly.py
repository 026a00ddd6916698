"""Minimal exact multivariate polynomials over the integers.

A polynomial in n variables is a dict mapping packed monomials to nonzero
integer coefficients; {} is zero.  A monomial is one int with the exponent
of variable i in bits [8i, 8i + 8), so `tuple(mono.to_bytes(n, "little"))`
decodes it and a product of monomials is one addition, which carries into
the next exponent unless every exponent stays below 256.  The only caller,
`verify_prop3_alternating`, has n <= 6 and forms no product but each V_k
(expanded as a determinant, not multiplied out) times the n - 1 binomials
a_k + a_i, so no exponent exceeds n - 1 <= 5.  Just enough arithmetic lives
here to expand and compare the cleared symmetric sum and the difference
product: sums, negation and products, with no division.
"""

from __future__ import annotations

MPoly = dict[int, int]


def mp_var(nvars: int, idx: int) -> MPoly:
    return {1 << (8 * idx): 1}


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
            mono = ma + mb
            s = out.get(mono, 0) + ca * cb
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out

