"""The packed-monomial kernel of `_multipoly` against a tuple-keyed reference.

A packed monomial holds the exponent of variable i in bits [8i, 8i + 8).
The reference below keys monomials by exponent tuples and forms each
product exponent by exponent, as the kernel did before monomials were
packed; every product that `verify_prop3_alternating` forms must decode to
the reference product of its decoded factors.
"""

from itertools import product

from support import mp_const

from hookforge import _multipoly as mp
from hookforge import identity


def ref_mul(a: dict, b: dict) -> dict:
    """Product of two tuple-keyed polynomials, exponent by exponent."""
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            s = out.get(mono, 0) + ca * cb
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


def decode(poly: mp.MPoly, nvars: int) -> dict:
    return {tuple(mono.to_bytes(nvars, "little")): c for mono, c in poly.items()}


def encode(exponents: tuple[int, ...]) -> int:
    return sum(e << (8 * i) for i, e in enumerate(exponents))


def test_decoding_inverts_encoding():
    for nvars in range(1, 7):
        for i in range(nvars):
            unit = tuple(int(j == i) for j in range(nvars))
            assert decode(mp.mp_var(nvars, i), nvars) == {unit: 1}
        assert decode(mp_const(nvars, 7), nvars) == {(0,) * nvars: 7}
        assert mp_const(nvars, 0) == {}
    for exponents in product((0, 1, 5, 9, 255), repeat=3):
        mono = encode(exponents)
        assert tuple(mono.to_bytes(3, "little")) == exponents
        assert encode(tuple(mono.to_bytes(3, "little"))) == mono


def test_packed_products_match_the_tuple_reference(monkeypatch):
    products = []
    mul = mp.mp_mul

    def recorded(a, b):
        out = mul(a, b)
        products.append((a, b, out))
        return out

    monkeypatch.setattr(identity.mp, "mp_mul", recorded)
    for n in range(2, 7):
        products.clear()
        assert identity.verify_prop3_alternating(n) is None
        assert products
        for a, b, out in products:
            assert decode(out, n) == ref_mul(decode(a, n), decode(b, n)), n
            # every exponent stays at most n - 1, far inside its 8-bit field
            assert all(max(mono.to_bytes(n, "little")) < n for mono in out), n


def test_difference_product_is_the_product_of_its_binomials():
    # the determinant expansion of V_skip against the product of the
    # binomials a_i - a_j, formed by the tuple reference
    for n in range(2, 7):
        for skip in (None, *range(n)):
            expected = {(0,) * n: 1}
            for i in range(n):
                for j in range(i + 1, n):
                    if skip not in (i, j):
                        unit_i = tuple(int(v == i) for v in range(n))
                        unit_j = tuple(int(v == j) for v in range(n))
                        expected = ref_mul(expected, {unit_i: 1, unit_j: -1})
            assert decode(identity._difference_product(n, skip), n) == expected, (n, skip)
