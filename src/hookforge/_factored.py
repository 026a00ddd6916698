"""The factored cyclotomic engine: exact sums of hook-weight products.

Sums of hook-weight products are written as terms (coeff, {h: p}), a map
from hook length to power, and are evaluated in a factored form
(`identity._materialize`): since 1 - q^h is (up to sign) the product of the
cyclotomic polynomials indexed by the divisors of h, and 1 + q^h the
product over divisors of 2h that miss h, every term is a signed monomial in
cyclotomic polynomials.  `_factor_terms` factors each term once and brings
the monomials over a common denominator; `_reduced_sum` sums their
numerator as one integer at a Kronecker point q = 2^B, unpacks it once, and
divides it exactly by every denominator factor but Phi_1 at once (in phi_n
they all cancel); `RationalFunction`'s GCD makes the canonical form.  The
tests cross-check the factored path against generic arithmetic.

phi_n factors all its terms at once instead, one per hook multiset of n
(`_factor_columns`), by counts of multiples: with c_m the number of a
multiset's hooks that m divides, the exponent of Phi_d in its product of
w(h) is -c_d for odd d and c_{d/2} - 2 c_d for even d, and the sign is
(-1)^n.  The multisets come from `hook_census`, one n-byte key each,
so the n byte columns `joined[p::n]`, each marked by one `bytes.translate`
per m and added as base-256 integers, give c_m for every multiset at once,
one digit each.  The census builds each shape once per process by adding a
first row to a smaller shape.  The same columns give phi_n's digit bound
for `_cyclo_sum` (`_column_bound`): for j >= 1 and an odd prime p,
Phi_{2^j} Phi_{2^j p} is the binomial 1 + q^(2^(j-1) p), so a term's pair
counts 1-norm 2 where the two factors' norms multiply to 2p.

The module reads only the standard library and `exact`, so a route that
must not reach the engine can be checked against every function here.
"""

from __future__ import annotations

import struct
from contextlib import suppress
from functools import cache
from itertools import repeat
from operator import mul

from .exact import Polynomial, RationalFunction, _int_divexact


@cache
def _divisors(n: int) -> tuple[int, ...]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return tuple(out)


@cache
def _cyclotomic(d: int) -> tuple[int, ...]:
    """Integer coefficients of the d-th cyclotomic polynomial, low first."""
    poly = [-1] + [0] * (d - 1) + [1]  # q^d - 1
    for e in _divisors(d):
        if e < d:
            poly = _int_divexact(poly, list(_cyclotomic(e)))
    return tuple(poly)


def _factor_terms(
    terms: list[tuple[int, dict[int, int]]],
) -> tuple[list[tuple[int, dict[int, int]]], dict[int, int]]:
    """The terms (coeff, {h: p}) over their common denominator: the lifted
    terms (signed coeff, {d: k}), one per nonzero coeff, and the
    denominator's cyclotomic exponents {d: k}, all k positive.

    Each term is factored once, here: w(h) for h >= 1 is -1 times a
    cyclotomic monomial, and w(-h) = -w(h).  By the rule of `_w_exponents`,
    Phi_d has the power -c_d for odd d and c_{d/2} - 2 c_d for even d, c_m
    the summed powers of the hooks that m divides.  The common denominator
    is read off the factored exponents, and each term is lifted to it.
    """
    factored = []
    den_exp: dict[int, int] = {}
    for coeff, powers in terms:
        sign = 1
        counts: dict[int, int] = {}  # c_m
        for h, p in powers.items():
            if h == 0:
                raise ValueError("weight undefined at 0 (pole)")
            if h > 0 and p % 2:
                sign = -sign
            for m in _divisors(abs(h)):
                counts[m] = counts.get(m, 0) + p
        expo = {m: -c for m, c in counts.items() if m % 2}
        for m, c in counts.items():
            expo[2 * m] = c - 2 * counts.get(2 * m, 0)
        for d, e in expo.items():
            if -e > den_exp.get(d, 0):
                den_exp[d] = -e
        factored.append((coeff * sign, expo))
    lifted = []
    for coeff, expo in factored:
        if coeff == 0:
            continue
        cofactor = {}
        for d in set(expo) | set(den_exp):
            k = expo.get(d, 0) + den_exp.get(d, 0)
            if k > 0:
                cofactor[d] = k
        lifted.append((coeff, cofactor))
    return lifted, den_exp


def _reduced_sum(
    lifted: list[tuple[int, dict[int, int]]],
    den_exp: dict[int, int],
    bound: int | None = None,
) -> RationalFunction:
    """Canonical form of sum(c * prod(Phi_d ** k)) over the lifted terms
    (c, {d: k}), divided by prod(Phi_d ** den_exp[d]).

    The numerator is summed at one Kronecker point (`_cyclo_sum`, with
    `bound` as its digit bound where one is given) and divided once by every
    denominator factor Phi_d ** k with d > 1: on phi_n, where they all
    cancel, Phi_1 ** k of the denominator is left, and where the division is
    inexact (a single weight) all of it.  `RationalFunction`'s GCD then makes
    the canonical form.
    """
    total = _cyclo_sum(lifted, bound)
    if not total:
        return RationalFunction.zero()
    cancelling = _cyclo_sum([(1, {d: k for d, k in den_exp.items() if d > 1})])
    phi_1 = {d: k for d, k in den_exp.items() if d == 1}
    with suppress(ArithmeticError):  # inexact: some factor stays, and the GCD finds it
        total, den_exp = _int_divexact(total, cancelling), phi_1
    return RationalFunction(Polynomial._over(total), Polynomial._over(_cyclo_sum([(1, den_exp)])))


def _cyclo_sum(terms: list[tuple[int, dict[int, int]]], bound: int | None = None) -> list[int]:
    """Integer coefficients of sum(c * prod(Phi_d ** k)) over the terms
    (c, {d: k}), low degree first with no trailing zeros.

    The sum is formed as one integer, its value at q = 2**bits, and unpacked
    once into signed base-2**bits digits.  The digits are the coefficients
    because every coefficient is below 2**(bits - 1) in absolute value:
    `bound` is at least every coefficient, and bits is a whole number of
    bytes above its bit length.  Without one given, the bound is the sum
    over the terms of |c| * prod(||Phi_d||_1 ** k), since ||fg||_inf <=
    ||fg||_1 <= ||f||_1 ||g||_1; phi_n passes the tighter `_column_bound`.
    The number of digits is read off the sum: the digits below the top
    nonzero one, at index top, add up to less than half its place value, so
    |sum| > 2**(bits * top - 1) and top < |sum|.bit_length() // bits + 1.

    The terms are summed in a balanced tree, in descending-cofactor order:
    sorted by their indices d, largest first, so that neighbours share their
    largest factors.  The sum is exact, so the order changes only its cost.
    Each merge of two nodes is one pass: over the left cofactor, then over
    the right cofactor's keys the left lacks.  The powers of each side that
    the other lacks (zero exponents skipped, each Phi_d ** k at the point
    computed once per call) multiply into one factor per side, and the
    node's value is a * ra + b * rb over the shared cofactor.
    """
    if bound is None:
        bound = 0
        for c, cofactor in terms:
            norm = abs(c)
            for d, k in cofactor.items():
                norm *= _cyclo_norm(d) ** k
            bound += norm
    if bound == 0:
        return []
    width = (bound.bit_length() + 8) // 8  # bytes per digit, sign bit included
    bits = 8 * width
    powers: dict[tuple[int, int], int] = {}

    def power(d: int, k: int) -> int:
        """Phi_d ** k at the point, k >= 1."""
        value = powers.get((d, k))
        if value is None:
            phi = sum(a << (i * bits) for i, a in enumerate(_cyclotomic(d)))
            value = powers[d, k] = phi**k
        return value

    # Sum in a balanced tree.  A node (v, e) stands for v * prod(Phi_d ** e_d)
    # at the point; merging two nodes keeps their shared cofactor symbolic,
    # so the integers multiplied stay small until the root.  The sort key is
    # the indices alone: (d, k) pairs cost more memory and sum no faster.
    nodes = sorted(terms, key=lambda term: sorted(term[1], reverse=True))
    while len(nodes) > 1:
        merged = []
        for (a, ea), (b, eb) in zip(nodes[0::2], nodes[1::2]):
            # one pass over the left cofactor, then the right one's other
            # keys: each side's unshared powers go into one factor, ra or rb
            shared = {}
            ra = rb = 1
            for d, k in ea.items():
                j = eb.get(d, 0)
                if k > j:
                    ra *= power(d, k - j)
                    k = j  # now min(k, j), the shared exponent
                elif j > k:
                    rb *= power(d, j - k)
                if k:
                    shared[d] = k
            for d, j in eb.items():
                if j and d not in ea:
                    rb *= power(d, j)
            merged.append((a * ra + b * rb, shared))
        if len(nodes) % 2:
            merged.append(nodes[-1])
        nodes = merged
    total, cofactor = nodes[0]
    for d, k in cofactor.items():
        if k:
            total *= power(d, k)
    # |total| < 2**(bits * length - 2), so total + offset fits length digits
    # even where a digit overflowed; offsetting every digit by 2**(bits - 1)
    # makes them all nonnegative
    length = (abs(total).bit_length() + 1) // bits + 1
    half = 1 << (bits - 1)
    offset = half * (((1 << (length * bits)) - 1) // ((1 << bits) - 1))
    packed = (total + offset).to_bytes(length * width, "little")
    out = [
        int.from_bytes(packed[i : i + width], "little") - half
        for i in range(0, length * width, width)
    ]
    while out and out[-1] == 0:
        out.pop()
    return out


@cache
def _cyclo_norm(d: int) -> int:
    """Sum of the absolute values of the coefficients of Phi_d."""
    return sum(abs(a) for a in _cyclotomic(d))


@cache
def _multiples(m: int) -> bytes:
    """`bytes.translate` table: byte h to 1 where m divides h >= 1, else 0."""
    return bytes(int(h > 0 and h % m == 0) for h in range(256))


def _factor_columns(
    keys: list[bytes], coeffs: list[int]
) -> tuple[list[tuple[int, dict[int, int]]], dict[int, int], int]:
    """`_factor_terms` of the terms (coeff, prod of w(h) over the bytes h of
    key), for keys of one length n <= 255 and hooks h >= 1, computed for all
    the keys at once from byte columns, and the lifted terms' digit bound
    for `_cyclo_sum`, `_column_bound` of the same columns.

    The exponent of each Phi_d depends only on the counts c_m, per key, of
    the hooks that m divides (see `_w_exponents`).  For each m up to the
    largest hook, one `translate` per column `joined[p::n]` of the joined
    keys marks the hooks m divides, and the n marked columns, read as
    base-256 integers and added, hold c_m of every key as one digit:
    c_m <= n <= 255, so no digit carries.  The common denominator holds
    each Phi_d to the largest power that any key has in its denominator,
    each key's cofactor exponent is its own exponent plus that power, and
    one zip over these columns builds the cofactors.  Every w(h), h >= 1,
    carries a sign -1, so the coefficients take (-1)^n.
    """
    joined = b"".join(keys)
    n = len(keys[0])
    columns_of_keys = [joined[p::n] for p in range(n)]
    top = max(joined, default=0)
    # counts[m] for 1 <= m <= 2 * top, zero beyond the largest hook
    counts = [b""] * (top + 1) + [bytes(len(keys))] * top
    for m in range(1, top + 1):
        marked = (col.translate(_multiples(m)) for col in columns_of_keys)
        total = sum(int.from_bytes(col, "little") for col in marked)
        counts[m] = total.to_bytes(len(keys), "little")
    indices, columns, den_exp = [], [], {}
    # Phi_d for odd d beyond the largest hook divides no 1 - q^h or 1 + q^h
    for d in (d for d in range(1, 2 * top + 1) if d <= top or d % 2 == 0):
        expo = _w_exponents(d, counts)
        lift = max(-min(expo), 0)
        if lift:
            den_exp[d] = lift
            expo = [e + lift for e in expo]
        if any(expo):
            indices.append(d)
            columns.append(expo)
    rows = zip(*columns) if columns else [()] * len(keys)
    sign = -1 if n % 2 else 1
    lifted = [
        (sign * coeff, {d: k for d, k in zip(indices, row) if k})
        for coeff, row in zip(coeffs, rows)
    ]
    return lifted, den_exp, _column_bound(indices, columns, coeffs)


def _column_bound(indices: list[int], columns: list[list[int]], coeffs: list[int]) -> int:
    """A bound on every coefficient of sum(c * prod(Phi_d ** k)) over the
    terms given as columns: term t has the coefficient coeffs[t] and the
    exponent columns[i][t], 0 <= k < 2**32, of Phi_d for d = indices[i].

    The bound is the sum over the terms of |c| times a product of l1-norms,
    which is at least the l1-norm of the term, since ||fg||_1 <=
    ||f||_1 ||g||_1, and so at least every coefficient of the sum.  Each
    factor Phi_d counts ||Phi_d||_1, except in pairs: for j >= 1 and an odd
    prime p, Phi_{2^j} Phi_{2^j p} = 1 + q^(2^(j-1) p), which counts 2 where
    the two norms multiply to 2p (with x = q^(2^(j-1)), Phi_{2^j}(q) = 1 + x
    and Phi_{2^j p}(q) = Phi_p(-x), and (1 + x) Phi_p(-x) = 1 + x^p).  Each
    term pairs its factors Phi_{2^j} with its factors Phi_{2^j p}, largest p
    first, and the paired Phi_{2^j p} count 1.

    All the terms are paired at once: each column is packed into one integer
    with a 64-bit lane per term, and a lane-wise minimum is a few integer
    operations on it.  The packed columns are then added per norm; fewer
    than 2**31 columns of lanes below 2**32 add up to less than 2**63 in
    each lane, so no lane carries, and each term's product takes one power
    per norm.
    """
    count = len(coeffs)
    pack = struct.Struct("<" + "Ixxxx" * count).pack  # 32-bit values in 64-bit lanes
    packed = {d: int.from_bytes(pack(*column), "little") for d, column in zip(indices, columns)}
    high = int.from_bytes((bytes(7) + b"\x80") * count, "little")  # bit 63 of each lane
    partners: dict[int, list[int]] = {}  # 2^j: the indices 2^j p it pairs with
    for d in packed:
        two = d & -d
        if two > 1 and two in packed and len(_divisors(d // two)) == 2:
            partners.setdefault(two, []).append(d)
    for two, paired in partners.items():
        spare = packed[two]  # each term's factors Phi_{2^j} not yet paired
        for d in sorted(paired, reverse=True):
            held = packed[d]
            # a lane of spare + 2**63 - held keeps bit 63 where spare >= held;
            # that bit spread over its lane selects held there, else spare
            ge = ((spare | high) - held) & high
            pairs = spare ^ ((spare ^ held) & ((ge << 1) - (ge >> 63)))  # lane-wise min
            packed[d] = held - pairs
            spare -= pairs
    by_norm: dict[int, int] = {}
    for d, column in packed.items():
        norm = _cyclo_norm(d)
        by_norm[norm] = by_norm.get(norm, 0) + column
    bounds = list(map(abs, coeffs))
    unpack = struct.Struct(f"<{count}Q").unpack
    for norm, column in by_norm.items():
        exponents = unpack(column.to_bytes(8 * count, "little"))
        bounds = list(map(mul, bounds, map(pow, repeat(norm), exponents)))
    return sum(bounds)


def _w_exponents(d: int, counts: list[bytes]) -> list[int]:
    """The exponent of Phi_d in each key's product of w(h), sign aside, from
    `counts[m]`, which holds one byte per key: the number c_m of its hooks
    that m divides.

    Phi_d divides 1 - q^h where d divides h, and 1 + q^h where d divides 2h
    but not h: for even d, where d/2 divides h and d does not.  A hook that
    d divides is also among the c_{d/2} that d/2 divides, so the exponent is
    -c_d for odd d and c_{d/2} - 2 c_d for even d.
    """
    if d % 2:
        return [-c for c in counts[d]]
    return [h - 2 * c for h, c in zip(counts[d // 2], counts[d])]
