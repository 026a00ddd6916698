"""Involutions of S_n: enumeration, the bivariate cycle-counting polynomial
g_n, its exponential generating function, and the fixed-point weight sum psi_n.

g_n(u1, u2), the sum of u1^(fixed points) u2^(2-cycles), has one recursion,
`g_poly`: g_{n+1} = u1 g_n + n u2 g_{n-1}, the last point fixed or paired
with one of n earlier points.  Its one enumerated sum is `g_poly_oracle`.
The involution numbers are g_n(1, 1), and psi_n = g_n(w(1), 1).
`verify_egf_kronecker` proves that exp(u1 t + u2 t^2/2) generates g_n up to
an order, from one exact integer point.

Enumeration follows the same recursion but stores images, not objects:
Inv(m) is m byte columns, column p holding the image of p in every
involution.  The rows with m fixed are Inv(m-1) plus a column of m; the rows
with m paired with k are Inv(m-2) relabelled onto [1, m-1] without k by one
`bytes.translate` per column.  psi_n's cross-check counts fixed points by
comparing each image with its position, not by trusting the recursion's
choices, so it stays independent of the recursion it checks: a dropped row,
a wrong image or a wrong relabelling changes the count.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial
from typing import Iterator, NamedTuple

from . import _records
from .exact import Polynomial, PowerSeries, RationalFunction

# Largest n for which psi_n re-derives its value by brute enumeration as an
# internal consistency assertion; above this only the recursion is used.
PSI_ENUMERATION_BOUND = 12

# Images are stored one byte each.
MAX_POINTS = 255


class _InvolutionFields(NamedTuple):
    images: tuple[int, ...]


class Involution(_records.Validated, _InvolutionFields):
    """A permutation equal to its own inverse, in one-line notation.

    An immutable named tuple, validated on construction."""

    __slots__ = ()

    def __new__(cls, images: tuple[int, ...]):
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError("images must be a permutation of 1..n")
        for i, img in enumerate(images, start=1):
            if images[img - 1] != i:
                raise ValueError(f"not an involution: {images}")
        return tuple.__new__(cls, (images,))

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Involution":
        """Wrap images already known to form an involution, skipping validation."""
        return tuple.__new__(cls, (images,))

    @property
    def n(self) -> int:
        return len(self.images)

    def serialize(self) -> str:
        return " ".join(str(v) for v in self.images)

    @classmethod
    def parse(cls, text: str) -> "Involution":
        return cls(tuple(int(v) for v in text.split()))

    def __str__(self):
        return self.serialize()


def _skip_table(k: int) -> bytes:
    """The `bytes.translate` table of the order-preserving relabelling that
    skips k: j -> j for j < k and j -> j + 1 for j >= k."""
    return bytes(range(k)) + bytes(range(k + 1, 256)) + b"\xff"


# (rows, columns): column p-1 holds the image of p in each of the rows
Block = tuple[int, list[bytes]]


def _blocks_of(m: int, inv_m2: Block, inv_m1: Block) -> Iterator[Block]:
    """The row blocks of Inv(m), m >= 1, given Inv(m-2) and Inv(m-1) in full:
    first m fixed (Inv(m-1) with a column of m), then m paired with each
    k = 1..m-1 in turn (Inv(m-2) relabelled onto [1, m-1] without k)."""
    rows, cols = inv_m1
    yield rows, [*cols, bytes([m]) * rows]
    rows, cols = inv_m2
    partner_of_k = bytes([m]) * rows
    for k in range(1, m):
        table = _skip_table(k)
        moved = [col.translate(table) for col in cols]
        yield rows, [*moved[: k - 1], partner_of_k, *moved[k - 1 :], bytes([k]) * rows]


def _involution_blocks(n: int) -> Iterator[Block]:
    """The involutions of S_n as row blocks, in the order of the matching
    recursion: the largest free point is fixed first, then paired with each
    smaller free point in increasing order.

    Every smaller Inv(m) is built bottom-up in full, each column extended
    block by block as the blocks are made; the blocks of Inv(n) itself are
    yielded one at a time and never joined.  Images are bytes, so n may not
    exceed MAX_POINTS.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_POINTS:
        raise ValueError(f"an image takes one byte, so n may not exceed {MAX_POINTS}")
    # Inv(m-2) and Inv(m-1) at m = 1; Inv(-1) is never read
    inv_m2: Block = (0, [])
    inv_m1: Block = (1, [])  # Inv(0): one empty involution
    if n == 0:
        yield inv_m1
        return
    for m in range(1, n):
        rows, joined = 0, [bytearray() for _ in range(m)]
        for block_rows, cols in _blocks_of(m, inv_m2, inv_m1):
            rows += block_rows
            for column, col in zip(joined, cols):
                column += col
        inv_m2, inv_m1 = inv_m1, (rows, joined)
    yield from _blocks_of(n, inv_m2, inv_m1)


def _fixed_point_histogram(n: int) -> list[int]:
    """hist[a] = the number of involutions of S_n with a fixed points.

    Each count is read from the images, as the number of positions p whose
    image is p, not from the recursion's choices, so a fault in the blocks'
    construction changes the histogram.  Per block, `translate` turns column
    p into a 1 where the image is p and a 0 elsewhere; summed as base-256
    integers, each row's count is one digit (at most n <= 255, so no carry),
    and the histogram counts the digits.
    """
    hist = [0] * (n + 1)
    for rows, cols in _involution_blocks(n):
        total = 0
        for p, col in enumerate(cols, start=1):
            is_p = bytes(p) + b"\x01" + bytes(255 - p)
            total += int.from_bytes(col.translate(is_p), "little")
        digits = total.to_bytes(rows, "little")
        for a in range(n + 1):
            hist[a] += digits.count(a)
    return hist


def enumerate_involutions(n: int) -> list[Involution]:
    """All involutions of S_n, in the order of `_involution_blocks`, each
    read from its block's columns without revalidation."""
    out: list[Involution] = []
    for rows, cols in _involution_blocks(n):
        out.extend(map(Involution._trusted, zip(*cols) if cols else [()] * rows))
    return out


def g_poly(n: int, u1, u2):
    """g_n(u1, u2) by its recursion, bottom-up, in the ring of u1 and u2:
    int, Fraction, Polynomial or RationalFunction (g_0 is u1**0)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    prev, cur = u1**0, u1  # g_0, g_1
    if n == 0:
        return prev
    for m in range(1, n):
        prev, cur = cur, u1 * cur + m * u2 * prev
    return cur


def g_poly_oracle(n: int, u1, u2):
    """g_n(u1, u2) as the sum of u1^alpha1 u2^alpha2 over the enumerated
    involutions, in the rings of `g_poly`.  The sum starts at 0 * u1, so it
    lies in u1's ring even when empty, and each term multiplies its scalars
    first."""
    total = 0 * u1
    for a1, count in enumerate(_fixed_point_histogram(n)):
        if count:
            total += count * u2 ** ((n - a1) // 2) * u1**a1
    return total


def verify_involution_egf(order: int, u1: Fraction, u2: Fraction) -> bool:
    """Check that exp(u1 t + u2 t^2/2) matches the g_n coefficients.

    Expands the exponential to the given truncation order and compares the
    coefficient of t^n against g_poly(n, u1, u2) / n! for every n <= order.
    """
    u1, u2 = Fraction(u1), Fraction(u2)
    arg = PowerSeries([Fraction(0), u1, u2 * Fraction(1, 2)], order=order)
    expanded = arg.exp()
    return all(
        expanded.coefficient(n) == g_poly(n, u1, u2) / factorial(n)
        for n in range(order + 1)
    )


def verify_egf_kronecker(order: int) -> str | None:
    """Prove the egf identity for every n <= order at one integer point.

    D_n = n! [t^n] exp(u1 t + u2 t^2/2) - g_n(u1, u2) is an integer
    polynomial: both parts have nonnegative integer coefficients summing to
    the involution number I(n) <= n!, so its coefficients are at most order!
    in absolute value.  Its u1-degree is at most order, so u1 = x0,
    u2 = x0^(order+1) sends distinct monomials to distinct powers of x0, and
    by Cauchy's bound D_n(x0, x0^(order+1)) = 0 at x0 = order! + 2 proves
    D_n = 0.  Returns None when the identity holds, else a witness.
    """
    x0 = _egf_point(order)
    if verify_involution_egf(order, x0, x0 ** (order + 1)):
        return None
    return f"Kronecker point u1=x0={x0}, u2=x0^{order + 1}: coefficients differ"


def _egf_point(order: int) -> int:
    """x0 = order! + 2, the Kronecker point's u1 (see `verify_egf_kronecker`)."""
    return factorial(order) + 2


def _psi_by_recursion(n: int) -> RationalFunction:
    """psi_n = g_n(w(1), 1) = P_n / (1 - q)^n for P_n = g_n(1 + q, (1 - q)^2),
    as w(1) = (1 + q)/(1 - q) and g_n is homogeneous of degree n when u1 has
    weight 1 and u2 weight 2.  P_n(1) = 2^n is nonzero, so no factor 1 - q
    cancels and the fraction is already reduced."""
    num = g_poly(n, Polynomial((1, 1)), Polynomial((1, -2, 1)))
    if num(1) != 1 << n:
        raise AssertionError(f"psi numerator at n={n} does not take the value 2^n at q=1")
    # the denominator made monic: (q - 1)^n, with the numerator's sign to match
    sign = -1 if n % 2 else 1
    den = Polynomial((-1, 1)) ** n
    return RationalFunction._from_canonical(sign * num, den)


@cache
def psi_n(n: int) -> RationalFunction:
    """Sum of w(1)^(number of fixed points) over all involutions of S_n.

    This is g_n(w(1), 1) by `g_poly`, bottom-up so that no call recurses
    (and n < 0 raises `ValueError`); for small n `g_poly_oracle` re-derives it
    from the enumerated involutions and the two routes are asserted to agree.
    w(1) = (1 + q)/(1 - q) is built here from `exact`, so this module reads
    no code of `identity`.
    """
    value = _psi_by_recursion(n)
    if n <= PSI_ENUMERATION_BOUND:
        w1 = RationalFunction(Polynomial((1, 1)), Polynomial((1, -1)))
        enumerated = g_poly_oracle(n, w1, 1)
        if enumerated != value:
            raise AssertionError(
                f"psi recursion and enumeration disagree at n={n}: "
                f"{value.format()} vs {enumerated.format()}"
            )
    return value
