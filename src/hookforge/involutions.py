"""Involutions of S_n: enumeration, fixed-point/2-cycle statistics, the
bivariate cycle-counting polynomial g_n, and the fixed-point weight sum psi_n.

The counting recursion used throughout is g_{n+1} = u1 g_n + n u2 g_{n-1}:
the last point is either fixed (weight u1) or paired with one of n earlier
points (weight u2).  Specializing u1 = u2 = 1 counts involutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial
from operator import eq
from typing import Callable

from .exact import Polynomial, PowerSeries, RationalFunction

# Largest n for which psi_n re-derives its value by brute enumeration as an
# internal consistency assertion; above this only the recursion is used.
PSI_ENUMERATION_BOUND = 12


@dataclass(frozen=True)
class Involution:
    """A permutation equal to its own inverse, in one-line notation."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError("images must be a permutation of 1..n")
        for i, img in enumerate(self.images, start=1):
            if self.images[img - 1] != i:
                raise ValueError(f"not an involution: {self.images}")

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Involution":
        """Wrap images already known to form an involution, skipping validation."""
        inv = object.__new__(cls)
        object.__setattr__(inv, "images", images)
        return inv

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


@dataclass(frozen=True)
class CycleStats:
    """Fixed-point and 2-cycle counts; alpha1 + 2*alpha2 = n."""

    alpha1: int
    alpha2: int


def cycle_stats(inv: Involution) -> CycleStats:
    fixed = sum(1 for i, img in enumerate(inv.images, start=1) if img == i)
    return CycleStats(alpha1=fixed, alpha2=(inv.n - fixed) // 2)


def _walk_involutions(n: int, leaf: Callable[[list[int]], None]) -> None:
    """Call leaf(images) once per involution of S_n, by the matching
    recursion: the largest free point is fixed first, then paired with each
    smaller free point in increasing order.

    images is one 1-based list (images[0] == 0) rewritten in place between
    calls, so a leaf that keeps it must copy it.  The free points are one
    ascending list edited in place: a step pops its largest point, pops and
    reinserts each partner in turn, and appends the point back on return.
    When a single free point remains beside the largest, its two leaves
    (both fixed, then the two paired) are emitted without a further call.
    The recursion only ever forms involutions, so nothing is validated or
    built per involution.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    images = [0] * (n + 1)
    if n == 0:
        leaf(images)
        return
    free = list(range(1, n + 1))

    def walk():
        e = free.pop()
        images[e] = e
        if len(free) > 1:
            walk()
            for k in range(len(free)):
                f = free.pop(k)
                images[e], images[f] = f, e
                walk()
                free.insert(k, f)
        elif free:
            f = free[0]
            images[f] = f
            leaf(images)
            images[e], images[f] = f, e
            leaf(images)
        else:
            leaf(images)
        free.append(e)

    walk()


def _fixed_point_histogram(n: int) -> list[int]:
    """hist[a] = the number of involutions of S_n with a fixed points, each
    counted from the walked images rather than from the walk's choices."""
    hist = [0] * (n + 1)
    points = range(n + 1)

    def leaf(images: list[int]):
        # images[0] == 0 matches the point 0, hence the - 1
        hist[sum(map(eq, images, points)) - 1] += 1

    _walk_involutions(n, leaf)
    return hist


def enumerate_involutions(n: int) -> list[Involution]:
    """All involutions of S_n, in the order `_walk_involutions` visits them."""
    out: list[Involution] = []
    _walk_involutions(n, lambda images: out.append(Involution._trusted(tuple(images[1:]))))
    return out


@cache
def involution_count(n: int) -> int:
    """Involution numbers by the recurrence I(n) = I(n-1) + (n-1) I(n-2),
    computed bottom-up so that no call recurses."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    prev, cur = 1, 1  # I(0), I(1)
    for m in range(1, n):
        prev, cur = cur, cur + m * prev
    return cur


def g_poly(n: int, u1: Fraction, u2: Fraction) -> Fraction:
    """Evaluate the cycle-counting polynomial g_n at (u1, u2) by recursion."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    u1, u2 = Fraction(u1), Fraction(u2)
    prev, cur = Fraction(1), u1  # g_0, g_1
    if n == 0:
        return prev
    for m in range(1, n):
        prev, cur = cur, u1 * cur + m * u2 * prev
    return cur


def g_poly_oracle(n: int, u1: Fraction, u2: Fraction) -> Fraction:
    """g_n by direct summation of u1^alpha1 u2^alpha2 over all involutions."""
    u1, u2 = Fraction(u1), Fraction(u2)
    total = Fraction(0)
    for a1, count in enumerate(_fixed_point_histogram(n)):
        if count:
            total += count * u1**a1 * u2 ** ((n - a1) // 2)
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


def _psi_by_enumeration(n: int) -> RationalFunction:
    from .identity import weight_w

    w1 = weight_w(1)
    total = RationalFunction.zero()
    for a1, count in enumerate(_fixed_point_histogram(n)):
        if count:
            total = total + count * (w1**a1 if a1 else RationalFunction.one())
    return total


def _psi_by_recursion(n: int) -> RationalFunction:
    """psi_n by the recursion psi_{m+1} = w(1) psi_m + m psi_{m-1}, bottom-up.

    With w(1) = (1 + q)/(1 - q), psi_m = P_m / (1 - q)^m for the integer
    polynomials P_0 = 1, P_1 = 1 + q and
    P_{m+1} = (1 + q) P_m + m (1 - q)^2 P_{m-1}.  P_m(1) = 2^m is nonzero, so
    no factor 1 - q cancels and the fraction is already reduced.
    """
    prev, cur = [], [1]  # P_{m-1}, P_m (low degree first)
    for m in range(n):
        nxt = cur + [0]
        for i, c in enumerate(cur):
            nxt[i + 1] += c
        for i, c in enumerate(prev):
            mc = m * c
            nxt[i] += mc
            nxt[i + 1] -= 2 * mc
            nxt[i + 2] += mc
        prev, cur = cur, nxt
    if sum(cur) != 1 << n:
        raise AssertionError(f"psi numerator at n={n} does not take the value 2^n at q=1")
    # the denominator made monic: (q - 1)^n, with the numerator's sign to match
    sign = -1 if n % 2 else 1
    den = Polynomial(comb(n, i) * (-1) ** (n - i) for i in range(n + 1))
    return RationalFunction._from_canonical(Polynomial(sign * c for c in cur), den)


@cache
def psi_n(n: int) -> RationalFunction:
    """Sum of w(1)^(number of fixed points) over all involutions of S_n.

    Computed bottom-up by the recursion psi_{n+1} = w(1) psi_n + n psi_{n-1},
    so no call recurses; for small n the value is re-derived by brute
    enumeration and the two routes are asserted to agree.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    value = _psi_by_recursion(n)
    if n <= PSI_ENUMERATION_BOUND:
        enumerated = _psi_by_enumeration(n)
        if enumerated != value:
            raise AssertionError(
                f"psi recursion and enumeration disagree at n={n}: "
                f"{value.format()} vs {enumerated.format()}"
            )
    return value
