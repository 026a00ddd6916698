"""Test-only helpers that no `hookforge verify` unit reaches.

`cycle_stats` counts an involution's fixed points and 2-cycles directly from
its images; the tests use it as the oracle for the fixed-point histogram of
`hookforge.involutions`.  `mp_const` is the constant polynomial of the
packed-monomial kernel in `hookforge._multipoly`.
"""

from dataclasses import dataclass

from hookforge._multipoly import MPoly
from hookforge.involutions import Involution


@dataclass(frozen=True)
class CycleStats:
    """Fixed-point and 2-cycle counts; alpha1 + 2*alpha2 = n."""

    alpha1: int
    alpha2: int


def cycle_stats(inv: Involution) -> CycleStats:
    fixed = sum(1 for i, img in enumerate(inv.images, start=1) if img == i)
    return CycleStats(alpha1=fixed, alpha2=(inv.n - fixed) // 2)


def mp_const(nvars: int, value: int) -> MPoly:
    if value == 0:
        return {}
    return {0: value}
