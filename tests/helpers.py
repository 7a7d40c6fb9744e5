"""Helpers shared by the test modules."""

import tracemalloc
from decimal import Decimal
from fractions import Fraction

from cosetapprox.characters import evaluate
from cosetapprox.residue_group import UnitGroup


def exact_fraction(s: str) -> Fraction:
    """Inverse of `experiment.exact_str`, for digit strings of any length."""
    num, _, den = s.partition("/")
    return Fraction(*Decimal(num).as_integer_ratio()) / Fraction(
        *Decimal(den or "1").as_integer_ratio()
    )


def char_sum(g: UnitGroup, chi, h: int) -> complex:
    """Partial sum of chi(k) for k = 1..h, folding over full periods: the
    scalar oracle of the character prefix sums."""
    if h < 0:
        raise ValueError(f"upper limit must be >= 0, got {h}")
    full, rem = divmod(h, g.n)
    total = 0j if any(chi) else complex(full * g.phi)
    for k in range(1, rem + 1):
        total += evaluate(g, chi, k)
    return total


def traced_peak_mb(fn) -> float:
    """Peak traced memory of one call fn(), in MB.  numpy reports its array
    buffers to tracemalloc, so a whole value table shows in the peak."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
