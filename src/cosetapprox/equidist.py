"""Exact counting of coprime residues and coset elements in initial segments,
the character-sum counting identity, the explicit equidistribution error
bound, and exact interval-system measures.

Counts, measures and interval endpoints are exact rationals throughout;
floating point enters only through character sums and the reported bounds.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import as_fraction, euler_phi, factor, tau
from .characters import character_prefix_sums, pv_bound, quotient_characters
from .residue_group import Coset, Subgroup, coset

__all__ = [
    "CountEstimate",
    "IntervalSystem",
    "OverlapReport",
    "OverlapSweepReport",
    "interval_system",
    "overlap_bound_check",
    "overlap_excess_sweep",
    "overlap_measure",
    "phi_mu",
    "phi_mu_sieve",
    "psi_character_value",
    "psi_count",
    "psi_estimate",
]

_SCAN_CHUNK = 1 << 18


def phi_mu(n: int, mu) -> int:
    """Count of integers in [1, floor(mu*n)] coprime to n, by direct gcd scan."""
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    mu = as_fraction(mu)
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    m = math.floor(mu * n)
    count = 0
    for lo in range(1, m + 1, _SCAN_CHUNK):
        hi = min(m, lo + _SCAN_CHUNK - 1)
        block = np.arange(lo, hi + 1, dtype=np.int64)
        count += int(np.count_nonzero(np.gcd(block, n) == 1))
    return count


def phi_mu_sieve(n: int, mu) -> tuple[int, Fraction]:
    """Inclusion-exclusion count over the squarefree divisors of n.

    Returns (count, R) where R = count - mu*phi(n) is the exact remainder;
    the identity guarantees count = phi_mu(n, mu) and |R| <= tau(n).  With
    mu = num/den each term floor(mu*n/k) is the integer floor division
    num*n // (den*k), so the sum needs no rationals; only R is one.
    """
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    mu = as_fraction(mu)
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    f = factor(n)
    divisors = [(1, 1)]  # (squarefree k | n, Moebius sign of k)
    for p, _ in f:
        divisors += [(k * p, -sign) for k, sign in divisors]
    top, den = mu.numerator * n, mu.denominator
    count = sum(sign * (top // (den * k)) for k, sign in divisors)
    remainder = count - mu * euler_phi(f)
    if abs(remainder) > tau(f):
        raise ArithmeticError(f"sieve remainder {remainder} exceeds tau({n})")
    return count, remainder


def psi_count(X, c: Coset) -> int:
    """Exact count of integers l in [1, X] whose residue lies in the coset.

    With X = mu * q**d for a coset mod q this is the lifted count of
    numerators p <= mu q^d with p mod q in the coset.
    """
    X = as_fraction(X)
    if X < 0:
        raise ValueError(f"upper limit must be >= 0, got {X}")
    m = math.floor(X)
    n = c.n
    full, rem = divmod(m, n)
    return full * len(c.elements) + bisect_right(c.elements, rem)


def psi_character_value(mu, c: Coset) -> complex:
    """Raw complex value of the character-sum expression for psi_count.

    Averages chi(a^-1 k) over the characters trivial on the subgroup and
    k <= mu*n; by orthogonality this equals the coset count exactly, so the
    float result should sit next to an integer: round(value.real) is the
    count, and the distance to it is the float error.
    """
    mu = as_fraction(mu)
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    G = c.subgroup
    g = G.group
    n = g.n
    chars = quotient_characters(G)
    V, prefix = character_prefix_sums(g, chars)
    m = math.floor(mu * n)
    full, rem = divmod(m, n)
    sums = prefix[:, rem].copy()
    sums[0] += full * g.phi  # principal character: full periods count the units
    alpha = pow(c.representative, -1, n)
    total = complex(np.sum(V[:, alpha] * sums))
    return total / len(chars)


@dataclass(frozen=True)
class CountEstimate:
    """Exact coset count against its equidistribution main term.

    bound is the explicit finite bound tau(n) + 2 sqrt(n) log(n) extracted
    from the character-sum argument (principal-character sieve remainder plus
    Polya-Vinogradov for the rest, both relaxed to their numerators).
    """

    exact_count: int
    main_term: Fraction
    abs_error: Fraction
    bound: float
    normalized_error: float


def psi_estimate(mu, c: Coset) -> CountEstimate:
    """Compare psi_count with the main term mu*|G| and the explicit bound."""
    mu = as_fraction(mu)
    n = c.n
    exact = psi_count(mu * n, c)
    main = mu * len(c.elements)
    err = abs(exact - main)
    bound = tau(factor(n)) + pv_bound(n)
    if float(err) > bound:
        raise ArithmeticError(f"equidistribution bound violated at n={n}: {err} > {bound}")
    return CountEstimate(
        exact_count=exact,
        main_term=main,
        abs_error=err,
        bound=bound,
        normalized_error=float(err) / bound,
    )


# ---------------------------------------------------------------------------
# Interval systems: unions of open intervals of radius alpha/q^d centered at
# the coset-constrained numerators p/q^d, and their exact overlap measures.
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class IntervalSystem:
    """Open intervals of radius alpha/q^d centered at p/q^d, over the centers
    p in (0, q^d) with p mod q in the coset; q is the coset's modulus.

    Centers are never materialized eagerly (there are |G| * q^(d-1) of them);
    counting queries go through the periodic coset structure.
    """

    d: int
    alpha: Fraction
    coset: Coset

    def __post_init__(self) -> None:
        if not (0 < self.alpha < Fraction(1, 2)):
            raise ValueError(f"radius parameter must lie in (0, 1/2), got {self.alpha}")
        if self.d < 1:
            raise ValueError(f"power must be >= 1, got {self.d}")

    @property
    def q(self) -> int:
        return self.coset.n

    @property
    def modulus(self) -> int:
        return self.q**self.d

    @property
    def radius(self) -> Fraction:
        return self.alpha / self.modulus

    @property
    def center_count(self) -> int:
        return len(self.coset.elements) * self.q ** (self.d - 1)

    @property
    def measure(self) -> Fraction:
        return 2 * self.radius * self.center_count

    def is_center(self, p: int) -> bool:
        return 0 < p < self.modulus and p in self.coset

    def count_upto(self, X) -> int:
        """Number of centers <= X."""
        X = as_fraction(X)
        if X < 1:
            return 0
        return psi_count(min(X, Fraction(self.modulus)), self.coset)

    def measure_upto(self, X) -> Fraction:
        """Exact measure of E meet (0, X/N) in units of 1/N, N = q^d, for
        0 <= X <= N: 2 alpha per interval ending by X, plus X - p + alpha when
        the one center p = round(X) that alpha < 1/2 allows straddles X."""
        X = as_fraction(X)
        r = self.alpha
        scaled = 2 * r * self.count_upto(X - r)
        p = round(X)
        if abs(X - p) < r and self.is_center(p):
            scaled += X - p + r
        return scaled

    def centers(self) -> list[int]:
        if self.center_count > 2 * 10**6:
            raise ValueError(f"{self.center_count} centers exceed materialization limit")
        elems = self.coset.elements
        return [b * self.q + t for b in range(self.q ** (self.d - 1)) for t in elems]


def interval_system(d: int, alpha, a: int, G: Subgroup) -> IntervalSystem:
    """Build the interval system of (d, alpha) over the coset a G mod q."""
    return IntervalSystem(d=d, alpha=as_fraction(alpha), coset=coset(a, G))


def overlap_measure(E: IntervalSystem, s, t) -> tuple[Fraction, Fraction]:
    """Exact measure of E intersected with (s, t), plus the recovered theta.

    theta is measure * q^d / (2 alpha) minus the count of centers in the
    scaled window; the interval-counting argument forces |theta| <= 2, which
    is re-asserted here on the exact rationals.
    """
    s, t = as_fraction(s), as_fraction(t)
    if not (0 <= s < t <= 1):
        raise ValueError(f"need 0 <= s < t <= 1, got ({s}, {t})")
    N = E.modulus
    S, T = s * N, t * N
    scaled = E.measure_upto(T) - E.measure_upto(S)  # two prefix measures, units of 1/N
    window = E.count_upto(T) - E.count_upto(S)
    theta = scaled / (2 * E.alpha) - window
    if abs(theta) > 2:
        raise ArithmeticError(f"overlap theta {theta} escapes [-2, 2]")
    return scaled / N, theta


@dataclass(frozen=True)
class OverlapReport:
    """Exact overlap of a finite interval union A with an interval system."""

    lambda_a: Fraction
    lambda_e: Fraction
    lambda_intersection: Fraction
    multiplier: Fraction
    excess: Fraction


def _normalize_pieces(A) -> list[tuple[Fraction, Fraction]]:
    pieces = sorted((as_fraction(lo), as_fraction(hi)) for lo, hi in A)
    if not pieces:
        raise ValueError("A must contain at least one interval")
    prev_hi = Fraction(0)
    for lo, hi in pieces:
        if not (0 <= lo < hi <= 1):
            raise ValueError(f"interval ({lo}, {hi}) not inside (0, 1)")
        if lo < prev_hi:
            raise ValueError("intervals of A must be disjoint")
        prev_hi = hi
    return pieces


def overlap_bound_check(A, E: IntervalSystem) -> OverlapReport:
    """Exact lambda(A meet E) against the product lambda(A) lambda(E).

    Reports the implied multiplier lambda(A meet E) / (lambda(A) lambda(E));
    the excess (multiplier - 1) is what a q-sweep watches decay.
    """
    pieces = _normalize_pieces(A)
    lam_a = sum((hi - lo for lo, hi in pieces), Fraction(0))
    lam_e = E.measure
    lam_ae = sum((overlap_measure(E, lo, hi)[0] for lo, hi in pieces), Fraction(0))
    multiplier = lam_ae / (lam_a * lam_e)
    return OverlapReport(
        lambda_a=lam_a,
        lambda_e=lam_e,
        lambda_intersection=lam_ae,
        multiplier=multiplier,
        excess=multiplier - 1,
    )


@dataclass(frozen=True)
class OverlapSweepReport:
    """Excess decay across a q-sweep of interval systems."""

    rows: tuple[tuple[int, int, float], ...]  # (q, d, |excess|)
    reference_exponent: float
    slope: float | None
    decays: bool


def overlap_excess_sweep(A, systems, epsilon: float = 0.05) -> OverlapSweepReport:
    """Fit |multiplier - 1| against q and report whether the excess decays.

    The reference decay rate is q^-(d - 1/2 - epsilon); the fitted slope is a
    least-squares log-log regression over the nonzero excesses (a trend
    report, not a limit claim).  The systems must share one d and have
    strictly increasing q: the fit and the early/late halves assume both.
    """
    if len(systems) < 2:
        raise ValueError("sweep needs at least two systems")
    if any(E.q >= F.q for E, F in zip(systems, systems[1:])):
        raise ValueError(f"sweep needs strictly increasing q, got {[E.q for E in systems]}")
    if len({E.d for E in systems}) > 1:
        raise ValueError(f"sweep needs one d for every system, got {[E.d for E in systems]}")
    rows = []
    for E in systems:
        rep = overlap_bound_check(A, E)
        rows.append((E.q, E.d, abs(float(rep.excess))))
    d = rows[0][1]
    pts = [(math.log(q), math.log(x)) for q, _, x in rows if x > 0]
    slope = None
    if len(pts) >= 2:
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        slope = float(np.polyfit(xs, ys, 1)[0])
    half = len(rows) // 2
    early = max(x for _, _, x in rows[:half])
    late = max(x for _, _, x in rows[half:])
    decays = (slope is not None and slope < 0) or late <= early
    return OverlapSweepReport(
        rows=tuple(rows),
        reference_exponent=-(d - 0.5 - epsilon),
        slope=slope,
        decays=decays,
    )
