"""Dirichlet characters mod n on top of the cyclic unit-group decomposition.

A character is stored as one exponent per cyclic factor; its value at a unit
is a root of unity tracked exactly as an integer exponent (log_value), so
triviality tests are integer comparisons.  Complex floats appear only when
values are materialized or summed.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .residue_group import Subgroup, UnitGroup

__all__ = [
    "DirichletCharacter",
    "all_characters",
    "char_sum",
    "character_matrix",
    "character_prefix_sums",
    "evaluate",
    "log_value",
    "orthogonality_deviation",
    "pv_bound",
    "pv_sweep_max",
    "quotient_characters",
]


@dataclass(eq=False)
class DirichletCharacter:
    """Character mod n given by exponents against the cyclic factors."""

    group: UnitGroup
    exponents: tuple[int, ...]

    @property
    def is_principal(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        if other.group is not self.group:
            raise ValueError("characters belong to different groups")
        exps = tuple(
            (a + b) % o
            for (a, b, (_, o)) in zip(self.exponents, other.exponents, self.group.cyclic_factors)
        )
        return DirichletCharacter(self.group, exps)


def all_characters(g: UnitGroup) -> list[DirichletCharacter]:
    """All phi(n) characters mod n, lexicographic in the exponent vector,
    principal character first."""
    orders = [o for _, o in g.cyclic_factors]
    return [DirichletCharacter(g, exps) for exps in itertools.product(*(range(o) for o in orders))]


def log_value(chi: DirichletCharacter, m: int) -> int | None:
    """Exact exponent t with chi(m) = exp(2 pi i t / L), L the group exponent;
    None when gcd(m, n) > 1 (where the character vanishes)."""
    g = chi.group
    if math.gcd(m, g.n) != 1:
        return None
    L = g.exponent()
    t = 0
    for e, dl, (_, order) in zip(chi.exponents, g.dlog(m % g.n), g.cyclic_factors):
        t += e * dl * (L // order)
    return t % L


def evaluate(chi: DirichletCharacter, m: int) -> complex:
    """chi(m): 0 off the units, a root of unity on them."""
    t = log_value(chi, m)
    if t is None:
        return 0j
    if t == 0:
        return 1 + 0j
    return cmath.exp(2j * cmath.pi * t / chi.group.exponent())


def char_sum(chi: DirichletCharacter, h: int) -> complex:
    """Partial sum of chi(k) for k = 1..h, folding over full periods."""
    if h < 0:
        raise ValueError(f"upper limit must be >= 0, got {h}")
    n = chi.group.n
    full, rem = divmod(h, n)
    total = complex(full * chi.group.phi) if chi.is_principal else 0j
    for k in range(1, rem + 1):
        total += evaluate(chi, k)
    return total


def quotient_characters(G: Subgroup) -> list[DirichletCharacter]:
    """The characters trivial on G: exactly index(G) of them, and precisely
    those arising from characters of the quotient group.

    Filters all characters on triviality over G's generators.
    """
    out = []
    for chi in all_characters(G.group):
        if all(log_value(chi, t) == 0 for t in G.generators):
            out.append(chi)
    return out


def pv_bound(n: int) -> float:
    """Polya-Vinogradov bound 2 sqrt(n) log(n), natural logarithm."""
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    return 2.0 * math.sqrt(n) * math.log(n)


# ---------------------------------------------------------------------------
# Vectorized value tables.  These exist so that full sweeps over all
# characters and all partial sums stay within the acceptance time budgets.
# The integer exponent table is one matrix product with the group's
# dlog_table, and values are gathered from one table of the L-th roots of
# unity by it, so only L complex exponentials are taken per modulus; the
# tests pin every cell against evaluate() and the prefix sums against
# char_sum().
# ---------------------------------------------------------------------------


def character_matrix(g: UnitGroup, chars: list[DirichletCharacter]) -> np.ndarray:
    """Complex value table V[i, j] = chars[i](j) for j = 0..n-1."""
    orders = np.array([o for _, o in g.cyclic_factors], dtype=np.int64)
    L = g.exponent()
    E = np.array([c.exponents for c in chars], dtype=np.int64).reshape(len(chars), len(orders))
    T = (E * (L // orders)) @ g.dlog_table % L
    V = np.exp((2j * np.pi / L) * np.arange(L))[T]
    V[:, np.gcd(np.arange(g.n), g.n) != 1] = 0
    return V


def character_prefix_sums(
    g: UnitGroup, chars: list[DirichletCharacter]
) -> tuple[np.ndarray, np.ndarray]:
    """(V, S): the value table V = character_matrix(g, chars) and its prefix
    sums S[i, h] = chars[i](1) + ... + chars[i](h) for h = 0..n-1."""
    V = character_matrix(g, chars)
    S = np.zeros_like(V)
    np.cumsum(V[:, 1:], axis=1, out=S[:, 1:])
    return V, S


def pv_sweep_max(g: UnitGroup) -> tuple[float, float]:
    """(max over non-principal chi mod n = g.n and 1 <= h <= n of |char sum|,
    pv_bound(n)).

    Uses the prefix-sum table, so one call covers every character and every
    prefix length for the modulus (h = n repeats h = n - 1, as chi(n) = 0).
    The conjugate character has the conjugate sums, so the table keeps only
    characters whose exponent vector is <= its conjugate's: one of each
    conjugate pair and every real character, the principal one still first.
    """
    orders = [o for _, o in g.cyclic_factors]
    chars = [
        chi for chi in all_characters(g)
        if chi.exponents <= tuple([-e % o for e, o in zip(chi.exponents, orders)])
    ]
    _, S = character_prefix_sums(g, chars)
    if len(chars) <= 1:
        return 0.0, pv_bound(g.n)
    return float(np.max(np.abs(S[1:, 1:]))), pv_bound(g.n)


def orthogonality_deviation(g: UnitGroup) -> tuple[float, float]:
    """(max |sum over chi of chi(x)| for units x != 1,
        max |sum over units of chi(x)| for non-principal chi)."""
    chars = all_characters(g)
    V = character_matrix(g, chars)
    col = V.sum(axis=0)
    units = np.array(g.units()[1:], dtype=np.int64)  # every unit but 1
    col_dev = float(np.max(np.abs(col[units]))) if units.size else 0.0
    row = V.sum(axis=1)
    row_dev = float(np.max(np.abs(row[1:]))) if len(chars) > 1 else 0.0
    return col_dev, row_dev
