"""Dirichlet characters mod n on top of the cyclic unit-group decomposition.

A character is its int64 exponent row e against g.cyclic_factors, taking the
value exp(2 pi i sum_i e_i x_i / o_i) at the unit with exponent vector x, and
a list of characters is one (k, r) array of rows, r = len(g.cyclic_factors)
(0 for n = 2).  Values are tracked exactly as integer logs t, with
chi(m) = exp(2 pi i t / L) for L the group exponent, so triviality tests are
integer comparisons.  Complex floats appear only when values are
materialized or summed.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .residue_group import Subgroup, UnitGroup

__all__ = [
    "all_characters",
    "char_sum",
    "character_matrix",
    "character_prefix_sums",
    "evaluate",
    "orthogonality_deviation",
    "pv_bound",
    "pv_sweep_max",
    "quotient_characters",
]


def _orders(g: UnitGroup) -> np.ndarray:
    return np.array([o for _, o in g.cyclic_factors], dtype=np.int64)


def _log_table(g: UnitGroup, chars: np.ndarray, columns) -> np.ndarray:
    """Integer logs T[i, j] with chars[i](columns[j]) = exp(2 pi i T / L) at
    the units among the columns (0 at the non-units, where dlog_table is 0)."""
    L = g.exponent()
    return (chars * (L // _orders(g))) @ g.dlog_table[:, columns] % L


def all_characters(g: UnitGroup) -> np.ndarray:
    """All phi(n) characters mod n as rows, lexicographic in the exponent
    vector, principal (zero) row first."""
    orders = [o for _, o in g.cyclic_factors]
    return np.indices(orders, dtype=np.int64).reshape(len(orders), g.phi).T


def evaluate(g: UnitGroup, chi, m: int) -> complex:
    """chi(m): 0 off the units, a root of unity on them, from the scalar
    dlog of m; the oracle of character_matrix."""
    if math.gcd(m, g.n) != 1:
        return 0j
    L = g.exponent()
    t = sum(
        int(e) * x * (L // order)
        for e, x, (_, order) in zip(chi, g.dlog(m % g.n), g.cyclic_factors)
    ) % L
    if t == 0:
        return 1 + 0j
    return cmath.exp(2j * cmath.pi * t / L)


def char_sum(g: UnitGroup, chi, h: int) -> complex:
    """Partial sum of chi(k) for k = 1..h, folding over full periods."""
    if h < 0:
        raise ValueError(f"upper limit must be >= 0, got {h}")
    full, rem = divmod(h, g.n)
    total = 0j if any(chi) else complex(full * g.phi)
    for k in range(1, rem + 1):
        total += evaluate(g, chi, k)
    return total


def quotient_characters(G: Subgroup) -> np.ndarray:
    """The rows of all_characters trivial on G: exactly index(G) of them, and
    precisely those arising from characters of the quotient group.

    Reads the integer logs at G's generator columns only.
    """
    g = G.group
    chars = all_characters(g)
    logs = _log_table(g, chars, np.array(G.generators, dtype=np.intp))
    return chars[~logs.any(axis=1)]


def pv_bound(n: int) -> float:
    """Polya-Vinogradov bound 2 sqrt(n) log(n), natural logarithm."""
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    return 2.0 * math.sqrt(n) * math.log(n)


# ---------------------------------------------------------------------------
# Vectorized value tables.  These exist so that full sweeps over all
# characters and all partial sums stay within the acceptance time budgets.
# The integer log table is one matrix product with the group's dlog_table,
# and values are gathered from one table of the L-th roots of unity by it,
# so only L complex exponentials are taken per modulus; the tests pin every
# cell against evaluate() and the prefix sums against char_sum().
# ---------------------------------------------------------------------------


def character_matrix(g: UnitGroup, chars: np.ndarray) -> np.ndarray:
    """Complex value table V[i, j] = chars[i](j) for j = 0..n-1."""
    L = g.exponent()
    V = np.exp((2j * np.pi / L) * np.arange(L))[_log_table(g, chars, slice(None))]
    V[:, np.gcd(np.arange(g.n), g.n) != 1] = 0
    return V


def character_prefix_sums(g: UnitGroup, chars: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(V, S): the value table V = character_matrix(g, chars) and its prefix
    sums S[i, h] = chars[i](0) + ... + chars[i](h) for h = 0..n-1 (chars[i](0) = 0)."""
    V = character_matrix(g, chars)
    return V, np.cumsum(V, axis=1)


def pv_sweep_max(g: UnitGroup) -> tuple[float, float]:
    """(max over non-principal chi mod n = g.n and 1 <= h <= n of |char sum|,
    pv_bound(n)).

    Uses the prefix-sum table, so one call covers every character and every
    prefix length for the modulus (h = n repeats h = n - 1, as chi(n) = 0).
    The conjugate character has the conjugate sums, so the table keeps only
    rows e ranked at or before their conjugate (-e) mod orders, the rank of
    a row being its index e . s in all_characters (s_i the product of the
    orders after i): one of each conjugate pair and every real character,
    the principal one still first.
    """
    orders = _orders(g)
    strides = g.phi // np.cumprod(orders)
    chars = all_characters(g)
    chars = chars[chars @ strides <= (-chars % orders) @ strides]
    if len(chars) <= 1:
        return 0.0, pv_bound(g.n)
    _, S = character_prefix_sums(g, chars)
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
