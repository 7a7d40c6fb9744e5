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

from .arith import coprime_mask
from .residue_group import Subgroup, UnitGroup

__all__ = [
    "all_characters",
    "character_matrix",
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
# cell against evaluate() and the prefix sums against the tests' char_sum.
# ---------------------------------------------------------------------------

_CELLS = 1 << 16  # the most cells of a streamed row block: 1 MB of complex128


def character_matrix(g: UnitGroup, chars: np.ndarray, columns=slice(None)) -> np.ndarray:
    """Complex value table V[i, j] = chars[i](k_j) over the residues
    k_j = np.arange(n)[columns]: all n of them by default, else the columns
    any numpy index (a slice or an index array) selects."""
    cols = np.arange(g.n)[columns]
    L = g.exponent()
    V = np.exp((2j * np.pi / L) * np.arange(L))[_log_table(g, chars, cols)]
    V[:, ~coprime_mask(g.factorization, g.n)[cols]] = 0
    return V


def _row_blocks(g: UnitGroup, chars: np.ndarray, columns=slice(None)):
    """(rows, character_matrix(g, chars[rows], columns)) over consecutive row
    slices of at most _CELLS cells each (one row at least)."""
    step = max(1, _CELLS // np.arange(g.n)[columns].size)
    for lo in range(0, len(chars), step):
        rows = slice(lo, lo + step)
        yield rows, character_matrix(g, chars[rows], columns)


def pv_sweep_max(g: UnitGroup) -> tuple[float, float]:
    """(max over non-principal chi mod n = g.n and 1 <= h <= n of |char sum|,
    pv_bound(n)).

    Uses the prefix-sum table, so one call covers every character and every
    prefix length for the modulus.  For non-principal chi the full-period sum
    S(n - 1) vanishes and chi(n - k) = chi(-1) chi(k), so the mirror identity
    S(n - 1 - h) = -chi(-1) S(h) holds; with S(n - 1) = S(n) = 0 the maximum
    over 1 <= h <= n is reached at some h <= (n - 1) / 2.  A non-unit h adds
    an exact 0, so S(h) equals the sum at the last unit at or below h (1 is a
    unit), and the table has only the unit columns 1 <= h <= (n - 1) / 2.
    The conjugate character has the conjugate sums, so the table keeps only
    rows e ranked at or before their conjugate (-e) mod orders, the rank of
    a row being its index e . s in all_characters (s_i the product of the
    orders after i): one of each conjugate pair and every real character,
    the principal one still first.  The table is streamed in row blocks;
    sums run along whole rows, so the maximum is the whole table's exactly.
    """
    orders = _orders(g)
    strides = g.phi // np.cumprod(orders)
    chars = all_characters(g)
    chars = chars[chars @ strides <= (-chars % orders) @ strides]
    if len(chars) <= 1:
        return 0.0, pv_bound(g.n)
    mx = 0.0
    for rows, V in _row_blocks(g, chars, np.flatnonzero(coprime_mask(g.factorization, (g.n + 1) // 2))):
        S = np.abs(np.cumsum(V, axis=1))
        if rows.start == 0:
            S[0] = 0  # the principal row; |S| >= 1 at h = 1 in every other
        mx = max(mx, float(np.max(S)))
    return mx, pv_bound(g.n)


def orthogonality_deviation(g: UnitGroup) -> tuple[float, float]:
    """(max |sum over chi of chi(x)| for units x != 1,
        max |sum over units of chi(x)| for non-principal chi).

    The table is streamed in row blocks; the column sums add its rows in
    table order, so both sums are the whole table's, bit for bit."""
    chars = all_characters(g)
    col = np.zeros(g.n, dtype=np.complex128)
    row = np.empty(len(chars), dtype=np.complex128)
    for rows, V in _row_blocks(g, chars):
        row[rows] = V.sum(axis=1)
        V[0] += col  # the sums so far, then this block's rows in order
        col = V.sum(axis=0)
    units = np.array(g.units()[1:], dtype=np.int64)  # every unit but 1
    col_dev = float(np.max(np.abs(col[units]), initial=0.0))
    return col_dev, float(np.max(np.abs(row[1:]), initial=0.0))
