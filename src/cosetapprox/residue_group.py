"""Explicit structure of the unit group (Z/nZ)^*: cyclic decomposition with
reproducible generators, subgroups, cosets, and membership tests.

Everything is sized for moduli up to about 10^6: subgroups and cosets are
stored as explicit sorted element sets, and the discrete-log table of the
whole group is built on demand.  All objects are treated as immutable after
construction; operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arith import Factorization, coprime_mask, euler_phi, factor

SUBGROUP_MODES = ("full", "dth-powers", "generators")

__all__ = [
    "SUBGROUP_MODES",
    "Coset",
    "Subgroup",
    "UnitGroup",
    "closure",
    "coset",
    "dth_power_subgroup",
    "full_subgroup",
    "index",
    "is_dth_power",
    "subgroup",
    "subgroup_from_generators",
    "unit_group",
]


def _primitive_root(p: int, e: int) -> int:
    """Smallest primitive root modulo the odd prime power p^e.

    Candidates are tested against every maximal proper divisor of the group
    order, so the result has exactly order phi(p^e) and is stable run to run.
    """
    q = p**e
    phi = p ** (e - 1) * (p - 1)
    prime_divs = {p for p, _ in factor(p - 1)}
    if e > 1:
        prime_divs.add(p)
    for g in range(2, q):
        if g % p == 0:
            continue
        if all(pow(g, phi // r, q) != 1 for r in prime_divs):
            return g
    raise ArithmeticError(f"no primitive root found mod {q}")


def _component_gens(p: int, e: int) -> tuple[tuple[int, int], ...]:
    """Local generators (g, order) of (Z/p^e Z)^*."""
    if p == 2:
        if e == 1:
            return ()
        if e == 2:
            return ((3, 2),)
        return ((2**e - 1, 2), (5, 2 ** (e - 2)))
    g = _primitive_root(p, e)
    return ((g, p ** (e - 1) * (p - 1)),)


@dataclass(eq=False)
class UnitGroup:
    """(Z/nZ)^* as a direct product of cyclic groups.

    cyclic_factors lists (generator, order) pairs with generators lifted to
    residues mod n; every unit has a unique exponent vector against them,
    read from the one discrete-log table, built lazily.
    """

    n: int
    factorization: Factorization
    phi: int
    cyclic_factors: tuple[tuple[int, int], ...]

    def units(self) -> list[int]:
        """Units 1..n-1 off coprime_mask; the subgroup closures' test oracle."""
        return np.flatnonzero(coprime_mask(self.factorization, self.n)).tolist()

    def exponent(self) -> int:
        """lcm of the cyclic factor orders (1 for the trivial group)."""
        return math.lcm(*(o for _, o in self.cyclic_factors)) if self.cyclic_factors else 1

    @cached_property
    def dlog_table(self) -> np.ndarray:
        """int64 array, one row per cyclic factor: column x holds the exponent
        vector of x against cyclic_factors for a unit x, zeros otherwise.

        Built by enumerating the products of generator powers mod n; those
        int64 products stay below n^2, safe for moduli up to about 10^6.
        The product at flat index j has the mixed-radix digits of j as its
        exponents, the last factor's most significant, which np.indices
        lists in the same order.
        """
        n = self.n
        orders = [order for _, order in self.cyclic_factors]
        values = np.ones(1, dtype=np.int64)
        for g, order in self.cyclic_factors:
            powers = [1]
            for _ in range(order - 1):
                powers.append(powers[-1] * g % n)
            values = (np.array(powers, dtype=np.int64)[:, None] * values % n).ravel()
        table = np.zeros((len(orders), n), dtype=np.int64)
        table[:, values] = np.indices(orders[::-1]).reshape(len(orders), len(values))[::-1]
        return table

    def dlog(self, x: int) -> tuple[int, ...]:
        """Exponent vector of the unit x against cyclic_factors."""
        if math.gcd(x, self.n) != 1:
            raise ValueError(f"{x} is not a unit mod {self.n}")
        return tuple(self.dlog_table[:, x % self.n].tolist())


def unit_group(n: int) -> UnitGroup:
    """Build the unit group mod n (n >= 2) with deterministic generators."""
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    f = factor(n)
    cyclic = []
    for p, e in f:
        q = p**e
        rest = n // q
        for g, order in _component_gens(p, e):
            if rest == 1:
                lifted = g % n
            else:
                # CRT lift: congruent to g mod q and to 1 mod n/q.
                t = (g - 1) * pow(rest, -1, q) % q
                lifted = (1 + rest * t) % n
            cyclic.append((lifted, order))
    return UnitGroup(
        n=n,
        factorization=f,
        phi=euler_phi(f),
        cyclic_factors=tuple(cyclic),
    )


@dataclass(eq=False)
class Subgroup:
    """Subgroup of a unit group: the closure of its generators, stored as an
    explicit sorted element set."""

    group: UnitGroup
    elements: tuple[int, ...]
    generators: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


@dataclass(eq=False)
class Coset:
    """Coset a*G of a subgroup G, with a a unit mod n."""

    subgroup: Subgroup
    representative: int
    elements: tuple[int, ...]

    @cached_property
    def element_set(self) -> frozenset[int]:
        return frozenset(self.elements)

    @property
    def n(self) -> int:
        return self.subgroup.group.n

    def __contains__(self, p: int) -> bool:
        """Whether the integer p reduces into the coset (false for non-units)."""
        return p % self.n in self.element_set


def full_subgroup(g: UnitGroup) -> Subgroup:
    """The whole unit group as a subgroup of itself."""
    return dth_power_subgroup(g, 1)


def dth_power_subgroup(g: UnitGroup, d: int) -> Subgroup:
    """The subgroup {x^d : x unit mod n} of d-th power residues.

    Every unit is x = prod g_i^(e_i) over the generators g_i of
    cyclic_factors, so x^d = prod (g_i^d)^(e_i): the d-th powers are the
    subgroup generated by the g_i^d, and their closure lists it without
    scanning the units.
    """
    if d < 1:
        raise ValueError(f"power must be >= 1, got {d}")
    return subgroup_from_generators(g, sorted({pow(gen, d, g.n) for gen, _ in g.cyclic_factors}))


def subgroup_from_generators(g: UnitGroup, gens) -> Subgroup:
    """Smallest subgroup containing the given residues (all must be units,
    else closure raises ValueError)."""
    gens = list(gens)
    elements = tuple(sorted(closure(gens, g.n)))
    return Subgroup(group=g, elements=elements, generators=tuple(x % g.n for x in gens))


def subgroup(g: UnitGroup, mode: str, d: int, generators) -> Subgroup:
    """The subgroup a (mode, d, generators) spec names.  It lists every
    element (about n/2 residues for the squares mod a prime), so prepare
    keeps its own cheaper membership predicates."""
    if mode == "full":
        return full_subgroup(g)
    if mode == "dth-powers":
        return dth_power_subgroup(g, d)
    if mode == "generators":
        return subgroup_from_generators(g, generators)
    raise ValueError(f"subgroup mode must be one of {SUBGROUP_MODES}, got {mode!r}")


def closure(gens, n: int) -> set[int]:
    """The subgroup of (Z/nZ)^* generated by the units gens; needs no
    unit-group structure.  Raises ValueError on a generator that is not a
    unit mod n.

    Extends by cosets: with H the subgroup generated so far (at first {1}),
    the next generator x gives <H, x> = H u xH u ... u x^(k-1) H, where k is
    the least k >= 1 with x^k in H.  The cosets x^j H for j < k are disjoint
    from H and from each other, so each element is made by one product and
    only the powers of x are looked up in H.
    """
    elems = [1 % n]
    members = set(elems)
    for x in gens:
        if math.gcd(x, n) != 1:
            raise ValueError(f"generator {x} is not coprime to {n}")
        x %= n
        powers = []  # x^j for 1 <= j < k
        y = x
        while y not in members:
            powers.append(y)
            y = y * x % n
        added = [p * h % n for p in powers for h in elems]
        elems += added
        members.update(added)
    return members


def coset(a: int, G: Subgroup) -> Coset:
    """The coset a*G; rejects a not coprime to the modulus."""
    n = G.group.n
    if math.gcd(a, n) != 1:
        raise ValueError(f"coset representative {a} is not a unit mod {n}")
    a %= n
    return Coset(
        subgroup=G,
        representative=a,
        elements=tuple(sorted(a * x % n for x in G.elements)),
    )


def index(G: Subgroup) -> int:
    """Index of G in the unit group: phi(n) / |G|, an exact integer."""
    phi = G.group.phi
    if phi % G.order != 0:
        raise ArithmeticError("subgroup order does not divide phi(n)")
    return phi // G.order


# ---------------------------------------------------------------------------
# Fast membership test that avoids materializing the subgroup.  This is the
# optional exponent-test shortcut; the test suite cross-checks it against the
# explicit element sets.
# ---------------------------------------------------------------------------


def is_dth_power(f: Factorization, x: int, d: int) -> bool:
    """Exponent test: is x a d-th power residue mod f.n?

    Works per prime power.  Odd p^e has a cyclic unit group of order m, where
    membership is the power test x^(m / gcd(d, m)) = 1.  For p = 2, e >= 3
    the unit group is {+-1} x <5>; a unit is an even-power residue iff it is
    1 mod 4 and passes the power test in <5>.  The modulus 1 is trivial.
    """
    n = f.n
    if math.gcd(x, n) != 1:
        return False
    for p, e in f:
        q = p**e
        r = x % q
        if p == 2:
            if e == 1 or d % 2 == 1:
                continue  # x -> x^d is onto for odd d on a 2-group
            if r % 4 != 1:
                return False
            if e == 2:
                continue
            m = 1 << (e - 2)
            if pow(r, m // math.gcd(d, m), q) != 1:
                return False
        else:
            m = q // p * (p - 1)
            if pow(r, m // math.gcd(d, m), q) != 1:
                return False
    return True

