"""Differential oracle: factor, euler_phi, totients, is_prime and
is_dth_power against sympy.

Optional: skipped when sympy is not installed (the `test` extra installs
it).  Covers every n < 1500, a seeded sample of n up to 10^18, and seeded n
from every band of is_prime's witness table.  is_dth_power is compared on
units only, where it agrees with sympy's is_nthpow_residue by definition.
"""

import math
import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.ntheory.residue_ntheory import is_nthpow_residue  # noqa: E402

from cosetapprox.arith import _MR_TABLE, euler_phi, factor, is_prime, totients  # noqa: E402
from cosetapprox.residue_group import is_dth_power  # noqa: E402

POWERS = (2, 3, 4, 6)


def test_factor_and_phi_below_1500():
    for n in range(1, 1500):
        f = factor(n)
        assert dict(f.factors) == sympy.factorint(n), n
        assert euler_phi(f) == sympy.totient(n), n


def test_totients_below_1500_and_up_to_1e18():
    # the sieve path below 1500, factor per n for the large values
    rng = random.Random(1500 * 10**18)
    for ns in (range(1, 1500), [rng.randrange(2, 10**18) for _ in range(100)]):
        assert totients(ns) == [sympy.totient(n) for n in ns]


def test_dth_powers_below_1500():
    # every unit for n < 60, eight seeded random units above
    rng = random.Random(1500)
    for n in range(2, 1500):
        f = factor(n)
        units = [x for x in range(1, n) if math.gcd(x, n) == 1]
        xs = units if n < 60 else rng.sample(units, min(len(units), 8))
        for d in POWERS:
            for x in xs:
                assert is_dth_power(f, x, d) == is_nthpow_residue(x, d, n), (n, x, d)


def test_random_moduli_up_to_1e18():
    rng = random.Random(10**18)
    for _ in range(300):
        n = rng.randrange(2, 10**18)
        f = factor(n)
        assert dict(f.factors) == sympy.factorint(n), n
        assert euler_phi(f) == sympy.totient(n), n
        x = rng.randrange(1, n)
        while math.gcd(x, n) != 1:
            x = rng.randrange(1, n)
        d = rng.choice(POWERS)
        assert is_dth_power(f, x, d) == is_nthpow_residue(x, d, n), (n, x, d)


@pytest.mark.parametrize("band", range(len(_MR_TABLE)))
def test_is_prime_in_each_witness_band(band):
    # [psi_{t'}, psi_t) is tested with the first t bases, t from the row
    lo = _MR_TABLE[band - 1][0] if band else 2
    hi = _MR_TABLE[band][0]
    rng = random.Random(hi)
    ns = {lo, lo + 1, hi - 2, hi - 1}
    for _ in range(150):
        n = rng.randrange(lo, hi) | 1
        ns |= {n, sympy.prevprime(n) if n > 3 else n}
    ns = sorted(n for n in ns if lo <= n < hi)
    assert [is_prime(n) for n in ns] == [sympy.isprime(n) for n in ns]
    assert sum(map(is_prime, ns)) >= 100  # primes, not only composites, were drawn
