"""Differential oracle: factor, euler_phi and is_dth_power against sympy.

Optional: skipped when sympy is not installed.  Covers every n < 1500 and a
seeded sample of n up to 10^18.  is_dth_power is compared on units only,
where it agrees with sympy's is_nthpow_residue by definition.
"""

import math
import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.ntheory.residue_ntheory import is_nthpow_residue  # noqa: E402

from cosetapprox.arith import euler_phi, factor  # noqa: E402
from cosetapprox.residue_group import is_dth_power  # noqa: E402

POWERS = (2, 3, 4, 6)


def test_factor_and_phi_below_1500():
    for n in range(1, 1500):
        f = factor(n)
        assert dict(f.factors) == sympy.factorint(n), n
        assert euler_phi(f) == sympy.totient(n), n


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
