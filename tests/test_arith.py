"""Arithmetic functions against enumeration oracles and multiplicative laws."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cosetapprox.arith import (
    Factorization,
    GrowthRow,
    _divisor_counts,
    brute_r_d,
    brute_u_d,
    euler_phi,
    factor,
    growth_scan,
    is_prime,
    omega,
    r_d,
    s_d,
    tau,
    trend_threshold,
    u_d,
)


def trial_division(n):
    """Independent factorization oracle."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return tuple(sorted(out.items()))


def count_coprime(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


class TestFactor:
    def test_one_has_empty_factor_list(self):
        assert factor(1).factors == ()

    def test_360(self):
        f = factor(360)
        assert f.factors == ((2, 3), (3, 2), (5, 1))
        assert math.prod(p**e for p, e in f) == 360

    def test_9991_matches_trial_division(self):
        assert factor(9991).factors == trial_division(9991) == ((97, 1), (103, 1))

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            factor(0)
        with pytest.raises(ValueError):
            factor(-6)

    def test_random_range_matches_trial_division(self):
        for n in list(range(1, 300)) + [2**20, 2**20 + 1, 999983, 10**6 + 3]:
            assert factor(n).factors == trial_division(n)

    def test_invalid_factorization_rejected(self):
        with pytest.raises(ValueError):
            Factorization(12, ((2, 1), (3, 1)))  # product is 6
        with pytest.raises(ValueError):
            Factorization(12, ((3, 1), (2, 2)))  # order
        with pytest.raises(ValueError):
            Factorization(8, ((8, 1),))  # not prime


class TestClosedForms:
    def test_phi_examples(self):
        assert euler_phi(factor(1)) == 1
        assert euler_phi(factor(10)) == 4 == count_coprime(10)
        assert euler_phi(factor(49)) == 42 == count_coprime(49)

    def test_tau_omega_examples(self):
        assert (tau(factor(1)), omega(factor(1))) == (1, 0)
        divisors_360 = [d for d in range(1, 361) if 360 % d == 0]
        assert tau(factor(360)) == len(divisors_360) == 24
        assert omega(factor(360)) == 3
        assert (tau(factor(97)), omega(factor(97))) == (2, 1)

    def test_u_d_examples_against_enumeration(self):
        assert sum(1 for m in range(8) if pow(m, 2, 8) == 1) == 4
        assert u_d(factor(8), 2) == 4
        assert u_d(factor(4), 2) == 2 == brute_u_d(4, 2)
        assert u_d(factor(9), 3) == 3 == brute_u_d(9, 3)
        assert u_d(factor(1), 5) == 1 == brute_u_d(1, 5)

    def test_r_d_examples_against_enumeration(self):
        squares_mod_7 = {pow(m, 2, 7) for m in range(1, 7)}
        assert squares_mod_7 == {1, 2, 4}
        assert r_d(factor(7), 2) == 3
        assert r_d(factor(12), 2) == 1 == brute_r_d(12, 2)
        assert r_d(factor(1), 4) == 1

    def test_s_d_examples(self):
        assert s_d(49, 2) == Fraction(21, 49) == Fraction(3, 7)
        for q in (2, 7, 12, 36):
            assert s_d(q, 1) == Fraction(euler_phi(factor(q)), q)
        assert s_d(1, 2) == 1

    def test_rejects_bad_power(self):
        with pytest.raises(ValueError):
            u_d(factor(10), 0)
        with pytest.raises(ValueError):
            r_d(factor(10), -1)


class TestOracles:
    def test_oracle_cutoff_enforced(self):
        with pytest.raises(ValueError):
            brute_u_d(10**6 + 1, 2)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_formulas_match_brute_force(self, d):
        for n in range(1, 400):
            f = factor(n)
            assert u_d(f, d) == brute_u_d(n, d), (n, d)
            assert r_d(f, d) == brute_r_d(n, d), (n, d)


class TestProperties:
    @given(st.integers(1, 2000), st.integers(1, 2000), st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_multiplicative_on_coprime_pairs(self, m, n, d):
        assume(math.gcd(m, n) == 1)
        fm, fn, fmn = factor(m), factor(n), factor(m * n)
        assert u_d(fmn, d) == u_d(fm, d) * u_d(fn, d)
        assert r_d(fmn, d) == r_d(fm, d) * r_d(fn, d)
        assert euler_phi(fmn) == euler_phi(fm) * euler_phi(fn)
        assert tau(fmn) == tau(fm) * tau(fn)

    @given(st.integers(1, 5000), st.integers(1, 6))
    @settings(max_examples=120, deadline=None)
    def test_global_identities(self, n, d):
        f = factor(n)
        assert r_d(f, d) * u_d(f, d) == euler_phi(f)
        assert u_d(f, d) <= (2 * d) ** omega(f)
        assert euler_phi(f) * 2 ** omega(f) >= n

    def test_is_prime_small(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(50):
            assert is_prime(n) == (n in primes)

    def test_strong_pseudoprime_to_twelve_bases_is_composite(self):
        # psi_12 passes Miller-Rabin to every prime base 2..37; base 41 exposes it
        psi12 = 318665857834031151167461
        assert not is_prime(psi12)
        assert factor(psi12).factors == ((399165290221, 1), (798330580441, 1))

    def test_refuses_beyond_exact_range(self):
        # psi_13 passes every base 2..41, so no answer at or above it is exact
        psi13 = 3317044064679887385961981
        assert is_prime(psi13 - 1) is False  # even, and just inside the range
        for n in (psi13, psi13 + 1, 2**100 + 277):
            with pytest.raises(ValueError, match="exact primality range"):
                is_prime(n)
        with pytest.raises(ValueError, match="exact primality range"):
            factor(psi13)


def slow_growth_rows(n_max, d):
    """growth_scan with one tau slice per n and omega from factor(n): the
    oracle for the divisor-pair sieve."""
    tau_arr = np.zeros(n_max + 1, dtype=np.int64)
    for i in range(1, n_max + 1):
        tau_arr[i::i] += 1
    omega_arr = np.array([0] + [omega(factor(n)) for n in range(1, n_max + 1)], dtype=np.int64)
    ns = np.arange(n_max + 1, dtype=np.float64)
    rows = []
    for eps in (0.5, 0.25):
        tau_ratio = tau_arr[1:] / ns[1:] ** eps
        pow_ratio = float(2 * d) ** omega_arr[1:] / ns[1:] ** eps
        hi = 16
        while hi <= n_max:
            lo = hi // 2
            ti = int(np.argmax(tau_ratio[lo:hi]))
            pi = int(np.argmax(pow_ratio[lo:hi]))
            rows.append(
                GrowthRow(lo, hi, eps, 2 * d, float(tau_ratio[lo + ti]), lo + 1 + ti,
                          float(pow_ratio[lo + pi]), lo + 1 + pi)
            )
            hi *= 2
    return rows


class TestGrowthScan:
    @pytest.mark.parametrize("n_max", [32, 35, 36, 1023, 1024, 4097])
    def test_divisor_pair_sieve_matches_slow_sieve(self, n_max):
        # square boundaries: 36 = 6^2, 1024 = 32^2, 4096 = 64^2 < 4097
        want = [0] + [tau(factor(n)) for n in range(1, n_max + 1)]
        assert _divisor_counts(n_max).tolist() == want
        for d in (1, 2, 3):
            assert growth_scan(n_max, d=d) == slow_growth_rows(n_max, d)

    @pytest.mark.parametrize("d", [0, -2])
    def test_rejects_power_below_one(self, d):
        with pytest.raises(ValueError, match="power must be >= 1"):
            growth_scan(64, d=d)

    def test_block_maxima_trend_at_half(self):
        rows = growth_scan(2**18, d=2)
        for stat in ("tau", "pow_omega"):
            threshold = trend_threshold(stat, 0.5, d=2)
            assert threshold is not None
            vals = [
                (r.block_lo, r.tau_max if stat == "tau" else r.pow_max)
                for r in rows
                if r.eps == 0.5 and r.block_lo >= threshold
            ]
            assert len(vals) >= 2
            assert all(vals[i + 1][1] <= vals[i][1] for i in range(len(vals) - 1)), (stat, vals)

    def test_quarter_eps_is_reported_but_not_asserted(self):
        # The turnover for eps = 0.25 sits beyond any desk-scale scan, so the
        # threshold is None and only the table is produced.
        assert trend_threshold("tau", 0.25, d=2) is None
        assert trend_threshold("pow_omega", 0.25, d=2) is None
        rows = [r for r in growth_scan(2**12) if r.eps == 0.25]
        assert rows and all(r.tau_max > 0 and r.pow_max > 0 for r in rows)

    def test_argmax_values_recompute(self):
        rows = [r for r in growth_scan(2**12, d=2) if r.eps == 0.5]
        for r in rows[:6]:
            n = r.tau_argmax
            assert r.block_lo < n <= r.block_hi
            assert abs(tau(factor(n)) / n**0.5 - r.tau_max) < 1e-12
