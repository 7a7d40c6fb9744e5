"""Arithmetic functions against enumeration oracles and multiplicative laws."""

import dataclasses
import hashlib
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cosetapprox import arith
from cosetapprox.arith import (
    SIEVE_LIMIT,
    SIEVE_PER_VALUE,
    Factorization,
    GrowthRow,
    _divisor_counts,
    _omega_counts,
    brute_r_d,
    brute_u_d,
    coprime_mask,
    euler_phi,
    factor,
    factor_all,
    growth_scan,
    is_prime,
    omega,
    primes_up_to,
    r_d,
    s_d,
    tau,
    trend_threshold,
    u_d,
)

from helpers import traced_peak_mb


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

    @pytest.mark.parametrize(
        "n, factors",
        [
            (10007**2, ((10007, 2),)),
            (10007**2 * 10009, ((10007, 2), (10009, 1))),
            ((10**6 + 3) ** 2, ((1000003, 2),)),
            (10007**3, ((10007, 3),)),
        ],
    )
    def test_prime_powers_above_the_trial_limit(self, monkeypatch, n, factors):
        # past trial division a perfect-square cofactor is split by isqrt,
        # never handed to rho (factor's cache is bypassed to see the calls)
        rho = arith._rho_split

        def no_squares(m):
            assert math.isqrt(m) ** 2 != m, m
            return rho(m)

        monkeypatch.setattr(arith, "_rho_split", no_squares)
        assert factor.__wrapped__(n).factors == factors

    def test_invalid_factorization_rejected(self):
        with pytest.raises(ValueError):
            Factorization(12, ((2, 1), (3, 1)))  # product is 6
        with pytest.raises(ValueError):
            Factorization(12, ((3, 1), (2, 2)))  # order
        with pytest.raises(ValueError):
            Factorization(8, ((8, 1),))  # not prime
        with pytest.raises(ValueError, match="^modulus must be >= 1, got 0$"):
            Factorization(0, ())
        with pytest.raises(ValueError, match="^exponent 0 < 1 for prime 3$"):
            Factorization(4, ((2, 2), (3, 0)))


# the fewest values for which a sieve up to SIEVE_LIMIT pays
SIEVE_MIN_VALUES = -(-SIEVE_LIMIT // SIEVE_PER_VALUE)


class TestFactorAll:
    """The local smallest-prime-factor sieve of factor_all against factor."""

    @staticmethod
    def spy(monkeypatch):
        calls = []
        real = arith.factor
        monkeypatch.setattr(arith, "factor", lambda n: calls.append(n) or real(n))
        return calls

    def test_sieve_path_matches_factor(self, monkeypatch):
        rng = random.Random(2024)
        lists = [list(range(1, 3001)), sorted(rng.sample(range(1, 200_000), 2000)), [1], []]
        expected = [[factor(n) for n in ns] for ns in lists]
        calls = self.spy(monkeypatch)
        assert [factor_all(ns) for ns in lists] == expected
        assert calls == []

    def test_sieve_path_proves_no_prime_again(self, monkeypatch):
        # the sieve has proved every prime it reads, so its Factorizations
        # are built without is_prime; they still equal, hash and pickle as
        # factor's do
        ns = list(range(1, 3001))
        expected = [factor(n) for n in ns]

        def refuse(n):
            raise AssertionError(f"is_prime({n}) on the sieve path")

        monkeypatch.setattr(arith, "is_prime", refuse)
        got = factor_all(ns)
        assert got == expected
        assert list(map(hash, got)) == list(map(hash, expected))
        assert pickle.loads(pickle.dumps(got)) == expected

    def test_leaves_the_factor_cache_alone(self):
        factor.cache_clear()
        factor_all(range(1, 5000))
        assert factor.cache_info().currsize == 0

    def test_sieve_entries_fit_uint16(self):
        # the sieve stores prime factors <= isqrt(SIEVE_LIMIT) in 16 bits
        assert math.isqrt(SIEVE_LIMIT) < 2**16

    def test_at_the_real_limit(self, monkeypatch):
        # just enough small values that a sieve up to SIEVE_LIMIT pays, plus
        # prime powers and the largest prime square below the limit
        top = [3137**2, 5**10, 2**23, 9999991, SIEVE_LIMIT]
        ns = list(range(1, SIEVE_MIN_VALUES - len(top) + 1)) + top
        expected = {n: factor(n) for n in ns[-len(top) - 3 :]}
        calls = self.spy(monkeypatch)
        got = dict(zip(ns, factor_all(ns)))
        assert calls == []
        assert {n: got[n] for n in expected} == expected
        assert got[SIEVE_LIMIT].factors == ((2, 7), (5, 7))

    @pytest.mark.parametrize(
        "ns",
        [
            [SIEVE_LIMIT + 1],  # above the memory limit
            list(range(1, SIEVE_MIN_VALUES - 1)) + [SIEVE_LIMIT],  # one value short
            [3, 5, 999_999_999_989],  # one lone large value
            [0, 5],
        ],
        ids=["above-limit", "too-few-values", "lone-large", "zero"],
    )
    def test_falls_back_to_factor(self, monkeypatch, ns):
        monkeypatch.setattr(arith, "factor", lambda n: ("factor", n))
        assert factor_all(ns) == [("factor", n) for n in ns]

    def test_fallback_propagates_errors(self):
        with pytest.raises(ValueError, match="cannot factor"):
            factor_all([0, 1, 2])


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
        assert s_d(factor(49), 2) == Fraction(21, 49) == Fraction(3, 7)
        for q in (2, 7, 12, 36):
            assert s_d(factor(q), 1) == Fraction(euler_phi(factor(q)), q)
        assert s_d(factor(1), 2) == 1

    def test_rejects_bad_power(self):
        with pytest.raises(ValueError):
            u_d(factor(10), 0)
        with pytest.raises(ValueError):
            r_d(factor(10), -1)


class TestOracles:
    def test_oracle_cutoff_enforced(self):
        with pytest.raises(ValueError):
            brute_u_d(10**6 + 1, 2)
        with pytest.raises(ValueError, match="^need n >= 1 and d >= 1, got n=0, d=1$"):
            brute_u_d(0, 1)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_formulas_match_brute_force(self, d):
        for n in range(1, 400):
            f = factor(n)
            assert u_d(f, d) == brute_u_d(n, d), (n, d)
            assert r_d(f, d) == brute_r_d(n, d), (n, d)


def mask_mismatches(mask, ns):
    """The first (n, m) at which mask(factor(n), m) differs from the gcd
    scan, for each n in ns, at m in {0, 1, n - 1, n, 3n + 2} and one m below
    n's least prime; one np.gcd over the largest m per n, sliced."""
    bad = []
    for n in ns:
        f = factor(n)
        oracle = np.gcd(np.arange(3 * n + 2), n) == 1
        least = f.factors[0][0] if f.factors else 1
        for m in sorted({0, 1, n - 1, n, 3 * n + 2, least - 1}):
            got = mask(f, m)
            if got.dtype != bool or not np.array_equal(got, oracle[:m]):
                bad.append((n, m))
                break
    return bad


class TestCoprimeMask:
    def test_matches_the_gcd_scan_for_every_n_to_5000(self):
        assert mask_mismatches(coprime_mask, range(1, 5001)) == []

    def test_one_is_coprime_to_everything(self):
        # gcd(0, 1) = 1: 0 is a unit mod 1, which the formula oracle reads
        assert coprime_mask(factor(1), 0).shape == (0,)
        assert coprime_mask(factor(1), 4).tolist() == [True] * 4

    @pytest.mark.parametrize("p, e", [(2, 20), (3, 12), (5, 8), (7, 7), (101, 3), (9973, 1)])
    def test_prime_powers(self, p, e):
        n = p**e
        for m in (p - 1, n, 2 * n + 1):
            assert np.array_equal(coprime_mask(factor(n), m), np.gcd(np.arange(m), n) == 1), (n, m)

    def test_eight_primes_at_ten_to_the_five(self):
        n = 9699690  # 2*3*5*7*11*13*17*19
        m = 10**5
        assert np.array_equal(coprime_mask(factor(n), m), np.gcd(np.arange(m), n) == 1)

    def test_mutants_are_caught(self):
        # striking only the first prime, and keeping entry 0 for n >= 2
        def first_prime_only(f, m):
            mask = np.ones(m, dtype=bool)
            for p, _ in f.factors[:1]:
                mask[::p] = False
            return mask

        def zero_kept(f, m):
            mask = coprime_mask(f, m)
            mask[:1] = True
            return mask

        assert mask_mismatches(first_prime_only, range(1, 40))[0] == (6, 5)  # residue 3 left true
        assert mask_mismatches(zero_kept, range(1, 40))[0] == (2, 1)


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


# psi_t: the least odd composite that is a strong pseudoprime to each of the
# first t prime bases (Jaeschke 1993; Sorenson-Webster 2017), with one prime
# factor of each as an independent proof that it is composite.
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI = {
    1: (2047, 23),
    2: (1373653, 829),
    3: (25326001, 2251),
    4: (3215031751, 151),
    5: (2152302898747, 6763),
    6: (3474749660383, 1303),
    7: (341550071728321, 10670053),
    8: (341550071728321, 10670053),
    9: (3825123056546413051, 149491),
    10: (3825123056546413051, 149491),
    11: (3825123056546413051, 149491),
    12: (318665857834031151167461, 399165290221),
    13: (3317044064679887385961981, 1287836182261),
}


def strong_probable_prime(n, a):
    """Whether odd n > 2 passes one Miller-Rabin round to base a, written
    out on its own so is_prime is not its own oracle."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d, d odd
    x = pow(a, (n - 1) >> s, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = pow(x, 2, n)
        if x == n - 1:
            return True
    return False


class TestWitnessTable:
    @pytest.mark.parametrize("t", sorted(PSI))
    def test_psi_t_fools_the_first_t_bases(self, t):
        psi, p = PSI[t]
        assert 1 < p < psi and psi % p == 0
        assert all(strong_probable_prime(psi, a) for a in PRIME_BASES[:t])
        if t < 13 and PSI.get(t + 1, (None,))[0] != psi:
            assert not strong_probable_prime(psi, PRIME_BASES[t])  # the next base exposes it

    @pytest.mark.parametrize("t", sorted(PSI))
    def test_is_prime_at_each_cut_point(self, t):
        psi, _ = PSI[t]
        if t == 13:
            with pytest.raises(ValueError, match="exact primality range"):
                is_prime(psi)
        else:
            assert is_prime(psi) is False

    def test_matches_the_sieve_below_1_5e6(self):
        # crosses the cut points 2047 and 1373653
        prime = bytearray(1_500_000)
        for p in primes_up_to(len(prime) - 1):
            prime[p] = 1
        assert [n for n in range(len(prime)) if is_prime(n) != prime[n]] == []


def slow_growth_rows(n_max, d):
    """growth_scan with one tau slice per n and omega from factor(n): the
    oracle for the divisor-pair sieve."""
    tau_arr = np.zeros(n_max + 1, dtype=np.int64)
    for i in range(1, n_max + 1):
        tau_arr[i::i] += 1
    omega_arr = np.array([0] + [omega(factor(n)) for n in range(1, n_max + 1)], dtype=np.int64)
    return whole_range_rows(tau_arr, omega_arr, d)


def whole_range_rows(tau_arr, omega_arr, d):
    """growth_scan's rows from int64 counts for n = 0..n_max, with every
    ratio array over the whole range at once: the oracle of its blocks."""
    n_max = len(tau_arr) - 1
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

    @staticmethod
    def omega_mismatches(counts, n_max):
        """The n <= n_max where counts[n] is not omega(factor(n))."""
        want = [0] + [omega(factor(n)) for n in range(1, n_max + 1)]
        assert len(counts) == n_max + 1
        return [n for n, (got, w) in enumerate(zip(counts.tolist(), want)) if got != w]

    # n_max // 64 = 127 is prime at 8128 and sits one below the prime 127
    # at 8127, and likewise for 131 at 8384 and 8383; 2^13 is the full range
    @pytest.mark.parametrize("n_max", [0, 1, 2, 63, 64, 127, 128, 8127, 8128, 8191, 8192, 8383, 8384])
    def test_omega_sieve_matches_factor(self, n_max):
        assert self.omega_mismatches(_omega_counts(n_max), n_max) == []

    # growth_scan(2**17) rows as (block_lo, block_hi, eps, base, tau_max,
    # tau_argmax, pow_max, pow_argmax) tuples, pinned before the omega sieve
    # took its slice-and-fancy-index form
    ROWS_2_17 = "df69f17c4d625277d9d11d6ed4e46e7f1f4ca9b8a655e07c9417db16d71b3486"

    @staticmethod
    def rows_digest(n_max):
        rows = [dataclasses.astuple(r) for r in growth_scan(n_max)]
        return hashlib.sha256(repr(rows).encode()).hexdigest()

    def test_rows_pinned_at_two_to_the_seventeen(self):
        assert self.rows_digest(2**17) == self.ROWS_2_17

    def test_omega_mutants_are_caught(self, monkeypatch):
        # skipping the largest prime p <= n_max breaks omega at n = p alone;
        # a prime is never a block maximum of (2d)^omega(n) / n^eps (every
        # block (N, 2N] holds a multiple of 6), so the factor oracle catches
        # it and the rows cannot; skipping 29, a prime factor of the last
        # pow_argmax 66990 = 2 3 5 7 11 29, changes the pinned rows
        real = _omega_counts

        def skipping(p):
            def mutant(n_max):
                counts = real(n_max)
                counts[p::p] -= 1
                return counts

            return mutant

        n_max = 2**13
        top = primes_up_to(n_max)[-1]
        assert self.omega_mismatches(skipping(top)(n_max), n_max) == [top]
        assert 66990 in {r.pow_argmax for r in growth_scan(2**17)}
        monkeypatch.setattr(arith, "_omega_counts", skipping(29))
        assert self.rows_digest(2**17) != self.ROWS_2_17
        monkeypatch.setattr(arith, "_omega_counts", skipping(primes_up_to(2**17)[-1]))
        assert self.rows_digest(2**17) == self.ROWS_2_17

    @pytest.mark.parametrize("k", [12, 13, 14, 15])
    def test_blocks_equal_whole_range_ratios(self, k):
        # the narrow counts are cast to float64 before ** and /; the rows
        # equal those of whole int64 arrays, float for float
        n_max = 2**k
        tau_arr, omega_arr = _divisor_counts(n_max), _omega_counts(n_max)
        assert (tau_arr.dtype, omega_arr.dtype) == (np.int32, np.int8)
        for d in (1, 2, 3):
            want = whole_range_rows(tau_arr.astype(np.int64), omega_arr.astype(np.int64), d)
            assert growth_scan(n_max, d=d) == want, d
            assert growth_scan(n_max + 1, d=d) == want, d

    def test_traced_peak_stays_under_seven_megabytes(self):
        # the whole-range int64 counts and float64 ratios traced 14.1 MB
        assert traced_peak_mb(lambda: growth_scan(2**18)) < 7

    @pytest.mark.parametrize("d", [0, -2])
    def test_rejects_power_below_one(self, d):
        with pytest.raises(ValueError, match="power must be >= 1"):
            growth_scan(64, d=d)

    def test_rejects_a_scan_below_32(self):
        with pytest.raises(ValueError, match="^scan range too small$"):
            growth_scan(31)

    def test_block_maxima_trend_at_half(self):
        rows = growth_scan(2**18, d=2)
        for stat in ("tau", "pow_omega"):
            threshold = trend_threshold(stat, 0.5)
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
        assert trend_threshold("tau", 0.25) is None
        assert trend_threshold("pow_omega", 0.25) is None
        with pytest.raises(ValueError, match="^unknown statistic 'x'$"):
            trend_threshold("x", 0.5)
        rows = [r for r in growth_scan(2**12) if r.eps == 0.25]
        assert rows and all(r.tau_max > 0 and r.pow_max > 0 for r in rows)

    @pytest.mark.parametrize(
        "eps, tau_bound, pow_bound",
        [
            (1.0, 1, 6),
            (0.75, 2, 30),
            (0.6, 6, 210),
            (0.5, 12, 30030),
            (0.45, 12, None),
            (0.4, 120, None),
            (0.35, 2520, None),
            (0.3, 5040, None),
            (0.25, None, None),
        ],
    )
    def test_trend_threshold_grid(self, eps, tau_bound, pow_bound):
        # tau: primes pay while p^eps < 2, and higher exponents while
        # (a+2)/(a+1) > p^eps; 4^omega: primes pay while p^eps < 4, at
        # exponent 1.  A bound past 5 * 10^6 reads None.
        assert trend_threshold("tau", eps) == tau_bound
        assert trend_threshold("pow_omega", eps) == pow_bound

    def test_argmax_values_recompute(self):
        rows = [r for r in growth_scan(2**12, d=2) if r.eps == 0.5]
        for r in rows[:6]:
            n = r.tau_argmax
            assert r.block_lo < n <= r.block_hi
            assert abs(tau(factor(n)) / n**0.5 - r.tau_max) < 1e-12
