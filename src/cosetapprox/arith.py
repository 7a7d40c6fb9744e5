"""Multiplicative arithmetic functions with brute-force enumeration oracles.

The closed-form counters (euler_phi, tau, omega, u_d, r_d) operate on an
explicit prime factorization so the multiplicative structure is visible.
The brute_* functions recount the same quantities by exhaustive enumeration
over a residue system; they are deliberately independent of the closed forms
and exist as oracles for the test suite and the `verify` command.

All densities are exact `fractions.Fraction` values, never floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress

import numpy as np

__all__ = [
    "ORACLE_CUTOFF",
    "SIEVE_LIMIT",
    "SIEVE_PER_VALUE",
    "Factorization",
    "GrowthRow",
    "as_fraction",
    "brute_r_d",
    "brute_u_d",
    "coprime_mask",
    "euler_phi",
    "factor",
    "factor_all",
    "growth_scan",
    "is_prime",
    "omega",
    "primes_up_to",
    "r_d",
    "s_d",
    "tau",
    "totients",
    "trend_threshold",
    "u_d",
]

# Brute-force enumerations refuse moduli above this; keeps accidental O(n)
# scans out of large sweeps.
ORACLE_CUTOFF = 10**6

# Miller-Rabin witness table (see is_prime): rows (psi_t, t), where the first
# t prime bases are exact below psi_t.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_TABLE = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (3317044064679887385961981, 13),
)
_MR_EXACT_BELOW = _MR_TABLE[-1][0]  # psi_13: 2..41 is the widest set kept

# factor_all sieves only up to SIEVE_LIMIT (a uint16 smallest prime factor
# per entry, so 20 MB), and only when the sieve has at most SIEVE_PER_VALUE
# entries per number factored.  On a 2-core x86 box under Python 3.11 an
# entry costs about 25 ns and a factor call 10-80 us, so 256 entries cost
# less than one call.
SIEVE_LIMIT = 10**7
SIEVE_PER_VALUE = 256

_TRIAL_LIMIT = 10_000


def as_fraction(x) -> Fraction:
    """x as an exact rational: a Fraction or an int (not a bool), else
    TypeError.  Floats, strings and bools are rejected, not coerced."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact below psi_13 ~ 3.3e24;
    ValueError at or above it, where the answer would be a guess.

    psi_t is the least odd composite that is a strong pseudoprime to each of
    the first t prime bases, so n < psi_t is decided exactly by those t
    bases, and n > 41 is tested with the smallest such t (n <= 41 is
    looked up among the bases themselves):

        t   psi_t                          bases
        1   2047                           2
        2   1373653                        2, 3
        3   25326001                       2..5
        4   3215031751                     2..7
        5   2152302898747                  2..11
        6   3474749660383                  2..13
        7   341550071728321                2..17
        9   3825123056546413051            2..23
        12  318665857834031151167461       2..37
        13  3317044064679887385961981      2..41

    psi_1..psi_8 are from Jaeschke (Math. Comp. 61, 1993), psi_9..psi_13
    from Sorenson and Webster (Math. Comp. 86, 2017).  psi_7 = psi_8 and
    psi_9 = psi_10 = psi_11, so 8, 10 and 11 bases never pay.
    """
    if n <= _MR_BASES[-1]:
        return n in _MR_BASES
    for bound, t in _MR_TABLE:
        if n < bound:
            break
    else:
        raise ValueError(f"{n} is beyond the exact primality range (< {_MR_EXACT_BELOW})")
    bases = _MR_BASES[:t]
    for p in bases:
        if n % p == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by a byte sieve."""
    if n < 2:
        return []
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start : n + 1 : p] = b"\x00" * ((n - start) // p + 1)
    return list(compress(range(n + 1), sieve))


def _rho_split(n: int) -> int:
    """Nontrivial factor of an odd composite n via Pollard's rho.

    The polynomial constants are walked in a fixed order so that repeated
    runs factor identically.
    """
    for c in range(1, 64):
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = math.gcd(abs(x - y), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho cycle failed to split {n}")


@dataclass(frozen=True)
class Factorization:
    """Prime-power decomposition n = prod(p**e) with primes strictly increasing."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"modulus must be >= 1, got {self.n}")
        prod, last = 1, 1
        for p, e in self.factors:
            if e < 1:
                raise ValueError(f"exponent {e} < 1 for prime {p}")
            if p <= last:
                raise ValueError("primes must be strictly increasing")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            last = p
            prod *= p**e
        if prod != self.n:
            raise ValueError(f"factors multiply to {prod}, not {self.n}")

    def __iter__(self):
        return iter(self.factors)


@lru_cache(maxsize=1 << 16)
def factor(n: int) -> Factorization:
    """Factor n >= 1: trial division to 10^4, then rho on the cofactor.

    Targets n up to about 10^12, and is exact wherever is_prime is (every
    prime factor below psi_13 ~ 3.3e24, else ValueError); rejects n = 0 and
    negatives.  To factor many numbers at once use factor_all.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    m = n
    for p in (2, 3, 5):
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    p = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while p <= _TRIAL_LIMIT and p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += wheel[i]
        i = (i + 1) % 8
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        if (r := math.isqrt(m)) ** 2 == m:
            stack += [r, r]
            continue
        g = _rho_split(m)
        stack += [g, m // g]
    return Factorization(n, tuple(sorted(out.items())))


def factor_all(ns) -> list[Factorization]:
    """factor(n) for every n in ns, in order, from one local sieve if it pays.

    When max(ns) <= SIEVE_LIMIT and max(ns) <= SIEVE_PER_VALUE * len(ns), one
    smallest-prime-factor sieve up to max(ns) is built, each n is peeled by
    reading only the entries it needs, and the sieve is dropped on return:
    factor's cache is neither read nor filled.  Otherwise this is factor per
    n.  Every prime the sieve reads is proved prime by the sieve itself, so
    its Factorizations skip the validation of the constructor, which would
    run is_prime on each prime again; factor's validate themselves.
    """
    ns = list(ns)
    spf = _spf_sieve(ns)
    if spf is None:
        return [factor(n) for n in ns]
    out = []
    for n in ns:
        fs = []
        m = n
        while m > 1:
            p = spf[m] or m
            m //= p
            e = 1
            while m % p == 0:
                m //= p
                e += 1
            fs.append((p, e))
        out.append(_sieved(n, tuple(fs)))
    return out


def totients(ns) -> list[int]:
    """euler_phi(factor(n)) for every n in ns, in order, by factor_all's
    rule: peeled off one local smallest-prime-factor sieve when it pays,
    else from factor per n.  No Factorization is built on the sieve path."""
    ns = list(ns)
    spf = _spf_sieve(ns)
    if spf is None:
        return [euler_phi(factor(n)) for n in ns]
    out = []
    for n in ns:
        phi = m = n
        while m > 1:
            p = spf[m] or m
            phi -= phi // p
            m //= p
            while m % p == 0:
                m //= p
        out.append(phi)
    return out


def _spf_sieve(ns: list[int]) -> memoryview | None:
    """The smallest-prime-factor sieve up to max(ns) that factor_all and
    totients peel, or None when it does not pay (see factor_all) or some n
    is below 1.  Entry m is the least prime factor of a composite m and 0
    for a prime (or m < 2); every such factor is <= sqrt(SIEVE_LIMIT) <
    2^16.  The uint16 array is read through a memoryview, which indexes to
    Python ints without a numpy scalar per read."""
    top = max(ns, default=0)
    if top > min(SIEVE_LIMIT, SIEVE_PER_VALUE * len(ns)) or min(ns, default=1) < 1:
        return None
    spf = np.zeros(top + 1, dtype=np.uint16)
    for p in primes_up_to(math.isqrt(top)):
        multiples = spf[p * p :: p]
        multiples[multiples == 0] = p
    return memoryview(spf)


def _sieved(n: int, factors: tuple[tuple[int, int], ...]) -> Factorization:
    """Factorization(n, factors) without __post_init__'s checks, for factors
    read off a smallest-prime-factor sieve: those primes are proved prime,
    come out in increasing order and multiply to n by construction."""
    f = object.__new__(Factorization)
    object.__setattr__(f, "n", n)
    object.__setattr__(f, "factors", factors)
    return f


def euler_phi(f: Factorization) -> int:
    """Euler's totient from the factorization: prod p^(e-1) (p-1)."""
    out = 1
    for p, e in f:
        out *= p ** (e - 1) * (p - 1)
    return out


def tau(f: Factorization) -> int:
    """Number of divisors: prod (e_i + 1)."""
    out = 1
    for _, e in f:
        out *= e + 1
    return out


def omega(f: Factorization) -> int:
    """Number of distinct prime factors (0 for n = 1)."""
    return len(f.factors)


def coprime_mask(f: Factorization, m: int) -> np.ndarray:
    """Bool array over 0..m-1, true where gcd(r, f.n) = 1: each prime of f strikes its multiples."""
    mask = np.ones(m, dtype=bool)
    for p, _ in f:
        mask[::p] = False
    return mask


def _u_d_prime_power(p: int, e: int, d: int) -> int:
    phi_pe = p ** (e - 1) * (p - 1)
    if d % 2 == 0 and p == 2 and e >= 3:
        return math.gcd(2 * d, phi_pe)
    return math.gcd(d, phi_pe)


def u_d(f: Factorization, d: int) -> int:
    """Number of solutions of x^d = 1 in Z/nZ.

    Computed per prime power: gcd(2d, phi) when d is even, p = 2 and e >= 3
    (the unit group splits as C2 x C2^(e-2)), else gcd(d, phi); multiplied
    across coprime factors. u_d(1) = 1.
    """
    if d < 1:
        raise ValueError(f"power must be >= 1, got {d}")
    out = 1
    for p, e in f:
        out *= _u_d_prime_power(p, e, d)
    return out


def r_d(f: Factorization, d: int) -> int:
    """Number of distinct d-th powers in a reduced residue system mod n.

    Per prime power this is phi(p^e) / u_d(p^e); multiplicative across
    factors. r_d(1) = 1.
    """
    if d < 1:
        raise ValueError(f"power must be >= 1, got {d}")
    out = 1
    for p, e in f:
        out *= p ** (e - 1) * (p - 1) // _u_d_prime_power(p, e, d)
    return out


def s_d(f: Factorization, d: int) -> Fraction:
    """Density r_d(q) / q of d-th power residues, q = f.n, as an exact rational."""
    return Fraction(r_d(f, d), f.n)


def brute_u_d(n: int, d: int) -> int:
    """Oracle: count x in Z/nZ with x^d = 1 by exhaustive enumeration."""
    _check_oracle_args(n, d)
    one = 1 % n
    return sum(1 for x in range(n) if pow(x, d, n) == one)


def brute_r_d(n: int, d: int) -> int:
    """Oracle: count distinct d-th powers of units mod n by enumeration."""
    _check_oracle_args(n, d)
    return len({pow(x, d, n) for x in range(n) if math.gcd(x, n) == 1})


def _check_oracle_args(n: int, d: int) -> None:
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if n > ORACLE_CUTOFF:
        raise ValueError(f"modulus {n} exceeds enumeration cutoff {ORACLE_CUTOFF}")


# ---------------------------------------------------------------------------
# Empirical growth of tau(n) and (2d)^omega(n) against n^eps.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthRow:
    """Per-block maxima of tau(n)/n^eps and base^omega(n)/n^eps over (lo, hi]."""

    block_lo: int
    block_hi: int
    eps: float
    base: int
    tau_max: float
    tau_argmax: int
    pow_max: float
    pow_argmax: int


def trend_threshold(stat: str, eps: float) -> int | None:
    """Block bound past which the growth-scan maxima should stop increasing.

    Marginal analysis: a new prime p multiplies 4^omega by 4 (or tau by 2)
    while n^eps grows by p^eps, so new primes pay only while p^eps < 4 (or 2).
    Base 4 = 2d is growth_scan's default d = 2, the scan check_growth_trend
    reads.  Raising an existing exponent a to a+1 multiplies tau by
    (a+2)/(a+1), so it pays while that beats p^eps.  The product of all
    paying prime powers bounds the turnover region.  Returns None when the
    bound exceeds any desk-scale scan (notably eps = 0.25), in which case
    the table is reported but no monotone trend is asserted.
    """
    gain = {"tau": 2, "pow_omega": 4}.get(stat)  # what a new prime multiplies stat by
    if gain is None:
        raise ValueError(f"unknown statistic {stat!r}")
    cap = 5 * 10**6
    threshold = 1
    for p in primes_up_to(10**4):
        ratio = p**eps
        if ratio >= gain:
            break
        a = 1
        while stat == "tau" and a < 64 and (a + 2) / (a + 1) > ratio:
            a += 1
        threshold *= p**a
        if threshold > cap:
            return None
    return threshold


def _divisor_counts(n_max: int):
    """tau(n) for n = 0..n_max as an int32 array (0 at n = 0), by the
    divisor-pair sieve described in growth_scan."""
    tau_arr = np.zeros(n_max + 1, dtype=np.int32)
    for i in range(1, math.isqrt(n_max) + 1):
        tau_arr[i * i :: i] += 2
        tau_arr[i * i] -= 1
    return tau_arr


def _omega_counts(n_max: int):
    """omega(n) for n = 0..n_max as an int8 array (0 at n = 0 and 1), by the
    prime sieve described in growth_scan."""
    omega_arr = np.zeros(n_max + 1, dtype=np.int8)
    primes = np.array(primes_up_to(n_max), dtype=np.int64)
    cut = n_max // 64
    for p in primes[primes <= cut].tolist():
        omega_arr[p::p] += 1
    large = primes[primes > cut]
    m = 1
    while large.size:  # m < 64: every large prime exceeds n_max / 64
        omega_arr[large * m] += 1  # distinct primes, so distinct indices
        m += 1
        large = large[large * m <= n_max]
    return omega_arr


def growth_scan(n_max: int, d: int = 2) -> list[GrowthRow]:
    """Tabulate block maxima of tau(n)/n^eps and (2d)^omega(n)/n^eps for
    eps = 1/2 and 1/4.

    Blocks are the doubling ranges (N, 2N] from (8, 16] up.  The caller
    decides, via trend_threshold, for which eps the block maxima can
    honestly be asserted non-increasing at desk scale.

    tau comes from a divisor-pair sieve: the divisors of m pair up as
    (i, m/i) with i <= sqrt(m), so each i <= sqrt(n_max) adds 2 to the
    multiples m = i*i, i*(i+1), ... and takes 1 back at the square i*i,
    where the pair collapses to one divisor.  That is isqrt(n_max) slices
    instead of one per n.

    omega comes from a prime sieve: each prime p <= n_max / 64 adds 1 to its
    multiples by one slice, and the larger primes, which have fewer than 64
    multiples each, take one fancy-indexed pass per multiplier m, adding 1
    at every m p <= n_max (the p are distinct, so the indices are too).

    The ratios are computed one block at a time from the int32 tau and int8
    omega counts, each cast to float64 first (NumPy 1.x would take
    2.0 ** int8 in float16); every ratio is elementwise, so the floats are
    those of whole-range arrays, bit for bit.
    """
    if n_max < 32:
        raise ValueError("scan range too small")
    if d < 1:
        raise ValueError(f"power must be >= 1, got {d}")
    tau_arr = _divisor_counts(n_max)
    omega_arr = _omega_counts(n_max)
    base = 2 * d
    rows = []
    for eps in (0.5, 0.25):
        for k in range(4, n_max.bit_length()):  # blocks (lo, hi] up to hi <= n_max
            lo, hi = 1 << (k - 1), 1 << k
            scale = np.arange(lo + 1, hi + 1, dtype=np.float64) ** eps
            tau_ratio = tau_arr[lo + 1 : hi + 1].astype(np.float64) / scale
            pow_ratio = float(base) ** omega_arr[lo + 1 : hi + 1].astype(np.float64) / scale
            ti, pi = int(np.argmax(tau_ratio)), int(np.argmax(pow_ratio))
            maxima = (float(tau_ratio[ti]), lo + 1 + ti, float(pow_ratio[pi]), lo + 1 + pi)
            rows.append(GrowthRow(lo, hi, eps, base, *maxima))
    return rows
