"""Desk-scale approximation experiments: divergence/equidistribution condition
checks, exact hit-finding for sampled reals, and a deterministic Monte Carlo
estimate of the measure of the approximable set.

A hit at index k is an integer p with |x - p/q_k^d| < alpha_k / q_k^d,
gcd(p, q_k) = 1 and p mod q_k inside the configured coset.  Floats only
prune: a vectorized screen drops the indices that cannot hold a hit, with the
error margin proved in Experiment.find_hits; integers decide, since every
surviving inequality is settled by exact integer cross-multiplication.
Sampling is a per-index SHA-256 stream, so results are reproducible and
independent of the degree of parallelism.
"""

from __future__ import annotations

import hashlib
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from decimal import Decimal
from fractions import Fraction
from functools import cached_property, partial
from itertools import repeat

import numpy as np

from .arith import as_fraction, euler_phi, factor_all, primes_up_to, r_d
from .residue_group import SUBGROUP_MODES, closure, is_dth_power

__all__ = [
    "AbelReport",
    "AlphaSequence",
    "ConditionsReport",
    "Experiment",
    "ExperimentConfig",
    "HitRecord",
    "MonteCarloResult",
    "QSequence",
    "abel_condition_check",
    "check_conditions",
    "prepare",
]

def exact_str(x: Fraction) -> str:
    """str(x) for rationals of any size.  Decimal renders an int exactly and
    is not bound by the interpreter's int-to-str digit limit, so long partial
    sums stay exact without touching that process-wide setting."""
    num = str(Decimal(x.numerator))
    return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


Q_KINDS = ("explicit", "integers", "primes", "primes-coprime-to-a")
ALPHA_KINDS = ("explicit", "c/k", "c/(k log k)", "c*2^-k")

_LOG_SCALE = 1 << 16  # dyadic resolution of the rounded log in c/(k log k)
_LOW_WORD = (1 << 64) - 1
_SCREEN_Q_LIMIT = 1 << 53  # the hit screen's error bound needs Q_k exact in a double


@dataclass(frozen=True)
class QSequence:
    """Rule producing the strictly increasing moduli q_1 < q_2 < ..."""

    kind: str
    values: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in Q_KINDS:
            raise ValueError(f"q_sequence kind must be one of {Q_KINDS}, got {self.kind!r}")
        if (self.kind == "explicit") != (self.values is not None):
            raise ValueError("q_sequence values are required exactly for kind 'explicit'")


@dataclass(frozen=True)
class AlphaSequence:
    """Rule producing the exact rational radii alpha_k in (0, 1/2).

    The 'c/(k log k)' rule uses a dyadically rounded natural log (clamped at
    1 so it is defined from k = 1) to keep every alpha_k exactly rational.
    """

    kind: str
    c: Fraction | None = None
    values: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ALPHA_KINDS:
            raise ValueError(f"alpha_sequence kind must be one of {ALPHA_KINDS}, got {self.kind!r}")
        if (self.kind == "explicit") != (self.values is not None):
            raise ValueError("alpha_sequence values are required exactly for kind 'explicit'")
        if self.kind == "explicit":
            if self.c is not None:
                raise ValueError("alpha_sequence kind 'explicit' takes no constant c")
        elif self.c is None or self.c <= 0:
            raise ValueError(f"alpha_sequence rule {self.kind!r} needs a positive constant c")


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment run."""

    q_sequence: QSequence
    alpha_sequence: AlphaSequence
    d: int = 1
    a: int = 1
    subgroup_mode: str = "full"
    generators: tuple[int, ...] = ()
    K: int = 10_000
    samples: int = 500
    precision_bits: int = 128
    seed: int = 0
    min_hits: int = 5

    def __post_init__(self) -> None:
        if self.d < 1 or self.a < 1 or self.K < 1 or self.samples < 1:
            raise ValueError("d, a, K and samples must all be positive")
        if self.precision_bits < 8:
            raise ValueError("precision_bits must be at least 8")
        if self.min_hits < 1:
            raise ValueError("min_hits must be at least 1")
        if self.subgroup_mode not in SUBGROUP_MODES:
            raise ValueError(f"subgroup_mode must be one of {SUBGROUP_MODES}")
        if (self.subgroup_mode == "generators") != bool(self.generators):
            raise ValueError("generators are required exactly for subgroup_mode 'generators'")

    def to_dict(self) -> dict:
        q: dict = {"kind": self.q_sequence.kind}
        if self.q_sequence.values is not None:
            q["values"] = list(self.q_sequence.values)
        al: dict = {"kind": self.alpha_sequence.kind}
        if self.alpha_sequence.c is not None:
            al["c"] = str(self.alpha_sequence.c)
        if self.alpha_sequence.values is not None:
            al["values"] = [str(v) for v in self.alpha_sequence.values]
        return {
            "schema_version": 1,
            "q_sequence": q,
            "alpha_sequence": al,
            "d": self.d,
            "a": self.a,
            "subgroup_mode": self.subgroup_mode,
            "generators": list(self.generators),
            "K": self.K,
            "samples": self.samples,
            "precision_bits": self.precision_bits,
            "seed": self.seed,
            "min_hits": self.min_hits,
        }

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        """Parse a JSON config strictly: unknown keys, lists given as
        anything else, integer fields given as bools or non-integers, and
        rationals given as anything but an integer or a string are rejected
        rather than coerced."""

        def known(where, obj, keys):
            if not isinstance(obj, dict):
                raise ValueError(f"{where} must be an object")
            unknown = sorted(set(obj) - keys)
            if unknown:
                raise ValueError(f"unknown {where} field(s): {', '.join(map(str, unknown))}")

        def integer(name, v):
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"config field '{name}' must be an integer, got {v!r}")
            return v

        def rational(name, v):
            try:
                if isinstance(v, (int, str)) and not isinstance(v, bool):
                    return Fraction(v)
            except (ValueError, ZeroDivisionError):
                pass
            raise ValueError(
                f"config field '{name}' must be an integer or an exact rational string, got {v!r}"
            )

        def each(name, vs, parse):
            if not isinstance(vs, list):
                raise ValueError(f"config field '{name}' must be a list, got {vs!r}")
            return tuple(parse(name, v) for v in vs)

        def need(name):
            if name not in data:
                raise ValueError(f"config field '{name}' is missing")
            return data[name]

        def optional(name, parse):
            """{name: parsed value} when given, else {} for the field default."""
            return {name: parse(name, data[name])} if name in data else {}

        known("config", data, _CONFIG_KEYS)
        version = integer("schema_version", data.get("schema_version", 1))
        if version != 1:
            raise ValueError(f"unsupported schema_version {version}")
        qd = need("q_sequence")
        if not isinstance(qd, dict) or "kind" not in qd:
            raise ValueError("config field 'q_sequence' must be an object with a 'kind'")
        known("q_sequence", qd, {"kind", "values"})
        qseq = QSequence(
            kind=qd["kind"],
            values=each("q_sequence.values", qd["values"], integer) if "values" in qd else None,
        )
        ad = need("alpha_sequence")
        if not isinstance(ad, dict) or "kind" not in ad:
            raise ValueError("config field 'alpha_sequence' must be an object with a 'kind'")
        known("alpha_sequence", ad, {"kind", "c", "values"})
        aseq = AlphaSequence(
            kind=ad["kind"],
            c=rational("alpha_sequence.c", ad["c"]) if "c" in ad else None,
            values=each("alpha_sequence.values", ad["values"], rational)
            if "values" in ad
            else None,
        )
        return ExperimentConfig(
            q_sequence=qseq,
            alpha_sequence=aseq,
            d=integer("d", need("d")),
            a=integer("a", need("a")),
            subgroup_mode=need("subgroup_mode"),
            **optional("generators", lambda name, vs: each(name, vs, integer)),
            K=integer("K", need("K")),
            samples=integer("samples", need("samples")),
            **optional("precision_bits", integer),
            seed=integer("seed", need("seed")),
            **optional("min_hits", integer),
        )


# the keys to_dict writes: one per field, plus the schema version
_CONFIG_KEYS = frozenset(f.name for f in fields(ExperimentConfig)) | {"schema_version"}


@dataclass(frozen=True)
class HitRecord:
    """One solved inequality: |x - p/q^d| < alpha_k/q^d with p in the coset."""

    k: int
    q: int
    p: int
    error: Fraction


def _first_primes(count: int, avoid: int = 1) -> list[int]:
    bound = 100
    if count > 10:
        bound = int(count * (math.log(count) + math.log(math.log(count))) * 1.3) + 100
    while True:
        ps = [p for p in primes_up_to(bound) if avoid % p != 0]
        if len(ps) >= count:
            return ps[:count]
        bound *= 2


def _materialize_q(cfg: ExperimentConfig) -> tuple[int, ...]:
    kind = cfg.q_sequence.kind
    if kind == "explicit":
        vals = cfg.q_sequence.values
        if len(vals) < cfg.K:
            raise ValueError(f"explicit q list has {len(vals)} entries, K={cfg.K}")
        vals = vals[: cfg.K]
    elif kind == "integers":
        vals = tuple(range(1, cfg.K + 1))
    elif kind == "primes":
        vals = tuple(_first_primes(cfg.K))
    else:  # primes-coprime-to-a
        vals = tuple(_first_primes(cfg.K, avoid=cfg.a))
    if any(q <= prev for prev, q in zip((0,) + vals, vals)):
        raise ValueError("q sequence must be strictly increasing and positive")
    return vals


def _materialize_alpha(cfg: ExperimentConfig) -> tuple[Fraction, ...]:
    seq = cfg.alpha_sequence
    if seq.kind == "explicit":
        if len(seq.values) < cfg.K:
            raise ValueError(f"explicit alpha list has {len(seq.values)} entries, K={cfg.K}")
        vals = seq.values[: cfg.K]
    elif seq.kind == "c/k":
        vals = tuple(seq.c / k for k in range(1, cfg.K + 1))
    elif seq.kind == "c*2^-k":
        vals = tuple(seq.c / (1 << k) for k in range(1, cfg.K + 1))
    else:  # c/(k log k)
        vals = tuple(
            seq.c / (k * Fraction(max(_LOG_SCALE, round(math.log(k) * _LOG_SCALE)), _LOG_SCALE))
            for k in range(1, cfg.K + 1)
        )
    vals = tuple(map(as_fraction, vals))  # a float radius raises TypeError
    half = Fraction(1, 2)
    for k, a in enumerate(vals, start=1):
        if not (0 < a < half):
            raise ValueError(f"alpha_{k} = {a} outside (0, 1/2)")
    return vals


@dataclass(eq=False)
class Experiment:
    """A config with its sequences materialized and per-index machinery built."""

    config: ExperimentConfig
    qs: tuple[int, ...]
    alphas: tuple[Fraction, ...]
    moduli: tuple[int, ...] = field(repr=False)  # q_k ** d
    orders: tuple[int, ...] = field(repr=False)  # |G_k|
    phis: tuple[int, ...] = field(repr=False)  # phi(q_k)
    _members: list = field(repr=False)  # per-index coset membership tests
    # Hit screen arrays, one entry per index (see find_hits).
    _q_word: np.ndarray = field(repr=False)  # Q_k mod 2^64 as uint64
    _q_low: np.ndarray = field(repr=False)  # _q_word * 2^-128 as float64
    _tau: np.ndarray = field(repr=False)  # float(alpha_k) (1 + 2^-50) + 2^-48
    _unscreened: np.ndarray = field(repr=False)  # Q_k >= 2^53: float distance void

    def find_hits(self, x) -> list[HitRecord]:
        """All hit records for the exact rational x in (0, 1), k = 1..K.

        Floats only prune, with the margin proved below; integers decide.  A
        numpy screen keeps the indices k whose float distance from x Q_k
        (Q = q^d) to the nearest integer is below tau_k, plus every index
        with Q_k >= 2^53.  Each survivor goes through the exact test, the
        only place a hit is decided: only the integers floor(x Q) - 1, 0, +1
        are tried, because with alpha < 1/2 the target interval has length
        < 1, so it contains at most one integer and that integer is within 1
        of floor(x Q).

        Margin.  Write ||y|| for the distance from y to the nearest integer
        and u = 2^-53 for the unit roundoff.  Let X = floor(x 2^128) =
        xh 2^64 + xl with 0 <= xh, xl < 2^64, and A = xh Q mod 2^64, which
        uint64 wraparound computes exactly.  Modulo 1,
            x Q = A 2^-64 + xl Q 2^-128 + (x - X 2^-128) Q,
        and for Q < 2^53 the screen computes t = fl(fl(A) 2^-64 + fl(xl) Q
        2^-128) with these errors:
          1. fl(A): A < 2^64 is rounded to 53 bits, an error of at most 2^10,
             so at most 2^-54 after the exact scaling by 2^-64;
          2. the xl Q term: Q and the scaling by 2^-128 are exact; fl(xl) and
             the product each add a relative error of at most u, and the
             term is at most (2^64 - 1)(2^53 - 1) 2^-128 < 2^-11 (1 - u), so
             its error is below 2^-11 (1 - u)(2u + u^2) < 2^-63;
          3. the final add: the sum is below 2, so it rounds by at most 2^-53;
          4. the truncation of x: 0 <= x - X 2^-128 < 2^-128 (x need not be
             dyadic, nor have 128 bits), which moves x Q by less than
             Q 2^-128 < 2^-75.
        The screen's distance is d = min(f, 1 - f) with f = t - floor(t).
        Both subtractions are exact (Sterbenz: t < 2, and 1 - f is used only
        when f >= 1/2), so d = ||t||.  As ||.|| is 1-Lipschitz,
            |d - ||x Q||| <= 2^-54 + 2^-63 + 2^-53 + 2^-75 < 2^-52.
        The threshold is tau = fl(fl(a (1 + 2^-50)) + 2^-48) with a =
        float(alpha), the correctly rounded quotient of two integers.  With
        eta = 2^-1075 for underflow (the c*2^-k radii round to a subnormal
        or to 0 once k passes about 1074), a >= alpha (1 - u) - eta.
        Rounding is monotone and 1 + 2^-50 > 1, so fl(a (1 + 2^-50)) >= a.
        The last sum is at least 2^-48, a normal number, so
            tau >= (alpha (1 - u) - eta + 2^-48)(1 - u)
                >= alpha - 2 u alpha + 2^-48 - 2^-101 - eta
                >  alpha + 2^-49,
        using alpha < 1/2.  A hit at k gives an integer p with
        |x Q - p| < alpha, hence ||x Q|| < alpha, hence d < alpha + 2^-52 <
        tau: every index holding a hit survives the screen.
        """
        x = as_fraction(x)
        if not (0 < x < 1):
            raise ValueError(f"sample point must lie in (0, 1), got {x}")
        xn, xd = x.numerator, x.denominator
        hits = []
        for i in self._screen(xn, xd).tolist():
            q, Q, alpha, member = self.qs[i], self.moduli[i], self.alphas[i], self._members[i]
            an, ad = alpha.numerator, alpha.denominator
            m, delta = divmod(xn * Q, xd)
            rhs = an * xd
            for p, dist in ((m, delta), (m + 1, xd - delta), (m - 1, xd + delta)):
                if dist * ad < rhs and math.gcd(p, q) == 1 and member(p % q):
                    hits.append(HitRecord(k=i + 1, q=q, p=p, error=Fraction(dist, xd * Q)))
                    break
        return hits

    def _screen(self, xn: int, xd: int) -> np.ndarray:
        """Ascending indices that may hold a hit for x = xn/xd (the float
        screen of find_hits, whose docstring proves its margin)."""
        X = (xn << 128) // xd
        t = (self._q_word * np.uint64(X >> 64)) * 2.0**-64 + float(X & _LOW_WORD) * self._q_low
        t -= np.floor(t)
        dist = np.minimum(t, 1.0 - t)
        return np.flatnonzero((dist < self._tau) | self._unscreened)

    def monte_carlo(self, threads: int = 1) -> "MonteCarloResult":
        """Sample dyadic rationals and tabulate hit-count fractions F(m, K').
        Pool workers get this Experiment, pickled, and a range of samples."""
        if isinstance(threads, bool) or not isinstance(threads, int) or threads < 1:
            raise ValueError(f"threads must be an int >= 1, got {threads!r}")
        cfg = self.config
        n = cfg.samples
        workers = min(threads, n, os.cpu_count() or 1)
        if workers <= 1:
            per_sample = self._sample_hits(0, n)
        else:
            step = -(-n // workers)
            starts = range(0, n, step)
            ends = [min(n, lo + step) for lo in starts]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(self._sample_hits, starts, ends))
            per_sample = [hits for part in parts for hits in part]
        ladder = _k_ladder(cfg.K)
        ms = tuple(range(1, cfg.min_hits + 1))
        counts = {m: {kp: 0 for kp in ladder} for m in ms}
        for hits in per_sample:
            ks = [h.k for h in hits]
            for kp in ladder:
                c = sum(1 for k in ks if k <= kp)
                for m in ms:
                    if c >= m:
                        counts[m][kp] += 1
        return MonteCarloResult(
            config=cfg,
            k_ladder=ladder,
            m_values=ms,
            samples=n,
            counts=counts,
            total_hits=sum(len(h) for h in per_sample),
            per_sample_hits=per_sample,
        )

    def _sample_hits(self, lo: int, hi: int) -> list[list[HitRecord]]:
        """find_hits for the sample points with indices lo <= i < hi."""
        cfg = self.config
        return [
            self.find_hits(_sample_point(cfg.seed, i, cfg.precision_bits)) for i in range(lo, hi)
        ]


def _k_ladder(K: int) -> tuple[int, ...]:
    rungs = {K}
    p = 100
    while p < K:
        rungs.add(p)
        p *= 10
    return tuple(sorted(rungs))


def _sample_point(seed: int, i: int, bits: int) -> Fraction:
    """Uniform dyadic rational with the given precision, from an indexed
    SHA-256 stream (split by sample index, so any parallel schedule agrees)."""
    out, need, j = 0, bits, 0
    while need > 0:
        digest = hashlib.sha256(f"{seed}:{i}:{j}".encode()).digest()
        take = min(need, 256)
        out = (out << take) | (int.from_bytes(digest, "big") >> (256 - take))
        need -= take
        j += 1
    return Fraction(out if out else 1, 1 << bits)


def _any_unit(p: int) -> bool:
    """Full-group membership: coprimality is checked by the hit predicate."""
    return True


def _in_dth_power_coset(f, ai: int, d: int, p: int) -> bool:
    """Whether p lies in the coset a (Z/nZ)^{*d}, n = f.n, given ai = a^-1 mod n."""
    return is_dth_power(f, ai * p % f.n, d)


def prepare(cfg: ExperimentConfig) -> Experiment:
    """Materialize the sequences, validate the coset data, build membership
    tests (exponent fast path for d-th powers, explicit sets for generator
    mode, gcd only for the full group).  The tests are module-level
    functions, partials and frozenset methods, so the Experiment pickles.

    Every q_k is factored by one arith.factor_all call: a smallest-prime-
    factor sieve local to this call when max q_k is small enough to pay for
    it, else factor per q_k.  phi(q_k) is kept beside |G_k| for
    check_conditions."""
    qs = _materialize_q(cfg)
    alphas = _materialize_alpha(cfg)
    for q in qs:
        if math.gcd(cfg.a, q) != 1:
            raise ValueError(f"coset representative a={cfg.a} shares a factor with q={q}")
        for g in cfg.generators:
            if math.gcd(g, q) != 1:
                raise ValueError(f"generator {g} shares a factor with q={q}")
    facts = factor_all(qs)
    phis = tuple(map(euler_phi, facts))
    members = []
    orders = []
    for q, f, phi in zip(qs, facts, phis):
        if cfg.subgroup_mode == "full":
            members.append(_any_unit)
            orders.append(phi)
        elif cfg.subgroup_mode == "dth-powers":
            members.append(partial(_in_dth_power_coset, f, pow(cfg.a, -1, q), cfg.d))
            orders.append(r_d(f, cfg.d))
        else:
            sub = closure(cfg.generators, q)
            members.append(frozenset(cfg.a * x % q for x in sub).__contains__)
            orders.append(len(sub))
    moduli = tuple(q**cfg.d for q in qs)
    q_word = np.array([Q & _LOW_WORD for Q in moduli], dtype=np.uint64)
    return Experiment(
        config=cfg,
        qs=qs,
        alphas=alphas,
        moduli=moduli,
        orders=tuple(orders),
        phis=phis,
        _members=members,
        _q_word=q_word,
        _q_low=q_word.astype(np.float64) * 2.0**-128,
        _tau=np.array([float(a) for a in alphas]) * (1 + 2.0**-50) + 2.0**-48,
        _unscreened=np.array([Q >= _SCREEN_Q_LIMIT for Q in moduli]),
    )


# ---------------------------------------------------------------------------
# Condition checking.
# ---------------------------------------------------------------------------


def _checkpoints(K: int) -> tuple[int, ...]:
    if K <= 1024:
        return tuple(range(1, K + 1))
    cps = set(range(1, 65)) | {K}
    p = 2
    while p <= K:
        cps.add(p)
        p *= 2
    step = K // 64
    cps |= {i * step for i in range(1, 65)}
    return tuple(sorted(c for c in cps if 1 <= c <= K))


def _two_odd(b: int) -> tuple[int, int]:
    """(e, o) with b = 2^e o and o odd."""
    e = (b & -b).bit_length() - 1
    return e, b >> e


def _prefix_ratio(dens, nums, cps: tuple[int, ...]):
    """The exact prefix-ratio pass over the series dens_k > 0 and nums_k > 0.

    With D_n = dens_1 + ... + dens_n and N_n likewise, returns the rows
    (L, L D_n, L N_n) at the checkpoints cps, all integers; the exact
    minimum of r_n = N_n / D_n over every prefix n, checkpoint or not; and
    how many of its comparisons floats decided and how many fell back to
    exact integers.  The series are consumed lazily.  Both callers pass
    nums_k / dens_k = |G_k| / q_k, a density in (0, 1].

    Integers.  D_n and N_n are kept as integers D and N over one common
    denominator L = 2^E O with O odd, so r_n = N / D and no Fraction is
    built in the loop.  At step n, let 2^ex ox and 2^ey oy be the
    denominators of dens_n and nums_n, with ox and oy odd, and o =
    lcm(ox, oy), a number of the terms' size.  E rises to max(E, ex, ey)
    by a shift.  One divmod(O, o) = (quo, rem) gives the rest.  If rem = 0,
    o divides O and O / o = quo.  Otherwise O becomes lcm(O, o) = O m, with
    g = gcd(rem, o) and m = o / g, and the new O / o = (quo o + rem) / g =
    quo m + rem / g.  D, N and the argmin's integers are multiplied by
    m 2^shift, which leaves every ratio as it was, and dens_n =
    a / (2^ex ox) adds a 2^(E - ex) (o / ox) (O / o) to D; nums_n adds to N
    likewise.  So each step divides the big O once by a small number, and
    the loop runs no big-by-big gcd, quotient or remainder.

    Fall test.  Let j be the argmin so far (the first on ties).  As
    D_j < D_n,
        r_n < r_j  iff  t < r_j,  where t = (N_n - N_j) / (D_n - D_j)
    is the mediant of the terms j < k <= n.  Like r_j it is a weighted
    average of densities in (0, 1], so its double cannot overflow.

    Floats.  Floats only prune; the integers decide whatever they leave.
    Python's int / int is the correctly rounded double of the exact
    quotient, and rounding to nearest is monotone (across subnormals and
    underflow to 0 too): t <= r_j gives t' <= r', and t >= r_j gives
    t' >= r', for the doubles t' = fl(t) and r' = fl(r_j).  Hence
        t' < r'  proves  t < r_j:  a new minimum,
        t' > r'  proves  t > r_j:  no new minimum,
    with an error margin of zero.  Only t' = r' is left undecided: an exact
    tie, or a near-tie whose two values round to the same double.  There
    the integers decide, by
        (N_n - N_j) D_j < N_j (D_n - D_j).
    """
    cps_set = set(cps)
    E, O = 0, 1
    D = N = Dj = Nj = 0
    r = 0.0
    rows = []
    floats = exact = 0
    for n, (x, y) in enumerate(zip(dens, nums), start=1):
        ex, ox = _two_odd(x.denominator)
        ey, oy = _two_odd(y.denominator)
        o = ox * oy // math.gcd(ox, oy)
        shift = max(ex, ey, E) - E
        E += shift
        quo, rem = divmod(O, o)
        m = 1
        if rem:
            g = math.gcd(rem, o)
            m = o // g
            quo = quo * m + rem // g
            O *= m
        if m > 1 or shift:
            s = m << shift
            D, N, Dj, Nj = D * s, N * s, Dj * s, Nj * s
        D += ((x.numerator * (o // ox)) << (E - ex)) * quo
        N += ((y.numerator * (o // oy)) << (E - ey)) * quo
        if n in cps_set:
            rows.append((O << E, D, N))
        if n > 1:
            dN, dD = N - Nj, D - Dj
            t = dN / dD
            if t == r:
                exact += 1
                if dN * Dj >= Nj * dD:
                    continue
            else:
                floats += 1
                if t > r:
                    continue
        Dj, Nj = D, N
        r = N / D
    return tuple(rows), Fraction(Nj, Dj), floats, exact


@dataclass(frozen=True)
class ConditionsReport:
    """Prefix sums behind the divergence and subgroup-size conditions.

    Exact rationals are recorded on a checkpoint grid (every prefix when K is
    small); the running minimum and final value of the density ratio are
    exact over all prefixes regardless of the grid.  The checkpoint rows are
    kept as integers and turned into Fractions only when read.
    """

    epsilon: float
    checkpoints: tuple[int, ...]
    # per checkpoint n, the integers (L, L sum alpha_k, L sum alpha_k |G_k|/q_k), k <= n
    rows: tuple[tuple[int, int, int], ...] = field(repr=False)
    partial_sum_alpha_final: Fraction
    weighted_sum_final: Fraction
    c_ratio_min: Fraction
    c_ratio_final: Fraction
    cond_c_first_decile_mean: float
    cond_c_last_decile_mean: float
    cond_c_decreasing: bool
    float_decisions: int  # prefix-ratio comparisons that doubles decided
    exact_fallbacks: int  # and those left to exact integers

    @cached_property
    def partial_sum_alpha(self) -> tuple[Fraction, ...]:
        """sum alpha_k over k <= n, at each checkpoint n."""
        return tuple(Fraction(a, L) for L, a, _ in self.rows)

    @cached_property
    def weighted_sum(self) -> tuple[Fraction, ...]:
        """sum alpha_k |G_k| / q_k over k <= n, at each checkpoint n."""
        return tuple(Fraction(w, L) for L, _, w in self.rows)

    @cached_property
    def c_ratio(self) -> tuple[Fraction, ...]:
        """weighted_sum / partial_sum_alpha, at each checkpoint."""
        return tuple(w / a for w, a in zip(self.weighted_sum, self.partial_sum_alpha))

    @property
    def union_bound(self) -> Fraction:
        """Total measure 2 sum alpha_k |G_k| / q_k of the interval systems,
        the Borel-Cantelli bound on the hit fraction F(1, K)."""
        return 2 * self.weighted_sum_final


def check_conditions(exp: Experiment, epsilon: float = 0.05) -> ConditionsReport:
    """Evaluate the two series conditions and the subgroup-size condition
    for a prepared experiment.

    Reports, per prefix n: the plain radius sum, the density-weighted sum
    sum(alpha_k |G_k| / q_k), their ratio (whose running minimum is an
    empirical lower estimate of the constant c), and per index k the decay
    statistic phi(q_k) / (q_k^(1/2 - epsilon) |G_k|).  A non-finite
    epsilon raises ValueError, and so does a q_k whose power leaves the
    float range (any q_k >= 2^1024), naming the first such k.
    """
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
    cps = _checkpoints(exp.config.K)
    weighted = (a * Fraction(order, q) for q, a, order in zip(exp.qs, exp.alphas, exp.orders))
    rows, ratio_min, floats, exact = _prefix_ratio(exp.alphas, weighted, cps)
    L, a_sum, w_sum = rows[-1]
    a_sum, w_sum = Fraction(a_sum, L), Fraction(w_sum, L)
    cond_c = []
    for k, (q, phi, order) in enumerate(zip(exp.qs, exp.phis, exp.orders), 1):
        try:
            cond_c.append(phi / (q ** (0.5 - epsilon) * order))
        except (OverflowError, ZeroDivisionError):
            raise ValueError(
                f"q_{k} has {q.bit_length()} bits: q_k^(1/2 - epsilon) with "
                f"epsilon = {epsilon} is out of the float range of the decay statistic"
            ) from None
    dec = max(1, len(cond_c) // 10)
    first = sum(cond_c[:dec]) / dec
    last = sum(cond_c[-dec:]) / dec
    return ConditionsReport(
        epsilon=epsilon,
        checkpoints=cps,
        rows=rows,
        partial_sum_alpha_final=a_sum,
        weighted_sum_final=w_sum,
        c_ratio_min=ratio_min,
        c_ratio_final=w_sum / a_sum,
        cond_c_first_decile_mean=first,
        cond_c_last_decile_mean=last,
        cond_c_decreasing=last < first,
        float_decisions=floats,
        exact_fallbacks=exact,
    )


@dataclass(frozen=True)
class AbelReport:
    """Summation-by-parts check: an average density bound implies the
    weighted condition with the same constant when the radii are
    non-increasing."""

    density_partial: tuple[Fraction, ...]  # S_n = sum of |G_k|/q_k at checkpoints
    c_star: Fraction  # min over all prefixes of S_n / n
    implication_holds: bool


def abel_condition_check(exp: Experiment, conditions: ConditionsReport) -> AbelReport:
    """Verify on the computed prefixes that S_n > c n forces the weighted
    condition with the same c.  Rejects configs whose radii increase.

    The weighted side comes from conditions = check_conditions(exp): every
    partial radius sum is positive, so sum alpha_k |G_k|/q_k >= c_star
    sum alpha_k holds at every prefix exactly when the all-prefix ratio
    minimum is >= c_star.
    """
    if any(b > a for a, b in zip(exp.alphas, exp.alphas[1:])):
        raise ValueError("Abel check requires a non-increasing alpha sequence")
    densities = (Fraction(order, q) for q, order in zip(exp.qs, exp.orders))
    rows, c_star, _, _ = _prefix_ratio(repeat(1), densities, conditions.checkpoints)
    return AbelReport(
        density_partial=tuple(Fraction(s, L) for L, _, s in rows),
        c_star=c_star,
        implication_holds=conditions.c_ratio_min >= c_star,
    )


# ---------------------------------------------------------------------------
# Monte Carlo result.
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class MonteCarloResult:
    config: ExperimentConfig
    k_ladder: tuple[int, ...]
    m_values: tuple[int, ...]
    samples: int
    counts: dict  # counts[m][K'] = samples with at least m hits among k <= K'
    total_hits: int
    per_sample_hits: list

    def fraction(self, m: int, k_prime: int) -> Fraction:
        return Fraction(self.counts[m][k_prime], self.samples)

    def summary_dict(self) -> dict:
        table = {}
        for m in self.m_values:
            row = {}
            for kp in self.k_ladder:
                c = self.counts[m][kp]
                row[str(kp)] = {
                    "count": c,
                    "fraction": str(Fraction(c, self.samples)),
                    "value": c / self.samples,
                }
            table[str(m)] = row
        return {
            "schema_version": 1,
            "config": self.config.to_dict(),
            "samples": self.samples,
            "k_ladder": list(self.k_ladder),
            "m_values": list(self.m_values),
            "F": table,
            "total_hits": self.total_hits,
        }
