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
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact
from fractions import Fraction
from functools import cached_property, partial
from itertools import islice, pairwise
from typing import NamedTuple

import numpy as np

from .arith import as_fraction, euler_phi, factor_all, primes_up_to, r_d, totients
from .equidist import IntervalSystem, interval_system
from .residue_group import SUBGROUP_MODES, closure, is_dth_power, subgroup, unit_group

__all__ = [
    "AlphaSequence",
    "ConditionsReport",
    "Experiment",
    "ExperimentConfig",
    "HitRecord",
    "MonteCarloResult",
    "QSequence",
    "check_conditions",
    "prepare",
]

def exact_str(x: Fraction) -> str:
    """str(x) for rationals of any size.  Decimal renders an int exactly and
    is not bound by the interpreter's int-to-str digit limit, so long partial
    sums stay exact without touching that process-wide setting."""
    pow2: dict[int, Decimal] = {}
    num = str(_decimal(abs(x.numerator), pow2))
    if x.numerator < 0:
        num = "-" + num
    return num if x.denominator == 1 else f"{num}/{_decimal(x.denominator, pow2)}"


def doubled_exact_str(s: str) -> str:
    """exact_str(2 x) from s = exact_str(x), on s's digits alone: with x =
    N/D in lowest terms, 2 x is 2N/D for an odd D (D = 1 for an integer)
    and N/(D/2) for an even D, each again in lowest terms, and an integer
    when D = 2.  Decimal's exact multiply and divide_int work on the digits,
    so neither N nor D is converted from an int again."""
    num, slash, den = s.partition("/")
    if den[-1:] in ("0", "2", "4", "6", "8"):
        half = _EXACT_DECIMAL.divide_int(Decimal(den), 2)
        return num if half == 1 else f"{num}/{half}"
    return f"{_EXACT_DECIMAL.multiply(Decimal(num), 2)}{slash}{den}"


# Exact integer arithmetic in decimal: no rounding can happen, and any would
# raise Inexact.
_EXACT_DECIMAL = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])
_DIRECT_BITS = 2048  # Decimal(n) is quadratic in the size of n, but fast up to here


def _decimal(n: int, pow2: dict[int, Decimal]) -> Decimal:
    """Decimal(n) for n >= 0 in subquadratic time: n = hi 2^h + lo with h
    half the bit width, each half converted in turn and joined by one exact
    multiply-add, whose large products decimal computes by a number-theoretic
    transform.  pow2 caches the Decimal 2^h of each split width h."""
    if n.bit_length() <= _DIRECT_BITS:
        return Decimal(n)
    h = n.bit_length() >> 1
    if h not in pow2:
        pow2[h] = _EXACT_DECIMAL.power(2, h)
    hi, lo = _decimal(n >> h, pow2), _decimal(n & ((1 << h) - 1), pow2)
    return _EXACT_DECIMAL.fma(hi, pow2[h], lo)


Q_KINDS = ("explicit", "integers", "primes", "primes-coprime-to-a")
ALPHA_KINDS = ("explicit", "c/k", "c/(k log k)", "c*2^-k")

_LOG_SCALE = 1 << 16  # dyadic resolution of the rounded log in c/(k log k)
_LOW_WORD = (1 << 64) - 1
_SCREEN_Q_LIMIT = 1 << 53  # the hit screen's error bound needs Q_k exact in a double


def _integer(name: str, v):
    """v, when it is a Python int and not a bool; config integers are never
    coerced, so a config built in Python round-trips through JSON as one
    read by from_dict does."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"config field '{name}' must be an integer, got {v!r}")
    return v


# the ExperimentConfig fields that hold one integer
_INTEGER_FIELDS = ("d", "a", "K", "samples", "precision_bits", "seed", "min_hits")


def _rational(name: str, v) -> Fraction:
    """as_fraction(v), with a ValueError naming the config field: the Python
    side of from_dict's rational rule, so a float radius never reaches the sums."""
    try:
        return as_fraction(v)
    except TypeError:
        raise ValueError(f"config field '{name}' must be an exact rational, got {v!r}") from None


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
        for v in self.values or ():
            _integer("q_sequence.values", v)


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
            for v in self.values:
                _rational("alpha_sequence.values", v)
        elif self.c is None or _rational("alpha_sequence.c", self.c) <= 0:
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
        for name in _INTEGER_FIELDS:
            _integer(name, getattr(self, name))
        for v in self.generators:
            _integer("generators", v)
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
        rather than coerced.  Fields are read in declaration order, so the
        first bad or missing one is named; only the _JSON_OPTIONAL fields may
        be omitted, and they then take the field default."""
        _known("config", data, _CONFIG_KEYS)
        version = _integer("schema_version", data.get("schema_version", 1))
        if version != 1:
            raise ValueError(f"unsupported schema_version {version}")
        kw = {}
        for f in fields(ExperimentConfig):
            if f.name in data:
                kw[f.name] = _JSON_FIELDS[f.name](f.name, data[f.name])
            elif f.name not in _JSON_OPTIONAL:
                raise ValueError(f"config field '{f.name}' is missing")
        return ExperimentConfig(**kw)


def _known(where: str, obj, keys) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object")
    unknown = sorted(set(obj) - keys)
    if unknown:
        raise ValueError(f"unknown {where} field(s): {', '.join(map(str, unknown))}")


def _as_is(name: str, v):
    return v


def _json_rational(name: str, v) -> Fraction:
    """A JSON rational: an integer or an exact rational string like '1/3'."""
    try:
        if isinstance(v, (int, str)) and not isinstance(v, bool):
            return Fraction(v)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"config field '{name}' must be an integer or an exact rational string, got {v!r}")


def _json_list(name: str, vs, parse) -> tuple:
    if not isinstance(vs, list):
        raise ValueError(f"config field '{name}' must be a list, got {vs!r}")
    return tuple(parse(name, v) for v in vs)


def _json_sequence(cls, element):
    """The JSON parser of rule cls: an object with a 'kind', 'c' one element
    and 'values' a list of elements; cls checks the rest."""

    def parse(name: str, obj):
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValueError(f"config field '{name}' must be an object with a 'kind'")
        _known(name, obj, {f.name for f in fields(cls)})
        kw = {"kind": obj["kind"]}
        if "c" in obj:
            kw["c"] = element(f"{name}.c", obj["c"])
        if "values" in obj:
            kw["values"] = _json_list(f"{name}.values", obj["values"], element)
        return cls(**kw)

    return parse


# from_dict's parser of each field's JSON value, and the fields JSON may omit
_JSON_FIELDS = {
    "q_sequence": _json_sequence(QSequence, _as_is),
    "alpha_sequence": _json_sequence(AlphaSequence, _json_rational),
    "subgroup_mode": _as_is,
    "generators": partial(_json_list, parse=_integer),
    **dict.fromkeys(_INTEGER_FIELDS, _integer),
}
_JSON_OPTIONAL = frozenset({"generators", "precision_bits", "min_hits"})
# the keys to_dict writes: one per field, plus the schema version
_CONFIG_KEYS = frozenset(f.name for f in fields(ExperimentConfig)) | {"schema_version"}


class HitRecord(NamedTuple):
    """One solved inequality: |x - p/q^d| < alpha_k/q^d with p in the coset,
    whose error |x - p/q^d| is error_num / error_den in lowest terms.  The
    fields are plain ints, in the order of the hits CSV's columns."""

    k: int
    q: int
    p: int
    error_num: int
    error_den: int


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


def _materialize_alpha(cfg: ExperimentConfig) -> tuple[tuple[int, int, int], ...]:
    """The radii alpha_k, k = 1..K, as reduced terms (n, e, o) = n / (2^e o),
    o odd, of _two_odd: each rule reduces c = cn/cd (already in lowest
    terms) against its own factor of the denominator with one small-int
    step, and c*2^-k keeps 2^-k in the exponent e, so every n and o stays
    the size of c's."""
    seq = cfg.alpha_sequence
    K = cfg.K
    if seq.kind == "explicit":
        if len(seq.values) < K:
            raise ValueError(f"explicit alpha list has {len(seq.values)} entries, K={K}")
        vals = [_two_odd(*v.as_integer_ratio()) for v in seq.values[:K]]
    else:
        cn, cd = seq.c.as_integer_ratio()
        vals = []
        if seq.kind == "c/k":
            for k in range(1, K + 1):
                g = math.gcd(cn, k)
                vals.append(_two_odd(cn // g, cd * (k // g)))
        elif seq.kind == "c*2^-k":
            v = (cn & -cn).bit_length() - 1  # the 2-adic valuation of cn
            _, ce, co = _two_odd(cn, cd)
            for k in range(1, K + 1):
                s = min(v, k)
                vals.append((cn >> s, ce + k - s, co))
        else:  # c/(k log k), the log rounded to a multiple of 1/_LOG_SCALE
            n = cn * _LOG_SCALE
            for k in range(1, K + 1):
                d = cd * k * max(_LOG_SCALE, round(math.log(k) * _LOG_SCALE))
                g = math.gcd(n, d)
                vals.append(_two_odd(n // g, d // g))
    for k, (n, e, o) in enumerate(vals, start=1):
        if not (0 < n and (2 * n) >> e < o):
            raise ValueError(f"alpha_{k} = {Fraction(n, o << e)} outside (0, 1/2)")
    return tuple(vals)


@dataclass(eq=False)
class Experiment:
    """A config with its sequences materialized and per-index machinery built."""

    config: ExperimentConfig
    qs: tuple[int, ...]
    radii: tuple[tuple[int, int, int], ...]  # alpha_k as reduced terms (n, e, o) of _two_odd
    moduli: tuple[int, ...] = field(repr=False)  # q_k ** d
    orders: tuple[int, ...] = field(repr=False)  # |G_k|
    phis: tuple[int, ...] = field(repr=False)  # phi(q_k)
    _members: list = field(repr=False)  # per-index coset membership tests
    # Hit screen arrays, one entry per index (see find_hits).
    _q_word: np.ndarray = field(repr=False)  # Q_k mod 2^64 as uint64
    _q_low: np.ndarray = field(repr=False)  # _q_word * 2^-128 as float64
    _tau: np.ndarray = field(repr=False)  # a (1 + 2^-50) + 2^-48, a = n / (o << e); 1 if Q_k >= 2^53

    def find_hits(self, x) -> list[HitRecord]:
        """All hit records for the exact rational x in (0, 1), k = 1..K.

        Floats only prune, with the margin proved below; integers decide.  A
        numpy screen keeps the indices k whose float distance from x Q_k
        (Q = q^d) to the nearest integer is below tau_k.  tau_k = 1 marks
        Q_k >= 2^53, where the float distance is void but t <= 2 is finite,
        so d <= 1/2 keeps the index; every other tau_k is below 1/2 + 2^-47.
        Each survivor goes through the exact test, the only place a hit is
        decided, on the one integer nearest x Q: with alpha < 1/2 only an
        integer within 1/2 of x Q can be a hit, and at most one is.  With
        m = floor(x Q), m - 1 lies at distance >= 1, and at a tie (x Q =
        m + 1/2) both m and m + 1 lie at distance 1/2, so neither is a hit.

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
        The screen's distance is d = |t - rint(t)|.  For t in [0, 2), rint(t)
        is 0, 1 or 2, and t - rint(t) is exact: trivially for 0, and by
        Sterbenz for 1 (t in [1/2, 3/2]) and 2 (t in [3/2, 2)); so d = ||t||.
        As ||.|| is 1-Lipschitz,
            |d - ||x Q||| <= 2^-54 + 2^-63 + 2^-53 + 2^-75 < 2^-52.
        The threshold is tau = fl(fl(a (1 + 2^-50)) + 2^-48) with a =
        n / (o << e) for the radius term alpha = n / (2^e o), the correctly
        rounded quotient of two integers (Python's int true division rounds
        correctly).  With eta = 2^-1075 for underflow (the c*2^-k radii
        round to a subnormal or to 0 once k passes about 1074),
        a >= alpha (1 - u) - eta.
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
            q, Q, (an, e, o), member = self.qs[i], self.moduli[i], self.radii[i], self._members[i]
            m, delta = divmod(xn * Q, xd)
            p, dist = (m, delta) if 2 * delta < xd else (m + 1, xd - delta)
            if (dist * o) << e < an * xd and math.gcd(p, q) == 1 and member(p % q):
                den = xd * Q
                g = math.gcd(dist, den)
                hits.append(HitRecord(i + 1, q, p, dist // g, den // g))
        return hits

    def _screen(self, xn: int, xd: int) -> np.ndarray:
        """Ascending indices that may hold a hit for x = xn/xd (the float
        screen of find_hits, whose docstring proves its margin)."""
        X = (xn << 128) // xd
        t = (self._q_word * np.uint64(X >> 64)) * 2.0**-64
        t += float(X & _LOW_WORD) * self._q_low
        t -= np.rint(t)
        return np.flatnonzero(np.abs(t, out=t) < self._tau)

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
            ks = [h.k for h in hits]  # ascending, as find_hits returns them
            for kp in ladder:
                for m in ms[:bisect_right(ks, kp)]:
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

    def system(self, k: int) -> IntervalSystem:
        """E_k, the interval system of index k = 1..K, built from
        residue_group's coset a G_k mod q_k, not from find_hits' predicates."""
        if not 0 < k <= len(self.qs):
            raise IndexError(f"index k must lie in [1, {len(self.qs)}], got {k}")
        cfg, (n, e, o) = self.config, self.radii[k - 1]
        G = subgroup(unit_group(self.qs[k - 1]), cfg.subgroup_mode, cfg.d, cfg.generators)
        return interval_system(cfg.d, Fraction(n, o << e), cfg.a, G)


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
    """Materialize the sequences, validate the coset data (closure rejects a
    generator that is not a unit mod q_k), build membership tests (exponent
    fast path for d-th powers, explicit sets for generator mode, gcd only
    for the full group).  The tests are module-level
    functions, partials and frozenset methods, so the Experiment pickles.

    The q_k are factored only where a Factorization is read: dth-powers
    membership and |G_k| = r_d(q_k, d) take one arith.factor_all call, and
    phi(q_k) comes from the same Factorizations; the other modes read only
    phi(q_k), from one arith.totients call.  Both use a smallest-prime-factor
    sieve local to the call when max q_k is small enough to pay for it, else
    factor per q_k.  phi(q_k) is kept beside |G_k| for check_conditions."""
    qs = _materialize_q(cfg)
    radii = _materialize_alpha(cfg)
    for q in qs:
        if math.gcd(cfg.a, q) != 1:
            raise ValueError(f"coset representative a={cfg.a} shares a factor with q={q}")
    if cfg.subgroup_mode == "dth-powers":
        facts = factor_all(qs)
        phis = tuple(map(euler_phi, facts))
        members = [
            partial(_in_dth_power_coset, f, pow(cfg.a, -1, q), cfg.d) for q, f in zip(qs, facts)
        ]
        orders = [r_d(f, cfg.d) for f in facts]
    else:
        phis = tuple(totients(qs))
        if cfg.subgroup_mode == "full":
            members = [_any_unit] * len(qs)
            orders = phis
        else:
            members, orders = [], []
            for q in qs:
                sub = closure(cfg.generators, q)
                members.append(frozenset(cfg.a * x % q for x in sub).__contains__)
                orders.append(len(sub))
    moduli = tuple(q**cfg.d for q in qs)
    q_word = np.array([Q & _LOW_WORD for Q in moduli], dtype=np.uint64)
    tau = np.array([n / (o << e) for n, e, o in radii]) * (1 + 2.0**-50) + 2.0**-48
    tau[np.array([Q >= _SCREEN_Q_LIMIT for Q in moduli])] = 1.0
    return Experiment(
        config=cfg,
        qs=qs,
        radii=radii,
        moduli=moduli,
        orders=tuple(orders),
        phis=phis,
        _members=members,
        _q_word=q_word,
        _q_low=q_word.astype(np.float64) * 2.0**-128,
        _tau=tau,
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


def _two_odd(n: int, b: int) -> tuple[int, int, int]:
    """The term n / b as (n, e, o) = n / (2^e o), with b = 2^e o and o odd."""
    e = (b & -b).bit_length() - 1
    return n, e, b >> e


_EMPTY = -(1 << 62)  # exponent of an empty float sum, whose mantissa is 0.0
_LEAF = 32  # terms per leaf of _lcm_sum's tree


def _series(exp: Experiment, lo: int = 0, hi: int | None = None):
    """The terms alpha_k and alpha_k |G_k| / q_k, lo < k <= hi, as two
    iterables of terms (n, e, o) = n / (2^e o), o odd: the radii as they
    are, and each radius times |G_k| / q_k split by _two_odd, unreduced."""
    radii = exp.radii[lo:hi]
    densities = map(_two_odd, exp.orders[lo:hi], exp.qs[lo:hi])
    nums = ((n * g, e + ge, o * go) for (n, e, o), (g, ge, go) in zip(radii, densities))
    return radii, nums


def _float_term(term: tuple[int, int, int]) -> tuple[float, int]:
    """(m, x) with m 2^x the correctly rounded double of the term (n, e, o)
    = n / (2^e o), 1/2 <= m < 1 and x an int of any size: n / o is scaled
    to land in [1/2, 2), so neither underflow nor overflow can occur, and
    2^-e only moves the exponent."""
    n, e, o = term
    s = o.bit_length() - n.bit_length()
    m, x = math.frexp((n << s) / o if s >= 0 else n / (o << -s))
    return m, x - s - e


def _screen_margin(K: int) -> float:
    """The relative margin M of _prefix_argmin's screen for K terms."""
    return K * 2.0**-46 if K <= 1 << 36 else math.inf


def _prefix_argmin(exp: Experiment) -> tuple[int, int, int]:
    """(j, floats, exact): the first argmin j of r_n = W_n / A_n over every
    prefix n <= K, with A_n and W_n the sums of the two series of _series,
    and how many of the K - 1 fall tests the float screen decided and how
    many it left to the exact cursor.

    Screen.  With j the argmin so far, the tails T_A = A_n - A_j and
    T_W = W_n - W_j give r_n < r_j iff W_n A_j < W_j A_n iff rho < 1, where
        rho = T_W A_j / (T_A W_j).
    The tails are float sums of the terms j < k <= n, and A_j, W_j float
    sums built by adding each tail in when its last term becomes the
    argmin.  Every sum is a double mantissa s with an int exponent E, and an
    empty one is 0.0 at _EMPTY.  Adding m 2^x aligns the operand of smaller
    exponent with an ldexp, exact or underflowing, and adds: s 2^E + m 2^x
    is s + ldexp(m, x - E) at E if x <= E, else ldexp(s, E - x) + m at x.
    The operand of larger exponent has a mantissa >= 1/2, so no sum falls
    below 1/2 and the relative precision holds whatever the exponents, past
    the double range (c*2^-k radii).  Each term adds less than 1 to s (plus
    rounding), so s < K + 1 and no product or quotient of mantissas below
    overflows or underflows.

    Margin.  Let u = 2^-53.  Each term's (m, x) is within a factor 1 + u of
    the term.  Each addition multiplies the sum by at most 1 + u plus the
    underflowed part of the smaller operand, at most 2^-1074 against a
    larger operand of mantissa >= 1/2; so by 1 + 1.01u.  A term passes
    through at most 2K additions (its tail's and one merge per later
    argmin), so each of the four sums is within a factor (1 + 1.01u)^(2K+1)
    <= 1 + eps of its exact value, eps = 8 K u = K 2^-50, for K <= 2^36.
    The computed rho' = ldexp(frexp((T_W' A_j') / (T_A' W_j'))) takes three
    more roundings (two products, one quotient; frexp is exact, and the
    exponent is clamped to [-64, 64], which keeps the side of 1 and any
    ldexp from rounding).  So with eps <= 2^-14,
        rho' / rho  lies within  [1 / (1 + 5 eps), 1 + 5 eps].
    With M = _screen_margin(K) = K 2^-46 = 16 eps,
        rho' < 1 - M  gives  rho < (1 - 16 eps)(1 + 5 eps) < 1:  a new argmin,
        rho' > 1 + M  gives  rho > (1 + 16 eps) / (1 + 5 eps) > 1:  none.
    Past K = 2^36 the margin is infinite and no step is screened.

    Fallback.  Every step within the margin, exact ties among them, goes to
    the cursor: the exact sums (A, W) over k <= at, moved forward by
    _advance.  If the screen has moved j past the cursor since the last
    fallback, the cursor first advances to j and keeps W_j / A_j as an
    unreduced pair; it then advances to n, and step n is the one integer
    comparison W_n A_j < W_j A_n, over the terms' own denominators.  It is
    strict, so the first argmin on ties is kept.  The cursor only moves
    forward: at worst (a tie at every step) it runs once through, one term
    per _advance.
    """
    K = exp.config.K
    lo, hi = 1 - _screen_margin(K), 1 + _screen_margin(K)
    dens, nums = _series(exp)
    terms = zip(map(_float_term, dens), map(_float_term, nums))
    (aj, ajx), (wj, wjx) = next(terms)
    ta = tw = 0.0
    tax = twx = _EMPTY
    j, floats, exact = 1, 0, 0
    row, at = _ZERO_ROW, 0
    for n, ((a, ax), (w, wx)) in enumerate(terms, start=2):
        if ax <= tax:
            ta += math.ldexp(a, ax - tax)
        else:
            ta = math.ldexp(ta, tax - ax) + a
            tax = ax
        if wx <= twx:
            tw += math.ldexp(w, wx - twx)
        else:
            tw = math.ldexp(tw, twx - wx) + w
            twx = wx
        v, e = math.frexp((tw * aj) / (ta * wj))
        e += twx + ajx - tax - wjx
        rho = math.ldexp(v, e if -64 <= e <= 64 else 64 if e > 0 else -64)
        if rho < lo or rho > hi:
            floats += 1
            new = rho < lo
        else:
            exact += 1
            if j > at:
                row = _advance(exp, row, at, j)
                at, (pj, qj) = j, _ratio(row)
            row = _advance(exp, row, at, n)
            at, (pn, qn) = n, _ratio(row)
            new = pn * qj < pj * qn
            if new:
                pj, qj = pn, qn
        if new:
            j = n
            if tax <= ajx:
                aj += math.ldexp(ta, tax - ajx)
            else:
                aj = math.ldexp(aj, ajx - tax) + ta
                ajx = tax
            if twx <= wjx:
                wj += math.ldexp(tw, twx - wjx)
            else:
                wj = math.ldexp(wj, wjx - twx) + tw
                wjx = twx
            ta = tw = 0.0
            tax = twx = _EMPTY
    return j, floats, exact


def _lcm_add(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    """a + b for terms (n, e, o) = n / (2^e o), o odd, over 2^max(e) lcm(o)."""
    (n1, e1, o1), (n2, e2, o2) = a, b
    g = math.gcd(o1, o2)
    E = max(e1, e2)
    return ((n1 * (o2 // g)) << (E - e1)) + ((n2 * (o1 // g)) << (E - e2)), E, o1 * (o2 // g)


def _lcm_sum(terms) -> tuple[int, int, int]:
    """The exact sum of the terms (n, e, o) = n / (2^e o), o odd, as such a
    term (0 / 1 when there are none).  Each leaf of _LEAF terms is summed
    over the lcm of its small odd parts, then a balanced tree of _lcm_add
    joins the leaves, so each big lcm is formed O(log K) times, not K
    times.  Powers of two only shift, and never meet a gcd."""
    terms = iter(terms)
    nodes = []
    while leaf := list(islice(terms, _LEAF)):
        E = max(e for _, e, _ in leaf)
        O = math.lcm(*(o for _, _, o in leaf))
        nodes.append((sum((n * (O // o)) << (E - e) for n, e, o in leaf), E, O))
    while len(nodes) > 1:
        nodes = [_lcm_add(*nodes[i : i + 2]) if i + 1 < len(nodes) else nodes[i]
                 for i in range(0, len(nodes), 2)]
    return nodes[0] if nodes else (0, 0, 1)


_ZERO_ROW = ((0, 0, 1), (0, 0, 1))  # the sums of both series over no terms


def _advance(exp: Experiment, row, lo: int, hi: int):
    """row, the exact sums (A, W) of the two series of _series over k <= lo
    as terms (n, e, o), advanced to the sums over k <= hi: each run
    lo < k <= hi is summed by _lcm_sum's tree and added in by _lcm_add."""
    return tuple(map(_lcm_add, row, map(_lcm_sum, _series(exp, lo, hi))))


def _ratio(row) -> tuple[int, int]:
    """W / A for a row (A, W) of _advance, as an unreduced (numerator,
    denominator) pair of positive integers."""
    (a, ea, oa), (w, ew, ow) = row
    return w * (oa << ea), a * (ow << ew)


def _fraction(term: tuple[int, int, int]) -> Fraction:
    """The term (n, e, o) = n / (2^e o) as a reduced Fraction."""
    n, e, o = term
    return Fraction(n, o << e)


@dataclass(frozen=True)
class ConditionsReport:
    """Prefix sums behind the divergence and subgroup-size conditions.

    Exact rationals are recorded on a checkpoint grid (every prefix when K is
    small); the running minimum and final value of the density ratio are
    exact over all prefixes regardless of the grid.  The checkpoint rows are
    lazy: the first read of rows, partial_sum_alpha, weighted_sum or c_ratio
    calls _advance once per checkpoint, from each checkpoint to the next,
    and keeps the exact terms, turned into Fractions only when read.
    """

    epsilon: float
    checkpoints: tuple[int, ...]
    partial_sum_alpha_final: Fraction
    weighted_sum_final: Fraction
    c_ratio_min: Fraction
    c_ratio_final: Fraction
    cond_c_first_decile_mean: float
    cond_c_last_decile_mean: float
    cond_c_decreasing: bool
    float_decisions: int  # prefix-ratio comparisons that doubles decided
    exact_fallbacks: int  # and those left to exact integers
    _exp: Experiment = field(repr=False, compare=False)  # read by the lazy rows

    @cached_property
    def rows(self) -> tuple[tuple[tuple[int, int, int], tuple[int, int, int]], ...]:
        """Per checkpoint n, the pair (sum alpha_k, sum alpha_k |G_k| / q_k)
        over k <= n, each an unreduced term (n, e, o) = n / (2^e o) of
        _lcm_add."""
        rows = [_ZERO_ROW]
        for lo, hi in pairwise((0, *self.checkpoints)):
            rows.append(_advance(self._exp, rows[-1], lo, hi))
        return tuple(rows[1:])

    @cached_property
    def partial_sum_alpha(self) -> tuple[Fraction, ...]:
        """sum alpha_k over k <= n, at each checkpoint n."""
        return tuple(_fraction(a) for a, _ in self.rows)

    @cached_property
    def weighted_sum(self) -> tuple[Fraction, ...]:
        """sum alpha_k |G_k| / q_k over k <= n, at each checkpoint n."""
        return tuple(_fraction(w) for _, w in self.rows)

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

    Only what the report holds is computed.  Floats only prune, and exact
    integers decide: _prefix_argmin finds the first argmin j of the ratio
    with a float screen of relative margin K 2^-46, proved in its
    docstring, and sends every step within the margin (exact ties among
    them) to its exact cursor.  The prefix at j and the final sums are then
    summed exactly once each, by _advance to j and on from j to K.  The
    checkpoint rows are lazy (see ConditionsReport).
    """
    if not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite, got {epsilon}")
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
    K = exp.config.K
    j, floats, exact = _prefix_argmin(exp)
    at_j = _advance(exp, _ZERO_ROW, 0, j)
    a_sum, w_sum = map(_fraction, _advance(exp, at_j, j, K))
    ratio = w_sum / a_sum
    return ConditionsReport(
        epsilon=epsilon,
        checkpoints=_checkpoints(K),
        partial_sum_alpha_final=a_sum,
        weighted_sum_final=w_sum,
        c_ratio_min=ratio if j == K else Fraction(*_ratio(at_j)),
        c_ratio_final=ratio,
        cond_c_first_decile_mean=first,
        cond_c_last_decile_mean=last,
        cond_c_decreasing=last < first,
        float_decisions=floats,
        exact_fallbacks=exact,
        _exp=exp,
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
                f = self.fraction(m, kp)
                row[str(kp)] = {"count": self.counts[m][kp], "fraction": str(f), "value": float(f)}
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
