"""Cross-module invariant checks.

Each check returns (ok, detail) and is pure; `run_suite` drives them at a
quick or full scale.  The full scale matches the acceptance sweeps, so the
same functions back both `cosetapprox verify` and the acceptance tests.
"""

from __future__ import annotations

import json
import math
import random
import time
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import brute_r_d, brute_u_d, coprime_mask, euler_phi, factor, growth_scan, r_d, trend_threshold, u_d
from .characters import (
    all_characters,
    evaluate,
    orthogonality_deviation,
    pv_sweep_max,
    quotient_characters,
)
from .equidist import (
    interval_system,
    overlap_measure,
    phi_mu_sieve,
    psi_character_value,
    psi_count,
    psi_estimate,
)
from .experiment import (
    AlphaSequence,
    ExperimentConfig,
    QSequence,
    _sample_point,
    check_conditions,
    prepare,
)
from .residue_group import (
    SUBGROUP_MODES,
    Subgroup,
    coset,
    dth_power_subgroup,
    index,
    subgroup,
    unit_group,
)

__all__ = [
    "CheckResult",
    "check_character_axioms",
    "check_conditions_reduction",
    "check_coset_partition",
    "check_growth_trend",
    "check_counting_identity",
    "check_equidistribution_bound",
    "check_formula_oracle",
    "check_hits_brute",
    "check_mc_determinism",
    "check_mc_dichotomy",
    "check_overlap_theta",
    "check_polya_vinogradov",
    "check_power_lift",
    "check_quotient_characters",
    "check_sieve_identity",
    "check_subgroup_consistency",
    "check_unit_group_structure",
    "run_suite",
    "sample_count_tuples",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def check_formula_oracle(n_max: int, d_max: int) -> tuple[bool, str]:
    """u_d and r_d closed forms against exhaustive residue enumeration."""
    mismatches = 0
    checked = 0
    for n in range(1, n_max + 1):
        f = factor(n)
        units = np.flatnonzero(coprime_mask(f, n))  # [0] for n = 1
        one = 1 % n
        cur = units.copy()
        for d in range(1, d_max + 1):
            checked += 1
            if u_d(f, d) != int(np.count_nonzero(cur == one)):
                mismatches += 1
            if r_d(f, d) != int(np.count_nonzero(np.bincount(cur, minlength=n))):
                mismatches += 1
            if d < d_max:
                cur = cur * units % n
        if n % 977 == 0:  # tie the vectorized scan to the scalar oracles
            for d in (1, 2, 3):
                if brute_u_d(n, d) != u_d(f, d) or brute_r_d(n, d) != r_d(f, d):
                    mismatches += 1
    return mismatches == 0, f"{checked} (n, d) pairs, {mismatches} mismatches"


def check_subgroup_consistency(n_max: int, d_max: int) -> tuple[bool, str]:
    """|d-th power subgroup| = r_d(n) and its index = u_d(n), exactly."""
    bad = 0
    for n in range(2, n_max + 1):
        g = unit_group(n)
        f = g.factorization
        for d in range(1, d_max + 1):
            G = dth_power_subgroup(g, d)
            if G.order != r_d(f, d) or index(G) != u_d(f, d):
                bad += 1
    return bad == 0, f"n <= {n_max}, d <= {d_max}, {bad} violations"


def check_sieve_identity(n_max: int, grid: int) -> tuple[bool, str]:
    """Inclusion-exclusion count equals the coprime count and |R| <= tau(n).

    The count is one cumulative sum of coprime_mask per n over
    [0, grid n / 20], read at floor(mu n) for each mu = j / 20: phi_mu's
    count done once per n instead of once per mu, independent of
    phi_mu_sieve, which is also called once per n."""
    mus = [Fraction(j, 20) for j in range(1, grid + 1)]
    js = np.arange(1, grid + 1)
    bad = 0
    for n in range(2, n_max + 1):
        # coprime[m] = #{1 <= k <= m : gcd(k, n) = 1}
        coprime = np.cumsum(coprime_mask(factor(n), grid * n // 20 + 1))
        # phi_mu_sieve raises ArithmeticError itself when |R| > tau(n)
        bad += sum(c != w for c, w in zip(phi_mu_sieve(n, mus), coprime[js * n // 20].tolist()))
    return bad == 0, f"n <= {n_max}, {grid} mu values, {bad} violations"


def check_character_axioms(n_max: int) -> tuple[bool, str]:
    """Exactly phi(n) distinct characters; both orthogonality sums vanish
    (below 1e-9)."""
    worst = 0.0
    bad = 0
    for n in range(2, n_max + 1):
        g = unit_group(n)
        chars = all_characters(g)
        if len(chars) != g.phi or len(set(map(tuple, chars.tolist()))) != g.phi:
            bad += 1
            continue
        col, row = orthogonality_deviation(g)
        worst = max(worst, col, row)
        if col > 1e-9 or row > 1e-9:
            bad += 1
    return bad == 0, f"n <= {n_max}, {bad} violations, worst deviation {worst:.2e}"


def check_polya_vinogradov(n_max: int) -> tuple[bool, str]:
    """|sum of chi(k), k <= h| <= 2 sqrt(n) log n for all non-principal chi."""
    violations = 0
    worst_slack = math.inf
    for n in range(3, n_max + 1):
        mx, bound = pv_sweep_max(unit_group(n))
        worst_slack = min(worst_slack, bound - mx)
        if mx > bound:
            violations += 1
    return violations == 0, f"n <= {n_max}, {violations} violations, min slack {worst_slack:.3f}"


def _random_generator(rng: random.Random, n: int) -> int:
    """A uniformly drawn unit in [1, n - 1], by rejection.  It draws even at
    n = 2, where the only unit is 1: the subgroup-generator draws always
    did, and the seeded streams depend on it."""
    while True:
        x = rng.randint(1, n - 1)
        if math.gcd(x, n) == 1:
            return x


def _random_unit(rng: random.Random, n: int) -> int:
    """A uniformly drawn coset representative mod n: 1 for n = 2 with no
    draw, which the seeded streams depend on, else _random_generator."""
    return 1 if n == 2 else _random_generator(rng, n)


def sample_count_tuples(count: int, n_max: int, seed: int) -> Iterator[tuple[int, Subgroup, int, Fraction]]:
    """Random (n, subgroup, coset representative, mu) tuples for the counting
    identity and the explicit error bound; deterministic under the seed.
    Drawn one at a time, so only the tuple in use holds its unit group."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, n_max)
        mode = rng.randrange(4)  # mode 1 is the trivial subgroup, no generators
        power = rng.randint(2, 6) if mode == 2 else 1
        gens = [_random_generator(rng, n) for _ in range(rng.randint(1, 2))] if mode == 3 else []
        G = subgroup(unit_group(n), ("full", "generators", "dth-powers", "generators")[mode], power, gens)
        a = _random_unit(rng, n)
        mu = Fraction(rng.randint(1, 40), 20)
        yield n, G, a, mu


def check_counting_identity(tuples) -> tuple[bool, str]:
    """Character-sum identity equals the direct coset count, exactly after
    rounding, with pre-rounding deviation below 1e-6."""
    worst = 0.0
    bad = 0
    count = 0
    for count, (n, G, a, mu) in enumerate(tuples, start=1):
        c = coset(a, G)
        val = psi_character_value(mu, c)
        dev = abs(val - round(val.real))
        worst = max(worst, dev)
        if dev > 1e-6 or round(val.real) != psi_count(mu * n, c):
            bad += 1
    return bad == 0, f"{count} tuples, {bad} violations, worst deviation {worst:.2e}"


def check_equidistribution_bound(tuples) -> tuple[bool, str]:
    """|psi - mu |G|| <= tau(n) + 2 sqrt(n) log n on the sampled tuples."""
    bad = 0
    worst = 0.0
    count = 0
    for count, (n, G, a, mu) in enumerate(tuples, start=1):
        try:
            est = psi_estimate(mu, coset(a, G))
            worst = max(worst, est.normalized_error)
        except ArithmeticError:
            bad += 1
    return bad == 0, f"{count} tuples, {bad} violations, worst normalized error {worst:.3f}"


def check_overlap_theta(cases: int) -> tuple[bool, str]:
    """Randomized interval systems: recovered theta stays in [-2, 2] and the
    exact measure matches a per-center clipping oracle on small systems."""
    rng = random.Random(0x0E5)
    bad = 0
    oracle_checked = 0
    for _ in range(cases):
        q = rng.randint(2, 200)
        d = rng.choice((1, 2))
        mode = rng.randrange(3)
        power = rng.randint(2, 4) if mode == 1 else 1  # the subgroup's power, not the system's d
        gens = [_random_generator(rng, q)] if mode == 2 else []
        G = subgroup(unit_group(q), SUBGROUP_MODES[mode], power, gens)
        a = _random_unit(rng, q)
        alpha = Fraction(rng.randint(1, 999), 2000)
        E = interval_system(d, alpha, a, G)
        lo = Fraction(rng.randint(0, 999), 1000)
        hi = Fraction(rng.randint(0, 999), 1000)
        if lo == hi:
            hi = lo + Fraction(1, 1000)
        s, t = min(lo, hi), max(lo, hi)
        try:
            measure, _ = overlap_measure(E, s, t)
        except ArithmeticError:  # overlap_measure enforces |theta| <= 2 by raising
            bad += 1
            continue
        if E.center_count <= 3000:
            # clip each center in integer units of 1/(N D)
            oracle_checked += 1
            N = E.modulus
            D = math.lcm(alpha.denominator, s.denominator, t.denominator)
            r = alpha.numerator * (D // alpha.denominator)
            S = s.numerator * (D // s.denominator) * N
            T = t.numerator * (D // t.denominator) * N
            direct = 0
            for p in E.centers():
                left = max(p * D - r, S)
                right = min(p * D + r, T)
                if right > left:
                    direct += right - left
            if Fraction(direct, N * D) != measure:
                bad += 1
    return bad == 0, f"{cases} cases ({oracle_checked} against the clipping oracle), {bad} bad"


def check_coset_partition(n_max: int) -> tuple[bool, str]:
    """Distinct cosets partition the units into index(G) classes of size |G|,
    and membership commutes with translation by the representative."""
    bad = 0
    for n in range(2, n_max + 1):
        g = unit_group(n)
        for d in (2, 3):
            G = dth_power_subgroup(g, d)
            classes = {}
            for a in g.units():
                classes.setdefault(coset(a, G).elements, []).append(a)
            if len(classes) != index(G):
                bad += 1
            covered = sorted(x for elems in classes for x in elems)
            if covered != g.units():
                bad += 1
            if any(len(e) != G.order for e in classes):
                bad += 1
            base = coset(1, G)
            for a in g.units():
                c = coset(a, G)
                ai = pow(a, -1, n)
                if any((p in c) != (ai * p in base) for p in range(2 * n)):
                    bad += 1
    return bad == 0, f"n <= {n_max}, {bad} violations"


def check_quotient_characters(n_max: int) -> tuple[bool, str]:
    """Annihilator characters: count equals index(G), closed under products,
    and exactly the characters constant on every coset.

    The cosets a G are built once per (n, d), and each character's values
    once per unit and n, read by every coset that holds the unit."""
    bad = 0
    for n in range(2, n_max + 1):
        g = unit_group(n)
        units = g.units()
        orders = np.array([o for _, o in g.cyclic_factors], dtype=np.int64)
        chars = all_characters(g).tolist()
        values = [{x: evaluate(g, chi, x) for x in units} for chi in chars]
        for d in (2, 3, 4):
            G = dth_power_subgroup(g, d)
            qc = quotient_characters(G)
            if len(qc) != index(G):
                bad += 1
                continue
            exps = set(map(tuple, qc.tolist()))
            if any(tuple(((e1 + e2) % orders).tolist()) not in exps for e1 in qc for e2 in qc):
                bad += 1
            cosets = [(a, coset(a, G).elements) for a in units]
            for chi, value in zip(chars, values):
                constant = all(
                    max(abs(value[x] - value[a]) for x in elements) < 1e-12
                    for a, elements in cosets
                )
                if constant != (tuple(chi) in exps):
                    bad += 1
    return bad == 0, f"n <= {n_max}, {bad} violations"


def check_growth_trend(n_max: int) -> tuple[bool, str]:
    """Block maxima of tau(n)/sqrt(n) and 4^omega(n)/sqrt(n) decline past
    their documented turnover thresholds (eps = 0.25 has no desk-scale
    threshold and is reported only)."""
    rows = growth_scan(n_max)
    bad = 0
    for stat in ("tau", "pow_omega"):
        threshold = trend_threshold(stat, 0.5)
        vals = [
            r.tau_max if stat == "tau" else r.pow_max
            for r in rows
            if r.eps == 0.5 and r.block_lo >= threshold
        ]
        if len(vals) < 2 or any(b > a for a, b in zip(vals, vals[1:])):
            bad += 1
    return bad == 0, f"doubling blocks to {n_max}, {bad} broken trends"


def check_unit_group_structure(n_max: int) -> tuple[bool, str]:
    """Cyclic decomposition: orders multiply to phi(n) and dlog is a bijection."""
    bad = 0
    for n in range(2, n_max + 1):
        g = unit_group(n)
        prod = 1
        for gen, order in g.cyclic_factors:
            prod *= order
            actual = 1
            x = gen
            while x != 1:
                x = x * gen % n
                actual += 1
                if actual > g.phi:
                    break
            if actual != order:
                bad += 1
        if prod != g.phi:
            bad += 1
        seen = set()
        for x in g.units():
            e = g.dlog(x)
            seen.add(e)
            val = 1
            for (gen, _), ei in zip(g.cyclic_factors, e):
                val = val * pow(gen, ei, n) % n
            if val != x:
                bad += 1
        if len(seen) != g.phi:
            bad += 1
    return bad == 0, f"n <= {n_max}, {bad} violations"


def check_power_lift() -> tuple[bool, str]:
    """The lifted coset count psi_count(mu q^d) against direct enumeration
    over [1, mu q^d] of the p with p mod q in the coset."""
    rng = random.Random(0x11F7)
    bad = 0
    cases = 0
    for q_max, d in ((120, 1), (60, 2), (21, 3)):
        for _ in range(40):
            q = rng.randint(2, q_max)
            g = unit_group(q)
            G = dth_power_subgroup(g, rng.randint(1, 4))
            c = coset(_random_unit(rng, q), G)
            mu = Fraction(rng.randint(1, 16), 8)
            lift = psi_count(mu * q**d, c)
            limit = math.floor(mu * q**d)
            direct = sum(1 for p in range(1, limit + 1) if p % q in c.element_set)
            cases += 1
            if lift != direct:
                bad += 1
    return bad == 0, f"{cases} cases, {bad} mismatches"


def _config(alpha=("c/k", Fraction(1, 3)), q=QSequence("integers"), **fields) -> ExperimentConfig:
    """The config over q with the alpha rule (kind, c): one sample and the
    ExperimentConfig defaults, except where fields says otherwise."""
    kind, c = alpha
    fields.setdefault("samples", 1)
    return ExperimentConfig(q_sequence=q, alpha_sequence=AlphaSequence(kind, c=c), **fields)


def _hit_test_configs() -> list[ExperimentConfig]:
    odd_primes = QSequence("explicit", values=(3, 5, 7, 11, 13, 17, 19, 23, 29))
    return [
        _config(K=30, seed=7),
        _config(("c*2^-k", Fraction(2, 5)), odd_primes, d=2, subgroup_mode="dth-powers", K=9, seed=7),
        _config(
            ("c/(k log k)", Fraction(1, 3)),
            odd_primes,
            a=2,
            subgroup_mode="generators",
            generators=(4,),
            K=9,
            seed=7,
        ),
    ]


# alpha_k per radius rule, from the constant c and k with Fraction arithmetic:
# the documented rules restated, so the hit oracle does not read prepare's
# radius terms.  c/(k log k) rounds the log to a multiple of 2^-16 and
# clamps it at 1.
_RADIUS_RULES = {
    "c/k": lambda c, k: c / k,
    "c*2^-k": lambda c, k: c / (1 << k),
    "c/(k log k)": lambda c, k: c / (k * max(1, Fraction(round(math.log(k) * 2**16), 2**16))),
}


def _coset_member(cfg: ExperimentConfig, q: int):
    """Membership in the coset a*G mod q, decided by the explicit element set
    of a residue_group coset rather than by find_hits' own predicates; mod 1
    every p is a member."""
    if q == 1:
        return lambda p: True
    G = subgroup(unit_group(q), cfg.subgroup_mode, cfg.d, cfg.generators)
    return coset(cfg.a, G).__contains__


def check_hits_brute(samples: int) -> tuple[bool, str]:
    """find_hits against a full scan of every numerator p in [0, q^d], with
    coset membership read from explicit cosets and each alpha_k re-derived
    from the config's rule.

    |x - p/Q| < alpha/Q is decided in integers, cleared of both denominators:
    |x.num Q - p x.den| alpha.den < alpha.num x.den."""
    seed = 0xD10
    rng = random.Random(seed)
    bad = 0
    cases = 0
    for cfg in _hit_test_configs():
        exp = prepare(cfg)
        members = [_coset_member(cfg, q) for q in exp.qs]
        rule, c = _RADIUS_RULES[cfg.alpha_sequence.kind], cfg.alpha_sequence.c
        alphas = [rule(c, k) for k in range(1, cfg.K + 1)]
        for i in range(samples):
            x = _sample_point(seed + i, i, 64) if rng.random() < 0.7 else Fraction(
                rng.randint(1, 999), 1000
            )
            got = {(h.k, h.p) for h in exp.find_hits(x)}
            want = set()
            for idx, (q, Q, alpha, member) in enumerate(
                zip(exp.qs, exp.moduli, alphas, members)
            ):
                top, den = x.numerator * Q, x.denominator
                scale, limit = alpha.denominator, alpha.numerator * den
                for p in range(0, Q + 1):
                    if abs(top - p * den) * scale < limit and math.gcd(p, q) == 1 and member(p):
                        want.add((idx + 1, p))
            cases += 1
            if got != want:
                bad += 1
    return bad == 0, f"{cases} sampled points, {bad} disagreements"


def check_mc_determinism() -> tuple[bool, str]:
    """Identical seed, different parallelism: byte-identical summaries."""
    cfg = _config(K=64, samples=24, seed=99, min_hits=3)
    blobs = []
    for t in (1, 1, 2):
        res = prepare(cfg).monte_carlo(threads=t)
        blobs.append(json.dumps(res.summary_dict(), sort_keys=True))
    ok = blobs[0] == blobs[1] == blobs[2]
    return ok, f"threads (1, 1, 2): {'identical' if ok else 'DIFFER'}"


def check_mc_dichotomy(K: int, samples: int) -> tuple[bool, str]:
    """Reduced Monte Carlo dichotomy: the convergent control obeys its union
    bound plus a 3 sigma margin, and a divergent config accumulates hits."""
    control = _config(("c*2^-k", Fraction(1, 4)), K=K, samples=samples, seed=123, min_hits=3)
    exp = prepare(control)
    res = exp.monte_carlo()
    ub = min(check_conditions(exp).union_bound, Fraction(1))
    margin = 3 * math.sqrt(float(ub) * max(0.0, 1 - float(ub)) / samples)
    f1 = res.fraction(1, K)
    ok_control = float(f1) <= float(ub) + margin
    # Radii of 1/(6k) keep the early hit fractions clearly below saturation,
    # so the strict growth along the ladder is observable.
    divergent = _config(("c/k", Fraction(1, 6)), K=K, samples=samples, seed=124, min_hits=3)
    res2 = prepare(divergent).monte_carlo()
    ladder = res2.k_ladder
    ok_mono = all(
        res2.counts[m][ladder[i]] <= res2.counts[m][ladder[i + 1]]
        for m in res2.m_values
        for i in range(len(ladder) - 1)
    )
    ok_strict = all(res2.counts[m][ladder[-1]] > res2.counts[m][ladder[0]] for m in (1, 3))
    ok = ok_control and ok_mono and ok_strict
    return ok, (
        f"control F(1,K)={float(f1):.3f} vs bound {float(ub):.3f}+{margin:.3f}; "
        f"divergent monotone={ok_mono}, strict={ok_strict}"
    )


def check_conditions_reduction() -> tuple[bool, str]:
    """With the full unit group the density ratio reduces to the classical
    totient-weighted form, prefix by prefix."""
    rep = check_conditions(prepare(_config(K=200, seed=1)))
    a_sum = Fraction(0)
    w_sum = Fraction(0)
    k = 0
    for cp, ratio in zip(rep.checkpoints, rep.c_ratio):
        while k < cp:
            k += 1
            alpha = Fraction(1, 3) / k
            a_sum += alpha
            w_sum += alpha * Fraction(euler_phi(factor(k)), k)
        if ratio != w_sum / a_sum:
            return False, f"ratio mismatch at prefix {cp}"
    return True, f"{len(rep.checkpoints)} checkpoints agree"


def _on_sampled_tuples(check):
    """check run on sample_count_tuples(count, n_max) under the suite's seed."""
    return lambda count, n_max: check(sample_count_tuples(count, n_max, 0xC0DE))


# name -> (check, quick-scale arguments, full-scale arguments)
_CHECKS = {
    "formula_oracle": (check_formula_oracle, (400, 6), (5000, 6)),
    "subgroup_consistency": (check_subgroup_consistency, (150, 6), (2000, 6)),
    "sieve_identity": (check_sieve_identity, (150, 20), (2000, 40)),
    "character_axioms": (check_character_axioms, (80,), (500,)),
    "polya_vinogradov": (check_polya_vinogradov, (120,), (1000,)),
    "counting_identity": (_on_sampled_tuples(check_counting_identity), (40, 300), (200, 2000)),
    "equidistribution_bound": (
        _on_sampled_tuples(check_equidistribution_bound), (40, 300), (200, 2000)
    ),
    "overlap_theta": (check_overlap_theta, (150,), (1000,)),
    "unit_group_structure": (check_unit_group_structure, (48,), (64,)),
    "coset_partition": (check_coset_partition, (24,), (40,)),
    "quotient_characters": (check_quotient_characters, (20,), (30,)),
    "growth_trend": (check_growth_trend, (2**17,), (2**18,)),
    "power_lift": (check_power_lift, (), ()),
    "hit_finding": (check_hits_brute, (10,), (25,)),
    "conditions_reduction": (check_conditions_reduction, (), ()),
    "mc_determinism": (check_mc_determinism, (), ()),
    "mc_dichotomy": (check_mc_dichotomy, (300, 50), (2000, 150)),
}


def run_suite(quick: bool = False) -> list[CheckResult]:
    """Run every invariant check at the requested scale."""
    results = []
    for name, (fn, quick_args, full_args) in _CHECKS.items():
        start = time.monotonic()
        try:
            ok, detail = fn(*(quick_args if quick else full_args))
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"exception: {exc!r}"
        results.append(CheckResult(name, ok, detail, time.monotonic() - start))
    return results
