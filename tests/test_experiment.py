"""Experiment configs, hit finding against brute scans, conditions, and the
deterministic Monte Carlo harness."""

import itertools
import json
import math
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetapprox import arith, experiment
from cosetapprox.arith import euler_phi, factor, primes_up_to, r_d
from cosetapprox.experiment import (
    SUBGROUP_MODES,
    AlphaSequence,
    ExperimentConfig,
    QSequence,
    _sample_point,
    abel_condition_check,
    check_conditions,
    exact_str,
    prepare,
)
from cosetapprox.residue_group import coset, dth_power_subgroup, unit_group

from helpers import exact_fraction

F = Fraction


def small_cfg(**kw):
    base = dict(
        q_sequence=QSequence("integers"),
        alpha_sequence=AlphaSequence("c/k", c=F(1, 3)),
        d=1,
        a=1,
        subgroup_mode="full",
        K=25,
        samples=4,
        seed=5,
        min_hits=3,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_round_trip(self):
        cfg = small_cfg(
            q_sequence=QSequence("explicit", values=(3, 5, 7)),
            alpha_sequence=AlphaSequence("explicit", values=(F(1, 3), F(1, 4), F(1, 5))),
            K=3,
        )
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_bad_kinds_rejected(self):
        with pytest.raises(ValueError):
            QSequence("fibonacci")
        with pytest.raises(ValueError):
            QSequence("explicit")
        with pytest.raises(ValueError):
            AlphaSequence("c/k")  # missing constant
        with pytest.raises(ValueError):
            AlphaSequence("c/k", c=F(-1, 3))

    def test_from_dict_names_missing_field(self):
        with pytest.raises(ValueError, match="q_sequence"):
            ExperimentConfig.from_dict({"schema_version": 1})

    def test_from_dict_omitted_optionals_take_the_defaults(self):
        data = small_cfg().to_dict()
        for key in ("generators", "precision_bits", "min_hits"):
            del data[key]
        expected = ExperimentConfig(
            q_sequence=QSequence("integers"),
            alpha_sequence=AlphaSequence("c/k", c=F(1, 3)),
            d=1,
            a=1,
            subgroup_mode="full",
            K=25,
            samples=4,
            seed=5,
        )
        assert ExperimentConfig.from_dict(data) == expected

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"generators": 5}, "config field 'generators' must be a list, got 5"),
            ({"generators": [2.0]}, "config field 'generators' must be an integer, got 2.0"),
            ({"precision_bits": True}, "config field 'precision_bits' must be an integer, got True"),
            ({"min_hits": "5"}, "config field 'min_hits' must be an integer, got '5'"),
            ({"precision_bits": 4}, "precision_bits must be at least 8"),
            ({"min_hits": 0}, "min_hits must be at least 1"),
            ({"K": None}, "config field 'K' is missing"),
            ({"seed": None}, "config field 'seed' is missing"),
            # fields are read in declaration order, so the first bad one is named
            ({"generators": 5, "K": None}, "config field 'generators' must be a list, got 5"),
            ({"precision_bits": 1.5, "seed": None}, "config field 'precision_bits' must be an integer, got 1.5"),
            ({"seed": None, "min_hits": 1.5}, "config field 'seed' is missing"),
        ],
    )
    def test_from_dict_messages(self, changes, message):
        data = small_cfg().to_dict()
        for key, value in changes.items():
            if value is None:
                del data[key]
            else:
                data[key] = value
        with pytest.raises(ValueError) as info:
            ExperimentConfig.from_dict(data)
        assert str(info.value) == message

    def test_mode_needs_generators(self):
        with pytest.raises(ValueError):
            small_cfg(subgroup_mode="generators")


class TestMaterialization:
    def test_integers_and_primes(self):
        exp = prepare(small_cfg(K=6))
        assert exp.qs == (1, 2, 3, 4, 5, 6)
        exp = prepare(small_cfg(q_sequence=QSequence("primes"), K=6))
        assert exp.qs == (2, 3, 5, 7, 11, 13)

    def test_primes_coprime_to_a(self):
        cfg = small_cfg(q_sequence=QSequence("primes-coprime-to-a"), a=6, K=5)
        assert prepare(cfg).qs == (5, 7, 11, 13, 17)

    def test_explicit_must_increase(self):
        cfg = small_cfg(q_sequence=QSequence("explicit", values=(3, 3, 5)), K=3)
        with pytest.raises(ValueError):
            prepare(cfg)

    def test_alpha_rules_exact(self):
        exp = prepare(small_cfg(K=4))
        assert exp.alphas == (F(1, 3), F(1, 6), F(1, 9), F(1, 12))
        exp = prepare(small_cfg(alpha_sequence=AlphaSequence("c*2^-k", c=F(1, 4)), K=3))
        assert exp.alphas == (F(1, 8), F(1, 16), F(1, 32))
        exp = prepare(small_cfg(alpha_sequence=AlphaSequence("c/(k log k)", c=F(1, 3)), K=3))
        assert all(0 < a < F(1, 2) for a in exp.alphas)
        assert exp.alphas[0] == F(1, 3)  # log clamp keeps k = 1 defined

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            prepare(small_cfg(alpha_sequence=AlphaSequence("c/k", c=F(1, 2))))

    @pytest.mark.parametrize(
        "alpha",
        [AlphaSequence("explicit", values=(0.25, 0.2, 0.1)), AlphaSequence("c/k", c=0.25)],
        ids=["explicit", "c/k"],
    )
    def test_float_radii_rejected(self, alpha):
        # radii stay exact rationals: a float is refused, not carried into the sums
        with pytest.raises(TypeError):
            prepare(small_cfg(alpha_sequence=alpha, K=3))

    def test_coset_representative_must_be_unit(self):
        with pytest.raises(ValueError):
            prepare(small_cfg(a=2, K=4))  # q = 2 shares a factor with a

    def test_generator_coprimality_enforced(self):
        cfg = small_cfg(
            q_sequence=QSequence("explicit", values=(3, 5, 7)),
            subgroup_mode="generators",
            generators=(5,),
            K=3,
        )
        with pytest.raises(ValueError):
            prepare(cfg)


class TestFindHits:
    def test_example_hit(self):
        cfg = small_cfg(
            q_sequence=QSequence("explicit", values=(5,)),
            alpha_sequence=AlphaSequence("explicit", values=(F(2, 5),)),
            K=1,
            samples=1,
        )
        hits = prepare(cfg).find_hits(F(1, 3))
        assert len(hits) == 1
        h = hits[0]
        assert (h.k, h.q, h.p) == (1, 5, 2)
        assert h.error == F(1, 15)
        assert h.error < F(2, 5) / 5

    def test_example_no_hit(self):
        cfg = small_cfg(
            q_sequence=QSequence("explicit", values=(5,)),
            alpha_sequence=AlphaSequence("explicit", values=(F(1, 100),)),
            K=1,
            samples=1,
        )
        assert prepare(cfg).find_hits(F(1, 3)) == []

    def test_exact_center_has_zero_error(self):
        cfg = small_cfg(
            q_sequence=QSequence("explicit", values=(5,)),
            alpha_sequence=AlphaSequence("explicit", values=(F(1, 100),)),
            K=1,
            samples=1,
        )
        hits = prepare(cfg).find_hits(F(2, 5))
        assert len(hits) == 1 and hits[0].error == 0 and hits[0].p == 2

    def test_out_of_range_sample_rejected(self):
        exp = prepare(small_cfg())
        with pytest.raises(ValueError):
            exp.find_hits(F(3, 2))
        # only exact rationals: no float, string or bool is coerced
        for x in (0.3, "1/3", True):
            with pytest.raises(TypeError):
                exp.find_hits(x)

    def test_at_most_one_hit_per_index(self):
        exp = prepare(small_cfg(K=40))
        for i in range(20):
            hits = exp.find_hits(_sample_point(3, i, 64))
            assert len({h.k for h in hits}) == len(hits)

    def test_hits_revalidate_cross_module(self):
        # coset membership is re-checked through the explicit subgroup object
        cfg = small_cfg(
            q_sequence=QSequence("explicit", values=tuple(p for p in primes_up_to(60) if p > 2)),
            alpha_sequence=AlphaSequence("c/k", c=F(2, 5)),
            d=2,
            a=1,
            subgroup_mode="dth-powers",
            K=16,
            samples=1,
        )
        exp = prepare(cfg)
        found = 0
        for i in range(40):
            x = _sample_point(17, i, 96)
            for h in exp.find_hits(x):
                found += 1
                k = h.k - 1
                q, alpha = exp.qs[k], exp.alphas[k]
                assert abs(x - F(h.p, q**2)) == h.error < alpha / q**2
                assert math.gcd(h.p, q) == 1
                G = dth_power_subgroup(unit_group(q), 2)
                assert h.p in coset(1, G)
        assert found > 0

    def test_brute_scan_agreement(self):
        from cosetapprox.verify import check_hits_brute

        ok, detail = check_hits_brute(samples=8)
        assert ok, detail


def reference_hits(exp, x):
    """The exact three-candidate test over every index, with no screen."""
    xn, xd = x.numerator, x.denominator
    hits = []
    for i, (q, Q, alpha, member) in enumerate(zip(exp.qs, exp.moduli, exp.alphas, exp._members)):
        m, delta = divmod(xn * Q, xd)
        for p, dist in ((m, delta), (m + 1, xd - delta), (m - 1, xd + delta)):
            if F(dist, xd) < alpha and math.gcd(p, q) == 1 and member(p % q):
                hits.append((i + 1, q, p, F(dist, xd * Q)))
                break
    return hits


def screened_hits(exp, x):
    return [(h.k, h.q, h.p, h.error) for h in exp.find_hits(x)]


def explicit_cfg(qs, alphas, **kw):
    return small_cfg(
        q_sequence=QSequence("explicit", values=tuple(qs)),
        alpha_sequence=AlphaSequence("explicit", values=tuple(alphas)),
        K=len(qs),
        **kw,
    )


def boundary_points(exp, bits):
    """Points x with x Q_k - p = +alpha_k or -alpha_k exactly, for a few
    coprime numerators p per index, and their neighbours one unit of 2^-128
    and one unit of 2^-bits away on either side (for a boundary that is not
    on the 2^-bits grid: the grid points around it and their neighbours)."""
    grid = F(1, 1 << bits)
    tiny = F(1, 1 << 128)
    pts = set()
    for q, Q, alpha, member in zip(exp.qs, exp.moduli, exp.alphas, exp._members):
        for start in (1, Q // 2, Q - 1):
            p = next(
                (p for p in range(max(start, 1), Q) if math.gcd(p, q) == 1 and member(p % q)), None
            )
            if p is None:
                continue
            for x0 in (F(p, Q) + alpha / Q, F(p, Q) - alpha / Q):
                lo = math.floor(x0 / grid) * grid
                for base in {x0, lo, lo + grid}:
                    pts.update((base, base - tiny, base + tiny, base - grid, base + grid))
    return sorted(x for x in pts if 0 < x < 1)


BOUNDARY_CONFIGS = {
    # x Q - p = +-alpha lands on a short dyadic grid
    "dyadic": explicit_cfg((2, 4, 8, 16), (F(1, 4), F(1, 8), F(3, 16), F(5, 16))),
    # alpha not representable in binary; x = (p + alpha)/Q is not dyadic
    "thirds": explicit_cfg((3, 5, 7, 11, 13), (F(1, 3), F(2, 5), F(1, 7), F(4, 11), F(1, 13)), d=2),
    # boundaries of the form r/1000
    "decimal": explicit_cfg((10, 100, 1000), (F(3, 10), F(1, 100), F(7, 1000))),
    # alpha far below float resolution, or rounding to 0.0: only the margin keeps x = p/Q
    "underflow": explicit_cfg((2, 4, 8), (F(1, 1 << 60), F(1, 1 << 1100), F(3, 1 << 1200))),
    # q = 1 first: the trivial group, with pow(a, -1, 1) = 0 and closure {0}
    "one-dth-powers": explicit_cfg(
        (1, 3, 5, 7, 9), (F(1, 3), F(1, 4), F(2, 5), F(1, 7), F(1, 3)),
        d=2, a=2, subgroup_mode="dth-powers",
    ),
    "one-generators": explicit_cfg(
        (1, 5, 7, 9, 11), (F(1, 5), F(1, 3), F(2, 7), F(1, 9), F(3, 11)),
        a=2, subgroup_mode="generators", generators=(4,),
    ),
    # Q = q^d at and above 2^53: those indices skip the float screen
    "large-q": explicit_cfg(
        (3, (1 << 26) + 1, (1 << 27) - 1, (1 << 27) + 1, 3**40), (F(1, 3),) * 5, d=2
    ),
}


class TestHitScreen:
    @pytest.mark.parametrize("bits", [8, 64, 128, 200])
    @pytest.mark.parametrize("name", sorted(BOUNDARY_CONFIGS))
    def test_boundary_points_match_reference(self, name, bits):
        exp = prepare(BOUNDARY_CONFIGS[name])
        points = boundary_points(exp, bits)
        hit_count = 0
        for x in points:
            want = reference_hits(exp, x)
            assert screened_hits(exp, x) == want, x
            hit_count += bool(want)
        # both sides of the boundaries occur
        assert 0 < hit_count < len(points)
        for i in range(50):
            x = _sample_point(7, i, bits)
            assert screened_hits(exp, x) == reference_hits(exp, x)

    def test_large_moduli_take_the_unscreened_path(self):
        exp = prepare(BOUNDARY_CONFIGS["large-q"])
        assert exp._unscreened.tolist() == [Q >= 1 << 53 for Q in exp.moduli]
        assert exp._unscreened.tolist() == [False, False, True, True, True]

    @pytest.mark.parametrize("name", ["one-dth-powers", "one-generators", None])
    def test_modulus_one_is_trivial(self, name):
        # mod 1 every p is a unit and in the coset: k = 1 hits iff ||x|| < alpha_1
        exp = prepare(BOUNDARY_CONFIGS[name] if name else small_cfg(K=6))
        assert exp.qs[0] == 1 and exp.orders[0] == 1
        alpha = exp.alphas[0]
        for i in range(40):
            x = _sample_point(23, i, 64)
            assert any(h.k == 1 for h in exp.find_hits(x)) == (min(x, 1 - x) < alpha)

    def test_exact_centre_survives_underflowing_radius(self):
        exp = prepare(BOUNDARY_CONFIGS["underflow"])
        assert float(exp.alphas[1]) == 0.0
        assert [h.k for h in exp.find_hits(F(1, 4))] == [2]  # distance 0 < alpha = 2^-1100

    @pytest.mark.parametrize("name", sorted(BOUNDARY_CONFIGS))
    def test_screen_keeps_every_hit_and_prunes_the_rest(self, name):
        # survivors lie between {||x Q|| < alpha} and {||x Q|| < alpha + 2^-47}
        exp = prepare(BOUNDARY_CONFIGS[name])
        slack = F(1, 1 << 47)
        for x in boundary_points(exp, 64):
            kept = set(exp._screen(x.numerator, x.denominator).tolist())
            for i, (Q, alpha) in enumerate(zip(exp.moduli, exp.alphas)):
                r = x * Q - math.floor(x * Q)
                dist = min(r, 1 - r)
                if dist < alpha or exp._unscreened[i]:
                    assert i in kept, (x, i)
                elif dist >= alpha + slack:
                    assert i not in kept, (x, i)

    def test_screen_prunes_a_fixture_sized_run(self):
        exp = prepare(small_cfg(alpha_sequence=AlphaSequence("c*2^-k", c=F(1, 4)), K=2000))
        kept = sum(len(exp._screen(x.numerator, x.denominator)) for x in (
            _sample_point(11, i, 128) for i in range(20)
        ))
        assert kept < 20 * 2000 // 100


@st.composite
def hit_problems(draw):
    d = draw(st.integers(1, 3))
    mode = draw(st.sampled_from(SUBGROUP_MODES))
    qs = sorted(draw(st.sets(st.integers(1, 250), min_size=1, max_size=12)))
    # primes above 250 are units modulo every q
    a = draw(st.sampled_from((1, 257, 263)))
    gens = tuple(draw(st.lists(st.sampled_from((257, 263, 269, 271)), min_size=1, max_size=2)))
    alphas = draw(
        st.lists(
            st.one_of(
                st.fractions(min_value=F(1, 10**6), max_value=F(1, 2), max_denominator=10**6),
                st.integers(40, 1200).map(lambda e: F(1, 1 << e)),
            ).filter(lambda v: 0 < v < F(1, 2)),
            min_size=len(qs),
            max_size=len(qs),
        )
    )
    cfg = explicit_cfg(
        qs, alphas, d=d, a=a, subgroup_mode=mode,
        generators=gens if mode == "generators" else (),
    )
    exp = prepare(cfg)
    if draw(st.booleans()):
        x = draw(st.fractions(min_value=0, max_value=1, max_denominator=1 << 200))
    else:
        k = draw(st.integers(0, len(qs) - 1))
        Q, alpha = exp.moduli[k], exp.alphas[k]
        p = draw(st.integers(0, Q))
        shift = draw(st.sampled_from((-1, 0, 1))) * F(1, 1 << draw(st.integers(1, 260)))
        x = F(p, Q) + draw(st.sampled_from((-1, 1))) * alpha / Q + shift
    return exp, x


@settings(max_examples=300, deadline=None)
@given(hit_problems())
def test_screened_hits_equal_exact_reference(problem):
    exp, x = problem
    if not 0 < x < 1:
        return
    assert screened_hits(exp, x) == reference_hits(exp, x)


class TestSampling:
    def test_sample_point_deterministic_and_in_range(self):
        for i in range(50):
            x = _sample_point(42, i, 128)
            assert x == _sample_point(42, i, 128)
            assert 0 < x < 1
            assert (1 << 128) % x.denominator == 0

    def test_large_precision(self):
        x = _sample_point(1, 0, 512)
        assert 0 < x < 1 and (1 << 512) % x.denominator == 0

    def test_distinct_across_indices(self):
        xs = {_sample_point(42, i, 128) for i in range(200)}
        assert len(xs) == 200


class TestMonteCarlo:
    def test_seed_determinism(self):
        cfg = small_cfg(K=50, samples=12)
        r1 = prepare(cfg).monte_carlo()
        r2 = prepare(cfg).monte_carlo()
        assert json.dumps(r1.summary_dict(), sort_keys=True) == json.dumps(
            r2.summary_dict(), sort_keys=True
        )
        r3 = prepare(small_cfg(K=50, samples=12, seed=6)).monte_carlo()
        assert r1.summary_dict()["F"] != r3.summary_dict()["F"]

    def test_thread_invariance(self):
        cfg = small_cfg(K=50, samples=10)
        r1 = prepare(cfg).monte_carlo(threads=1)
        r2 = prepare(cfg).monte_carlo(threads=3)
        assert r1.summary_dict() == r2.summary_dict()

    @pytest.mark.parametrize(
        "threads, samples, cpus, workers",
        [(10**6, 12, 2, 2), (3, 12, 8, 3), (10**6, 5, 64, 5), (8, 12, None, 1), (1, 12, 8, 1)],
    )
    def test_pool_size_is_capped(self, monkeypatch, threads, samples, cpus, workers):
        # a stand-in pool that records its size and maps in this process, after
        # the pickle round trip a process pool puts its work items through
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                fn, iterables = pickle.loads(pickle.dumps((fn, iterables)))
                return map(fn, *iterables)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(experiment.os, "cpu_count", lambda: cpus)
        cfg = small_cfg(K=50, samples=samples)
        got = prepare(cfg).monte_carlo(threads=threads)
        assert sizes == ([workers] if workers > 1 else [])
        serial = prepare(cfg).monte_carlo(threads=1)
        assert json.dumps(got.summary_dict(), sort_keys=True) == json.dumps(
            serial.summary_dict(), sort_keys=True
        )

    @pytest.mark.parametrize("threads", [0, -3, True, 1.5, "2"])
    def test_threads_must_be_a_positive_int(self, monkeypatch, threads):
        def refuse(max_workers):
            raise AssertionError("a rejected thread count must start no pool")

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(experiment.os, "cpu_count", lambda: 2)
        exp = prepare(small_cfg(K=50, samples=4))
        with pytest.raises(ValueError, match="threads must be an int >= 1"):
            exp.monte_carlo(threads=threads)

    def test_pool_workers_do_not_prepare(self, monkeypatch):
        exp = prepare(small_cfg(K=50, samples=12))
        serial = exp.monte_carlo()
        sizes = []

        class CountingPool(experiment.ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        def refuse(cfg):
            raise AssertionError("monte_carlo must reuse the prepared experiment")

        # forked workers inherit the patch, so a prepare there fails too
        monkeypatch.setattr(experiment, "prepare", refuse)
        monkeypatch.setattr(experiment, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(experiment.os, "cpu_count", lambda: 2)
        pooled = exp.monte_carlo(threads=2)
        assert sizes == [2]
        assert pooled.per_sample_hits == serial.per_sample_hits

    @pytest.mark.parametrize("mode", SUBGROUP_MODES)
    def test_prepared_experiment_pickles(self, mode):
        # a = 7 and the generator 7 are units modulo every prime but 7
        cfg = small_cfg(
            q_sequence=QSequence("primes-coprime-to-a"),
            d=2,
            a=7,
            subgroup_mode=mode,
            generators=(7,) if mode == "generators" else (),
            K=40,
        )
        exp = prepare(cfg)
        copy = pickle.loads(pickle.dumps(exp))
        assert (copy.qs, copy.alphas, copy.orders, copy.phis) == (
            exp.qs, exp.alphas, exp.orders, exp.phis
        )
        found = 0
        for i in range(40):
            x = _sample_point(19, i, 128)
            hits = exp.find_hits(x)
            assert copy.find_hits(x) == hits
            found += len(hits)
        assert found > 0

    def test_fraction_table_shape_and_monotonicity(self):
        cfg = small_cfg(K=500, samples=30, min_hits=4)
        res = prepare(cfg).monte_carlo()
        assert res.k_ladder == (100, 500)
        for m in res.m_values:
            assert res.counts[m][100] <= res.counts[m][500]
        for kp in res.k_ladder:
            for m1, m2 in zip(res.m_values, res.m_values[1:]):
                assert res.counts[m2][kp] <= res.counts[m1][kp]

    def test_convergent_control_union_bound(self):
        cfg = small_cfg(
            alpha_sequence=AlphaSequence("c*2^-k", c=F(1, 4)),
            K=300,
            samples=80,
            seed=2024,
        )
        exp = prepare(cfg)
        ub = check_conditions(exp).union_bound
        assert ub == sum(2 * a * F(o, q) for a, o, q in zip(exp.alphas, exp.orders, exp.qs))
        res = exp.monte_carlo()
        sigma = math.sqrt(float(ub) * (1 - float(ub)) / cfg.samples)
        assert float(res.fraction(1, cfg.K)) <= float(ub) + 3 * sigma


class TestConditions:
    def test_duffin_schaeffer_reduction(self):
        from cosetapprox.verify import check_conditions_reduction

        ok, detail = check_conditions_reduction()
        assert ok, detail

    def test_d2_prime_densities(self):
        ps = tuple(p for p in primes_up_to(200) if p > 2)
        cfg = small_cfg(
            q_sequence=QSequence("explicit", values=ps),
            d=2,
            subgroup_mode="dth-powers",
            K=len(ps),
        )
        exp = prepare(cfg)
        for q, order in zip(exp.qs, exp.orders):
            assert F(order, q) == F(q - 1, 2 * q)

    def test_convergent_partial_sums_stay_below_one(self):
        cfg = small_cfg(alpha_sequence=AlphaSequence("c*2^-k", c=F(1, 4)), K=64)
        rep = check_conditions(prepare(cfg))
        assert all(s < 1 for s in rep.partial_sum_alpha)

    def test_cond_c_decreasing_for_primes(self):
        cfg = small_cfg(q_sequence=QSequence("primes"), K=300)
        rep = check_conditions(prepare(cfg), epsilon=0.05)
        assert rep.cond_c_decreasing

    def test_checkpoint_grid_small_k_is_dense(self):
        rep = check_conditions(prepare(small_cfg(K=30)))
        assert rep.checkpoints == tuple(range(1, 31))
        assert len(rep.partial_sum_alpha) == 30


def _abel(exp):
    return abel_condition_check(exp, check_conditions(exp))


class TestAbel:
    def test_rejects_increasing_alpha(self):
        cfg = small_cfg(
            alpha_sequence=AlphaSequence("explicit", values=(F(1, 8), F(1, 4), F(1, 3))),
            K=3,
        )
        with pytest.raises(ValueError):
            _abel(prepare(cfg))

    def test_constant_density_case(self):
        # all q prime: |G|/q = (q-1)/q bounded below, both sides immediate
        cfg = small_cfg(q_sequence=QSequence("primes"), K=100)
        rep = _abel(prepare(cfg))
        assert rep.implication_holds
        assert rep.c_star == F(1, 2)  # prefix n = 1: q = 2, density 1/2

    def test_d2_prime_config(self):
        ps = tuple(p for p in primes_up_to(400) if p > 2)
        cfg = small_cfg(
            q_sequence=QSequence("explicit", values=ps),
            d=2,
            subgroup_mode="dth-powers",
            K=len(ps),
        )
        rep = _abel(prepare(cfg))
        assert rep.implication_holds
        assert rep.c_star == F(1, 3)  # prefix n = 1: density (3-1)/6

    def test_constant_alpha_reduces_to_density_bound(self):
        cfg = small_cfg(
            alpha_sequence=AlphaSequence("explicit", values=(F(1, 5),) * 50),
            K=50,
        )
        exp = prepare(cfg)
        cond = check_conditions(exp)
        rep = abel_condition_check(exp, cond)
        assert rep.implication_holds
        # with constant alpha the weighted condition is the density bound itself
        assert cond.weighted_sum[-1] == F(1, 5) * rep.density_partial[-1]


def _abel_reference(exp, c_star):
    """The all-prefix walk: weighted sums and radius sums at the checkpoints,
    and whether the weighted bound with c_star holds at every prefix."""
    cps = set(experiment._checkpoints(exp.config.K))
    a_sum = w_sum = F(0)
    lhs, alpha_sums, holds = [], [], True
    for n, (q, alpha, order) in enumerate(zip(exp.qs, exp.alphas, exp.orders), start=1):
        a_sum += alpha
        w_sum += alpha * F(order, q)
        holds = holds and w_sum >= c_star * a_sum
        if n in cps:
            lhs.append(w_sum)
            alpha_sums.append(a_sum)
    return tuple(lhs), tuple(alpha_sums), holds


@pytest.mark.parametrize(
    "kw",
    [
        dict(q_sequence=QSequence("primes"), K=100),
        dict(alpha_sequence=AlphaSequence("c*2^-k", c=F(1, 4)), K=64),
        dict(alpha_sequence=AlphaSequence("c/(k log k)", c=F(1, 3)), K=1100),
        dict(
            q_sequence=QSequence("explicit", values=tuple(p for p in primes_up_to(300) if p > 2)),
            d=2,
            subgroup_mode="dth-powers",
            K=61,
        ),
        dict(
            q_sequence=QSequence("explicit", values=tuple(p for p in primes_up_to(400) if p > 3)),
            a=3,
            subgroup_mode="generators",
            generators=(2,),
            K=76,
        ),
    ],
)
def test_abel_matches_all_prefix_reference(kw):
    exp = prepare(small_cfg(**kw))
    cond = check_conditions(exp)
    rep = abel_condition_check(exp, cond)
    lhs, alpha_sums, holds = _abel_reference(exp, rep.c_star)
    assert len(rep.density_partial) == len(experiment._checkpoints(exp.config.K))
    assert cond.weighted_sum == lhs
    assert cond.partial_sum_alpha == alpha_sums
    assert rep.implication_holds == holds


def test_abel_reads_the_callers_report(monkeypatch):
    # The Abel check takes the weighted side from the report it is handed and
    # runs no second conditions pass of its own.
    exp = prepare(small_cfg(alpha_sequence=AlphaSequence("c/(k log k)", c=F(1, 3)), K=1100))
    cond = check_conditions(exp)

    def no_second_pass(*args, **kwargs):
        raise AssertionError("abel_condition_check ran check_conditions")

    monkeypatch.setattr(experiment, "check_conditions", no_second_pass)
    rep = abel_condition_check(exp, cond)
    s_rows = itertools.accumulate(F(o, q) for q, o in zip(exp.qs, exp.orders))
    c_star = min(s / n for n, s in enumerate(s_rows, start=1))
    assert rep.c_star == c_star
    assert rep.implication_holds == _abel_reference(exp, c_star)[2]


# Sparse checkpoint grids (K > 1024) whose prefix minima fall between
# checkpoints: the ratio minimum of the first config is at n = 810, where the
# even moduli give way to primes, and its density minimum at n = 651; the
# density minimum of the integers is at n = 820.
_EVENS_THEN_PRIMES = tuple(range(2, 1621, 2)) + tuple(
    p for p in primes_up_to(4000) if p > 1620
)[:290]


@pytest.mark.parametrize(
    "kw, off_grid",
    [
        (
            dict(
                q_sequence=QSequence("explicit", values=_EVENS_THEN_PRIMES),
                alpha_sequence=AlphaSequence("c/k", c=F(1, 4)),
                K=1100,
            ),
            ("ratio", "density"),
        ),
        (dict(K=1100), ("density",)),
    ],
)
def test_prefix_minima_match_all_prefix_reference(kw, off_grid):
    exp = prepare(small_cfg(**kw))
    cond = check_conditions(exp)
    abel = abel_condition_check(exp, cond)
    a_sum = w_sum = s_sum = F(0)
    series = {"ratio": [], "density": []}
    for n, (q, alpha, order) in enumerate(zip(exp.qs, exp.alphas, exp.orders), start=1):
        a_sum += alpha
        w_sum += alpha * F(order, q)
        s_sum += F(order, q)
        series["ratio"].append(w_sum / a_sum)
        series["density"].append(s_sum / n)
    assert cond.c_ratio_min == min(series["ratio"])
    assert abel.c_star == min(series["density"])
    for name in off_grid:
        values = series[name]
        argmin = values.index(min(values)) + 1
        assert argmin not in cond.checkpoints, (name, argmin)


def _prefix_ratio_reference(dens, nums, cps):
    """The plain Fraction walk that the integer pass replaced: D_n, N_n and
    N_n / D_n at the checkpoints, and the minimum of N_n / D_n over every
    prefix."""
    cps = set(cps)
    d_sum = n_sum = F(0)
    ratio_min = None
    rows = []
    for n, (den, num) in enumerate(zip(dens, nums), start=1):
        d_sum += den
        n_sum += num
        ratio = n_sum / d_sum
        if ratio_min is None or ratio < ratio_min:
            ratio_min = ratio
        if n in cps:
            rows.append((d_sum, n_sum, ratio))
    d_rows, n_rows, ratio_rows = zip(*rows)
    return d_rows, n_rows, ratio_rows, ratio_min


def _assert_conditions_match_reference(exp):
    """check_conditions, and abel_condition_check when the radii allow it,
    against the Fraction walk; returns the conditions report."""
    weighted = [a * F(o, q) for q, a, o in zip(exp.qs, exp.alphas, exp.orders)]
    cps = experiment._checkpoints(exp.config.K)
    d_rows, n_rows, ratio_rows, ratio_min = _prefix_ratio_reference(exp.alphas, weighted, cps)
    rep = check_conditions(exp)
    assert not {"partial_sum_alpha", "weighted_sum", "c_ratio"} & set(vars(rep))  # rows are lazy
    assert rep.checkpoints == cps
    assert rep.c_ratio_min == ratio_min
    assert rep.c_ratio_final == ratio_rows[-1]
    assert rep.partial_sum_alpha_final == d_rows[-1]
    assert rep.weighted_sum_final == n_rows[-1]
    assert rep.partial_sum_alpha == d_rows
    assert rep.weighted_sum == n_rows
    assert rep.c_ratio == ratio_rows
    assert all(type(x) is F for x in rep.c_ratio + rep.weighted_sum + rep.partial_sum_alpha)
    assert rep.float_decisions + rep.exact_fallbacks == exp.config.K - 1
    if all(b <= a for a, b in zip(exp.alphas, exp.alphas[1:])):
        densities = [F(o, q) for q, o in zip(exp.qs, exp.orders)]
        _, s_rows, _, c_star = _prefix_ratio_reference([1] * exp.config.K, densities, cps)
        abel = abel_condition_check(exp, rep)
        assert abel.c_star == c_star
        assert abel.density_partial == s_rows
    return rep


@pytest.mark.parametrize(
    "alpha",
    [AlphaSequence("c/k", c=F(1, 3)), AlphaSequence("c*2^-k", c=F(1, 4))],
    ids=["c/k", "c*2^-k"],
)
def test_exact_ties_take_the_integer_fallback(alpha):
    # q = 2^k with the full group: every density is 1/2, so every prefix
    # ratio is 1/2 and every comparison is an exact tie, which equal
    # doubles cannot decide.
    K = 200
    qs = tuple(2**k for k in range(1, K + 1))
    cfg = small_cfg(q_sequence=QSequence("explicit", values=qs), alpha_sequence=alpha, K=K)
    rep = _assert_conditions_match_reference(prepare(cfg))
    assert rep.c_ratio_min == F(1, 2)
    assert rep.exact_fallbacks == K - 1 and rep.float_decisions == 0


@pytest.mark.parametrize("sign", [1, -1], ids=["ratio-stays", "ratio-falls"])
def test_near_ties_take_the_integer_fallback(sign):
    # Densities 4/5 (q = 5), 1/2 (q = 8), then 2/3 (q = 3^b).  With
    # alpha_2 / alpha_1 = 4/5 exactly, r_2 would be 2/3; the 2^-58 nudge puts
    # r_2 about 2^-60 below 2/3 (sign 1) or above it (sign -1).  Every later
    # mediant is 2/3, within 2^-60 of the running minimum: past double
    # resolution, so each step from n = 3 on needs the integers.  With
    # sign -1 the ratio falls at every step, so the minimum is the last one.
    K = 40
    qs = (5, 8) + tuple(3**b for b in range(2, K))
    alphas = (F(1, 4), F(1, 5) + sign * F(1, 2**58)) + tuple(F(1, 4 * k) for k in range(3, K + 1))
    cfg = small_cfg(q_sequence=QSequence("explicit", values=qs),
                    alpha_sequence=AlphaSequence("explicit", values=alphas), K=K)
    rep = _assert_conditions_match_reference(prepare(cfg))
    assert 0 < abs(rep.c_ratio[1] - F(2, 3)) < F(1, 2**59)
    assert rep.c_ratio_min == (rep.c_ratio[1] if sign == 1 else rep.c_ratio[-1])
    assert rep.exact_fallbacks == K - 2 and rep.float_decisions == 1


@st.composite
def conditions_configs(draw):
    """Configs over every subgroup mode and radius rule, with K both below
    and past 1024, where the checkpoint grid turns sparse and the prefix
    minima can fall between its points."""
    K = draw(st.one_of(st.integers(1, 60), st.integers(1025, 1300)))
    mode = draw(st.sampled_from(SUBGROUP_MODES))
    q_kind = draw(st.sampled_from(["integers", "primes"]))
    kw = dict(subgroup_mode=mode, q_sequence=QSequence(q_kind))
    if mode == "dth-powers":
        kw["d"] = draw(st.integers(1, 3))
    elif mode == "generators":
        if draw(st.booleans()):  # the trivial subgroup, density 1/q
            kw.update(q_sequence=QSequence("integers"), generators=(1,))
        else:  # 2 and 3 generate large subgroups, so K stays small
            K = min(K, 150)
            gens = draw(st.sampled_from([(2,), (3,), (2, 3)]))
            kw.update(q_sequence=QSequence("primes-coprime-to-a"), a=6, generators=gens)
    kind = draw(st.sampled_from(experiment.ALPHA_KINDS))
    if kind == "explicit":
        rng = random.Random(draw(st.integers(0, 2**32)))
        values = tuple(F(rng.randint(1, 2**20), 2**21 + rng.randint(0, 3**12)) for _ in range(K))
        alpha = AlphaSequence(kind, values=values)
    else:
        alpha = AlphaSequence(kind, c=draw(st.sampled_from([F(1, 4), F(1, 3), F(2, 5), F(1, 7)])))
    return small_cfg(K=K, alpha_sequence=alpha, **kw)


@settings(max_examples=25, deadline=None)
@given(conditions_configs())
def test_prefix_pass_matches_fraction_walk(cfg):
    _assert_conditions_match_reference(prepare(cfg))


# A lowered SIEVE_LIMIT, so the sieve boundary is cheap to reach (test_arith
# covers the real one), and prime squares and prime powers up to it, with the
# limit 2^12 itself and the prime 4093 just below it.
SIEVE_TEST_LIMIT = 4096
NEAR_LIMIT = tuple(
    sorted({p**e for p in primes_up_to(64) for e in range(2, 13) if p**e <= 4096} | {4093})
)
# name: (q-sequence, K, whether prepare takes the sieve path)
SIEVE_CASES = {
    "integers": (QSequence("integers"), 300, True),
    "primes": (QSequence("primes"), 500, True),
    "at-limit": (QSequence("explicit", NEAR_LIMIT), len(NEAR_LIMIT), True),
    "above-limit": (QSequence("explicit", (*NEAR_LIMIT, 4097)), len(NEAR_LIMIT) + 1, False),
    "lone-large": (QSequence("explicit", (5, 7, 9, 999_999_999_989)), 4, False),
}


class TestSieveFactoring:
    """prepare's q-sequence factoring: the sieve path of arith.factor_all and
    its fallback to factor."""

    @pytest.fixture
    def factor_calls(self, monkeypatch):
        monkeypatch.setattr(arith, "SIEVE_LIMIT", SIEVE_TEST_LIMIT)
        calls = []
        real = arith.factor
        monkeypatch.setattr(arith, "factor", lambda n: calls.append(n) or real(n))
        return calls

    @pytest.mark.parametrize("mode", ["full", "dth-powers"])
    @pytest.mark.parametrize("case", sorted(SIEVE_CASES))
    def test_orders_and_phis_equal_factor(self, factor_calls, case, mode):
        qs, K, sieved = SIEVE_CASES[case]
        exp = prepare(small_cfg(q_sequence=qs, K=K, d=2, subgroup_mode=mode))
        assert factor_calls == ([] if sieved else list(exp.qs))
        facts = [factor(q) for q in exp.qs]
        want = [euler_phi(f) if mode == "full" else r_d(f, 2) for f in facts]
        assert exp.orders == tuple(want)
        assert exp.phis == tuple(map(euler_phi, facts))

    def test_conditions_call_no_factor(self, monkeypatch):
        cfg = small_cfg(q_sequence=QSequence("primes"), K=200, d=2, subgroup_mode="dth-powers")
        exp = prepare(cfg)
        want = check_conditions(exp)

        def refuse(n):
            raise AssertionError("check_conditions must read phi(q_k) from the Experiment")

        monkeypatch.setattr(arith, "factor", refuse)
        monkeypatch.setattr(experiment, "factor", refuse, raising=False)
        got = check_conditions(exp)
        assert (got.rows, got.cond_c_first_decile_mean, got.cond_c_last_decile_mean) == (
            want.rows, want.cond_c_first_decile_mean, want.cond_c_last_decile_mean
        )
        abel_condition_check(exp, got)

    def test_sieve_path_leaves_the_factor_cache_alone(self):
        factor.cache_clear()
        prepare(small_cfg(K=2000))
        assert factor.cache_info().currsize == 0


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_epsilon_rejected(epsilon):
    with pytest.raises(ValueError, match="epsilon"):
        check_conditions(prepare(small_cfg()), epsilon=epsilon)


def test_decay_statistic_out_of_float_range_rejected():
    # q_5 = 2^1024 is the first modulus that does not convert to a float
    qs = QSequence("explicit", values=tuple(2**e for e in range(1020, 1030)))
    cfg = small_cfg(q_sequence=qs, K=10)
    with pytest.raises(ValueError, match=r"q_5 has 1025 bits"):
        check_conditions(prepare(cfg))
    # 3^(1/2 - 1000) underflows to 0.0, so q_3 = 3 is the first to fail
    with pytest.raises(ValueError, match=r"q_3 has 2 bits"):
        check_conditions(prepare(small_cfg()), epsilon=1000.0)


class TestExactStrings:
    def test_round_trip_huge(self):
        x = F(3**5000 + 1, 2**9000)
        assert exact_fraction(exact_str(x)) == x

    def test_small_passthrough(self):
        assert exact_str(F(3, 7)) == "3/7"
        assert exact_fraction("3/7") == F(3, 7)

    def test_digit_limit_left_alone(self, monkeypatch):
        def refuse(limit):
            raise AssertionError("the process-wide digit limit must not be changed")

        limit = sys.get_int_max_str_digits()
        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
        x = F(7**6000 + 1, 3**9500)  # 5071 and 4533 digits, past the default 4300
        text = exact_str(x)
        assert len(text) > 5071 + 4533
        assert exact_fraction(text) == x
        assert sys.get_int_max_str_digits() == limit

    def test_small_values_equal_str(self):
        for x in (F(0), F(5), F(-5), F(3, 7), F(-22, 7), F(10**40 + 1, 3)):
            assert exact_str(x) == str(x)
            assert exact_fraction(str(x)) == x
