"""Experiment configs, hit finding against brute scans, conditions, and the
deterministic Monte Carlo harness."""

import dataclasses
import json
import math
import pickle
import random
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetapprox import arith, experiment, verify
from cosetapprox.arith import euler_phi, factor, primes_up_to, r_d
from cosetapprox.experiment import (
    SUBGROUP_MODES,
    AlphaSequence,
    ExperimentConfig,
    QSequence,
    _sample_point,
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


def fraction_radii(exp):
    """The radius terms (n, e, o) = n / (2^e o) of exp as Fractions."""
    return tuple(F(n, o << e) for n, e, o in exp.radii)


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
        with pytest.raises(ValueError, match="alpha_sequence kind must be one of .*, got 'c/k\\^2'"):
            AlphaSequence("c/k^2", c=F(1, 3))

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
            ({"d": 0}, "d, a, K and samples must all be positive"),
            ({"a": 0}, "d, a, K and samples must all be positive"),
            ({"K": 0}, "d, a, K and samples must all be positive"),
            ({"samples": 0}, "d, a, K and samples must all be positive"),
            ({"subgroup_mode": "squares"}, "subgroup_mode must be one of ('full', 'dth-powers', 'generators')"),
            ({"schema_version": 2}, "unsupported schema_version 2"),
            ({"q_sequence": [3, 5]}, "config field 'q_sequence' must be an object with a 'kind'"),
            ({"q_sequence": {"values": [3, 5]}}, "config field 'q_sequence' must be an object with a 'kind'"),
            ({"alpha_sequence": "c/k"}, "config field 'alpha_sequence' must be an object with a 'kind'"),
            ({"alpha_sequence": {"c": "1/3"}}, "config field 'alpha_sequence' must be an object with a 'kind'"),
            (
                {"q_sequence": {"kind": "explicit", "values": [1.5]}, "alpha_sequence": {"kind": "c/k", "c": 0.25}},
                "config field 'q_sequence.values' must be an integer, got 1.5",
            ),
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

    @pytest.mark.parametrize("field", dataclasses.fields(ExperimentConfig), ids=lambda f: f.name)
    def test_from_dict_drops_each_field(self, field):
        # only the three JSON-optional fields may be left out of a config
        cfg = small_cfg()
        data = cfg.to_dict()
        name = field.name
        del data[name]
        if name in ("generators", "precision_bits", "min_hits"):
            assert ExperimentConfig.from_dict(data) == dataclasses.replace(cfg, **{name: field.default})
        else:
            with pytest.raises(ValueError) as info:
                ExperimentConfig.from_dict(data)
            assert str(info.value) == f"config field '{name}' is missing"

    def test_mode_needs_generators(self):
        with pytest.raises(ValueError):
            small_cfg(subgroup_mode="generators")

    @pytest.mark.parametrize(
        "changes, name",
        [
            ({"d": True}, "d"),
            ({"seed": False}, "seed"),
            ({"K": 20.0}, "K"),
            ({"K": np.int64(20), "seed": np.int64(3)}, "K"),
            ({"samples": np.int32(4)}, "samples"),
            ({"precision_bits": 128.0}, "precision_bits"),
            ({"a": np.int64(1)}, "a"),
            ({"min_hits": True}, "min_hits"),
            ({"subgroup_mode": "generators", "generators": (2, np.int64(4))}, "generators"),
        ],
    )
    def test_python_built_config_rejects_non_integers(self, changes, name):
        # a config built in Python obeys from_dict's integer rule, so its
        # summary's "config" always serializes and parses back
        with pytest.raises(ValueError, match=f"config field '{name}' must be an integer"):
            small_cfg(**changes)

    @pytest.mark.parametrize("values", [(3, 5.0), (True, 5), (3, np.int64(5))])
    def test_q_values_reject_non_integers(self, values):
        with pytest.raises(ValueError, match="config field 'q_sequence.values' must be an integer"):
            QSequence("explicit", values=values)

    @pytest.mark.parametrize(
        "changes",
        [
            {},
            {"d": 2, "subgroup_mode": "dth-powers", "seed": 2**70},
            {
                "a": 2,
                "subgroup_mode": "generators",
                "generators": (4, 7),
                "q_sequence": QSequence("explicit", values=(3, 5, 11)),
                "K": 3,
            },
        ],
        ids=["full", "dth-powers", "generators"],
    )
    def test_python_built_config_round_trips(self, changes):
        cfg = small_cfg(**changes)
        assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


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

    @pytest.mark.parametrize(
        "sequence, message",
        [
            (dict(q_sequence=QSequence("explicit", values=(3, 5))), "explicit q list has 2 entries, K=3"),
            (
                dict(alpha_sequence=AlphaSequence("explicit", values=(F(1, 4), F(1, 5)))),
                "explicit alpha list has 2 entries, K=3",
            ),
        ],
        ids=["q", "alpha"],
    )
    def test_explicit_list_shorter_than_k(self, sequence, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            prepare(small_cfg(K=3, **sequence))

    def test_alpha_rules_exact(self):
        exp = prepare(small_cfg(K=4))
        assert fraction_radii(exp) == (F(1, 3), F(1, 6), F(1, 9), F(1, 12))
        exp = prepare(small_cfg(alpha_sequence=AlphaSequence("c*2^-k", c=F(1, 4)), K=3))
        assert fraction_radii(exp) == (F(1, 8), F(1, 16), F(1, 32))
        exp = prepare(small_cfg(alpha_sequence=AlphaSequence("c/(k log k)", c=F(1, 3)), K=3))
        assert all(0 < a < F(1, 2) for a in fraction_radii(exp))
        assert fraction_radii(exp)[0] == F(1, 3)  # log clamp keeps k = 1 defined

    @pytest.mark.parametrize("value, k", [(F(1, 2), 2), (0, 1), (F(-1, 5), 3), (F(7, 3), 1)])
    def test_explicit_radius_out_of_range(self, value, k):
        values = [F(1, 4), F(1, 5), F(1, 6)]
        values[k - 1] = value
        cfg = small_cfg(alpha_sequence=AlphaSequence("explicit", values=tuple(values)), K=3)
        with pytest.raises(ValueError) as err:
            prepare(cfg)
        assert str(err.value) == f"alpha_{k} = {F(value)} outside (0, 1/2)"

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            prepare(small_cfg(alpha_sequence=AlphaSequence("c/k", c=F(1, 2))))

    @pytest.mark.parametrize(
        "kw, name",
        [
            (dict(kind="explicit", values=(0.25, 0.2, 0.1)), "values"),
            (dict(kind="c/k", c=0.25), "c"),
            (dict(kind="explicit", values=(F(1, 4), True)), "values"),
            (dict(kind="explicit", values=(F(1, 4), np.int64(1))), "values"),
            (dict(kind="c/k", c=True), "c"),
            (dict(kind="c*2^-k", c="1/4"), "c"),
        ],
        ids=["explicit", "c/k", "explicit-bool", "explicit-numpy", "c-bool", "c-string"],
    )
    def test_float_radii_rejected(self, kw, name):
        # radii stay exact rationals: a float, bool or string is refused when
        # the config is built, as from_dict refuses it, naming the field
        with pytest.raises(ValueError, match=f"config field 'alpha_sequence.{name}' must be an exact"):
            AlphaSequence(**kw)

    @pytest.mark.parametrize("kind", ["c/k", "c*2^-k", "c/(k log k)"])
    def test_int_constant_stays_exact(self, kind):
        # c = 1 puts alpha_1 out of range; the radius named is exact, not a float's
        with pytest.raises(ValueError, match=r"alpha_1 = (1|1/2) outside"):
            prepare(small_cfg(alpha_sequence=AlphaSequence(kind, c=1), K=3))
        with pytest.raises(ValueError, match=r"alpha_1 = 3 outside"):
            prepare(small_cfg(alpha_sequence=AlphaSequence("explicit", values=(3, F(1, 4))), K=2))

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
        with pytest.raises(ValueError, match="generator 5 is not coprime to 5"):
            prepare(cfg)


class TestRadiusColumns:
    """Experiment.radii: alpha_k as reduced terms (n, e, o) = n / (2^e o), o odd."""

    @pytest.mark.parametrize(
        "seq",
        [
            AlphaSequence("c/k", c=F(1, 3)),
            AlphaSequence("c/k", c=F(2, 5)),
            AlphaSequence("c/k", c=F(6, 13)),
            AlphaSequence("c*2^-k", c=F(1, 4)),
            AlphaSequence("c*2^-k", c=F(2, 5)),
            AlphaSequence("c*2^-k", c=F(6, 7)),
            AlphaSequence("c*2^-k", c=F(12, 25)),
            AlphaSequence("c*2^-k", c=F(4, 5)),
            AlphaSequence("c/(k log k)", c=F(1, 3)),
            AlphaSequence("c/(k log k)", c=F(2, 5)),
            AlphaSequence("c/(k log k)", c=F(12, 25)),
            AlphaSequence("explicit", values=(F(1, 3), F(2, 6), F(6, 14), F(1, 2**70), F(5, 11))),
        ],
        ids=lambda seq: f"{seq.kind}-{seq.c}",
    )
    def test_radii_equal_fraction_reference_and_are_reduced(self, seq):
        # the constants share factors with k (2/5, 6/13, 12/25) or with 2^k
        # (2/5, 6/7, 12/25, 4/5), so each rule has to reduce
        K = 5 if seq.kind == "explicit" else 60
        exp = prepare(small_cfg(alpha_sequence=seq, K=K))
        assert len(exp.radii) == K
        for k, (n, e, o) in enumerate(exp.radii, start=1):
            assert type(n) is int and type(e) is int and type(o) is int
            assert o > 0 and o % 2 == 1 and e >= 0 and math.gcd(n, o << e) == 1
            if seq.kind == "explicit":
                assert F(n, o << e) == seq.values[k - 1]
            else:  # the Fraction rules of the hit_finding oracle
                assert F(n, o << e) == verify._RADIUS_RULES[seq.kind](seq.c, k)

    def test_even_constant_shifts_into_the_power_of_two(self):
        exp = prepare(small_cfg(alpha_sequence=AlphaSequence("c*2^-k", c=F(12, 25)), K=4))
        assert exp.radii == ((6, 0, 25), (3, 0, 25), (3, 1, 25), (3, 2, 25))

    @pytest.mark.parametrize("c, shift", [(F(1, 4), 2), (F(3, 20), 2), (F(6, 7), -1)])
    def test_halving_radii_stay_small(self, c, shift):
        # c 2^-k keeps 2^-k in the exponent: n and o stay the size of c's
        # for every k, so the K radii take O(K) bits, not O(K^2)
        K = 5000
        exp = prepare(small_cfg(alpha_sequence=AlphaSequence("c*2^-k", c=c), K=K))
        for k, (n, e, o) in enumerate(exp.radii, start=1):
            assert n < 8 and o < 8 and e == k + shift


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
                q, alpha = exp.qs[k], fraction_radii(exp)[k]
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
    rows = zip(exp.qs, exp.moduli, fraction_radii(exp), exp._members)
    for i, (q, Q, alpha, member) in enumerate(rows):
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
    on the 2^-bits grid: the grid points around it and their neighbours);
    and the midpoints x Q_k = p + 1/2, where p and p + 1 tie at distance 1/2,
    with their neighbours one unit of 2^-128 away."""
    grid = F(1, 1 << bits)
    tiny = F(1, 1 << 128)
    pts = set()
    for q, Q, alpha, member in zip(exp.qs, exp.moduli, fraction_radii(exp), exp._members):
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
            mid = F(2 * p + 1, 2 * Q)
            pts.update((mid, mid - tiny, mid + tiny))
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
    # radii just below 1/2: only the nearest integer can hit, and at the
    # midpoints (see boundary_points) neither neighbour does
    "near-half": explicit_cfg(
        (3, 4, 7, 10, 12), (F(499, 1000), F((1 << 62) - 1, 1 << 63)) * 2 + (F(499, 1000),)
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

    def test_large_moduli_skip_the_float_screen(self):
        # tau = 1 marks them: every screen distance is at most 1/2
        exp = prepare(BOUNDARY_CONFIGS["large-q"])
        unscreened = (exp._tau >= 1).tolist()
        assert unscreened == [Q >= 1 << 53 for Q in exp.moduli]
        assert unscreened == [False, False, True, True, True]
        for i in range(20):
            x = _sample_point(5, i, 128)
            assert {2, 3, 4} <= set(exp._screen(x.numerator, x.denominator).tolist())

    @pytest.mark.parametrize("name", ["one-dth-powers", "one-generators", None])
    def test_modulus_one_is_trivial(self, name):
        # mod 1 every p is a unit and in the coset: k = 1 hits iff ||x|| < alpha_1
        exp = prepare(BOUNDARY_CONFIGS[name] if name else small_cfg(K=6))
        assert exp.qs[0] == 1 and exp.orders[0] == 1
        alpha = fraction_radii(exp)[0]
        for i in range(40):
            x = _sample_point(23, i, 64)
            assert any(h.k == 1 for h in exp.find_hits(x)) == (min(x, 1 - x) < alpha)

    def test_exact_centre_survives_underflowing_radius(self):
        exp = prepare(BOUNDARY_CONFIGS["underflow"])
        assert float(fraction_radii(exp)[1]) == 0.0
        assert [h.k for h in exp.find_hits(F(1, 4))] == [2]  # distance 0 < alpha = 2^-1100

    @pytest.mark.parametrize("name", sorted(BOUNDARY_CONFIGS))
    def test_screen_keeps_every_hit_and_prunes_the_rest(self, name):
        # survivors lie between {||x Q|| < alpha} and {||x Q|| < alpha + 2^-47}
        exp = prepare(BOUNDARY_CONFIGS[name])
        slack = F(1, 1 << 47)
        for x in boundary_points(exp, 64):
            kept = set(exp._screen(x.numerator, x.denominator).tolist())
            for i, (Q, alpha) in enumerate(zip(exp.moduli, fraction_radii(exp))):
                r = x * Q - math.floor(x * Q)
                dist = min(r, 1 - r)
                if dist < alpha or Q >= 1 << 53:
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
        Q, alpha = exp.moduli[k], fraction_radii(exp)[k]
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
        assert (copy.qs, fraction_radii(copy), copy.orders, copy.phis) == (
            exp.qs, fraction_radii(exp), exp.orders, exp.phis
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

    def test_counts_equal_a_recount_of_the_hits(self):
        # counts[m][kp] is the number of samples with at least m hits at
        # k <= kp; hits on both rungs check that a hit at k = kp counts
        cfg = small_cfg(
            alpha_sequence=AlphaSequence("c/k", c=F(49, 100)), K=150, samples=100, seed=3, min_hits=8
        )
        res = prepare(cfg).monte_carlo()
        assert res.k_ladder == (100, 150)
        ks = [[h.k for h in hits] for hits in res.per_sample_hits]
        assert {k for s in ks for k in s} >= {100, 150}
        for m in res.m_values:
            for kp in res.k_ladder:
                assert res.counts[m][kp] == sum(sum(k <= kp for k in s) >= m for s in ks), (m, kp)

    def test_convergent_control_union_bound(self):
        cfg = small_cfg(
            alpha_sequence=AlphaSequence("c*2^-k", c=F(1, 4)),
            K=300,
            samples=80,
            seed=2024,
        )
        exp = prepare(cfg)
        ub = check_conditions(exp).union_bound
        terms = zip(fraction_radii(exp), exp.orders, exp.qs)
        assert ub == sum(2 * a * F(o, q) for a, o, q in terms)
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


# Sparse checkpoint grids (K > 1024): the ratio minimum of the first config
# falls between checkpoints, at n = 810, where the even moduli give way to
# primes.
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
            ("ratio",),
        ),
        (dict(K=1100), ()),
    ],
)
def test_prefix_minima_match_all_prefix_reference(kw, off_grid):
    exp = prepare(small_cfg(**kw))
    cond = check_conditions(exp)
    a_sum = w_sum = F(0)
    series = {"ratio": []}
    for q, alpha, order in zip(exp.qs, fraction_radii(exp), exp.orders):
        a_sum += alpha
        w_sum += alpha * F(order, q)
        series["ratio"].append(w_sum / a_sum)
    assert cond.c_ratio_min == min(series["ratio"])
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


def _weighted_terms(exp):
    """The terms alpha_k |G_k| / q_k as Fractions."""
    return [a * F(o, q) for q, a, o in zip(exp.qs, fraction_radii(exp), exp.orders)]


def _ratio_min_reference(exp):
    """The minimum of the prefix ratios of exp, by the Fraction walk."""
    return _prefix_ratio_reference(fraction_radii(exp), _weighted_terms(exp), (exp.config.K,))[3]


def _assert_conditions_match_reference(exp):
    """check_conditions against the Fraction walk; returns the report."""
    cps = experiment._checkpoints(exp.config.K)
    walk = _prefix_ratio_reference(fraction_radii(exp), _weighted_terms(exp), cps)
    d_rows, n_rows, ratio_rows, ratio_min = walk
    rep = check_conditions(exp)
    assert not {"rows", "partial_sum_alpha", "weighted_sum", "c_ratio"} & set(vars(rep))
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
    exp = prepare(cfg)
    rep = _assert_conditions_match_reference(exp)
    assert rep.c_ratio_min == F(1, 2)
    assert rep.exact_fallbacks == K - 1 and rep.float_decisions == 0
    # the strict comparison keeps the first argmin of the tied ratios
    assert experiment._prefix_argmin(exp) == (1, 0, K - 1)


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
    exp = prepare(cfg)
    rep = _assert_conditions_match_reference(exp)
    assert 0 < abs(rep.c_ratio[1] - F(2, 3)) < F(1, 2**59)
    assert rep.c_ratio_min == (rep.c_ratio[1] if sign == 1 else rep.c_ratio[-1])
    assert rep.exact_fallbacks == K - 2 and rep.float_decisions == 1
    assert experiment._prefix_argmin(exp) == (2 if sign == 1 else K, 1, K - 2)


def test_convergent_control_argmin_past_double_underflow(fixtures_dir):
    # The convergent control fixture at the bench size: alpha_k = 2^-(k+2)
    # leaves the double range near k = 1074, yet the ratio falls at 1724 of
    # the 3000 steps, the last among them, so the argmin is k = K and each
    # term down to 2^-3002 decides a step of the float screen.
    data = json.loads((fixtures_dir / "convergent_control.json").read_text())
    exp = prepare(ExperimentConfig.from_dict({**data, "K": 3000}))
    rep = _assert_conditions_match_reference(exp)
    ratio_min = _ratio_min_reference(exp)
    assert rep.c_ratio_min == ratio_min == rep.c_ratio_final
    assert rep.float_decisions == 2999 and rep.exact_fallbacks == 0


@pytest.mark.parametrize(
    "name, K, want",
    [("khintchine_d1", 3000, (3000, 2999, 0)), ("power_residue_d2", 3500, (1, 3499, 0))],
)
def test_fixture_argmin_at_the_bench_size(fixtures_dir, name, K, want):
    # The other two fixtures at their bench sizes, each step decided by the
    # float screen.  khintchine_d1's ratio falls at 1197 of its 3000 steps,
    # so the tails merge into the argmin's sums often; power_residue_d2's
    # never falls after k = 1, so every step only adds to the tails.
    data = json.loads((fixtures_dir / f"{name}.json").read_text())
    if data["q_sequence"]["kind"] == "explicit":
        data["q_sequence"]["values"] = data["q_sequence"]["values"][:K]
    exp = prepare(ExperimentConfig.from_dict({**data, "K": K}))
    assert experiment._prefix_argmin(exp) == want
    assert check_conditions(exp).c_ratio_min == _ratio_min_reference(exp)


def test_float_terms_of_a_series_past_the_double_range():
    # c 2^-k radii with K = 1200: every term leaves the double range from
    # k = 1075 on, yet _float_term gives each its correctly rounded mantissa
    # with an exponent far below the double range
    exp = prepare(small_cfg(alpha_sequence=AlphaSequence("c*2^-k", c=F(2, 5)), K=1200))
    for series in experiment._series(exp):
        terms = list(series)
        for n, e, o in terms:
            m, x = experiment._float_term((n, e, o))
            assert 0.5 <= m < 1
            assert m == float(F(n, o) / F(2) ** (x + e))  # the term times 2^-x, rounded once
        assert min(experiment._float_term(t)[1] for t in terms) < -1074 - 100


# numerators and odd parts around 2^1000, past the double range (2^1024)
# and far below it
FLOAT_TERM_SIDES = (
    1, 3, 5**20, 2**999 + 1, 2**1000 - 1, 2**1000, 2**1000 + 1, 2**1023 + 1, 2**1024 + 3,
    3**700, 7**2000,
)


@pytest.mark.parametrize("n", FLOAT_TERM_SIDES)
def test_float_term_against_fractions(n):
    # _float_term gives the correctly rounded double of the term, with its
    # mantissa in [1/2, 1), whatever the sizes of n, o and e
    for o in FLOAT_TERM_SIDES:
        o |= 1
        for e in (0, 3, 5000):
            m, x = experiment._float_term((n, e, o))
            assert 0.5 <= m < 1
            assert m == float(F(n, o) / F(2) ** (x + e))


@pytest.mark.parametrize("order", [1, -1], ids=["decreasing", "increasing"])
def test_radii_spanning_past_the_double_range(order):
    # Explicit radii from 1/6 down to 2^-1501 / 3 (or back up): the float
    # sums must renormalise across 2^1500 without losing the small terms.
    K = 16
    alphas = tuple(F(1, 3 * 2 ** (1 + 100 * k)) for k in range(K))[::order]
    cfg = small_cfg(alpha_sequence=AlphaSequence("explicit", values=alphas), K=K)
    exp = prepare(cfg)
    rep = _assert_conditions_match_reference(exp)
    assert rep.c_ratio_min == _ratio_min_reference(exp)


@pytest.mark.parametrize("sign", [1, -1], ids=["falls", "stays"])
@pytest.mark.parametrize("scale, decided", [(F(1, 2), "exact"), (F(2), "float")])
def test_near_tie_at_the_screen_margin(sign, scale, decided):
    # Densities 1/2, 2/3, 1/3 (q = 2, 3, 6).  Step 2 is far from a tie; at
    # step 3, alpha_2 = (1 - 3 s theta) / 8 and alpha_3 = (1 + 3 s theta) / 8
    # make rho = (N_3 - N_1) D_1 / ((D_3 - D_1) N_1) = 1 - s theta exactly.
    # theta = M / 2 lies inside the margin M = 3 2^-46 and goes to the exact
    # cursor; theta = 2 M lies outside, and the float screen decides it.
    K = 3
    assert experiment._screen_margin(K) == 3 * 2.0**-46
    theta = scale * F(3, 2**46)
    alphas = (F(1, 4), (1 - 3 * sign * theta) / 8, (1 + 3 * sign * theta) / 8)
    cfg = small_cfg(
        q_sequence=QSequence("explicit", values=(2, 3, 6)),
        alpha_sequence=AlphaSequence("explicit", values=alphas),
        K=K,
    )
    exp = prepare(cfg)
    rep = _assert_conditions_match_reference(exp)
    assert rep.c_ratio_min == (rep.c_ratio[2] if sign == 1 else F(1, 2))
    want = (1, 1) if decided == "exact" else (2, 0)
    assert (rep.float_decisions, rep.exact_fallbacks) == want
    assert experiment._prefix_argmin(exp) == (3 if sign == 1 else 1, *want)


@pytest.mark.parametrize("sign", [1, -1], ids=["stays", "falls"])
def test_fallback_reads_the_argmin_the_screen_set(sign):
    # Densities 1/2, 1/2, 1/3, 6/7, 4/15, 30/31, 4/15 (q = 2, 4, 6, 7, 30, 31,
    # 60).  Step 2 is an exact tie (a fallback); the screen sets the argmin at
    # m = 3 and turns step 4 down.  alpha_4 / alpha_5 = 28/65 makes the
    # mediant of terms 4 and 5 equal r_3 = 4/9 but for a 2^-60 nudge to
    # alpha_5: r_5 lies just above r_3 (sign 1) or just below it (sign -1).
    # So step 5 is a fallback that must compare with the cursor's row at
    # m = 3, not at 1 or 4.  The screen turns step 6 down, and alpha_6 /
    # alpha_7 = 124/365 makes the mediant of terms 6 and 7 exactly 4/9: step 7
    # is a fallback whose r_7 lies between r_5 and r_3, so with sign -1 it
    # must compare with the row that the fallback at step 5 kept.
    alphas = (F(1, 4), F(1, 4), F(1, 4), F(7, 100), F(13, 80) - sign * F(1, 2**60),
              F(31, 250), F(73, 200))
    cfg = small_cfg(
        q_sequence=QSequence("explicit", values=(2, 4, 6, 7, 30, 31, 60)),
        alpha_sequence=AlphaSequence("explicit", values=alphas),
        K=7,
    )
    exp = prepare(cfg)
    rep = _assert_conditions_match_reference(exp)
    assert rep.c_ratio_min == _ratio_min_reference(exp)
    assert 0 < sign * (rep.c_ratio[4] - F(4, 9)) < F(1, 2**50)
    assert (rep.c_ratio[6] - rep.c_ratio[4]) * (F(4, 9) - rep.c_ratio[6]) > 0  # r_7 between
    assert rep.c_ratio_min == (F(4, 9) if sign == 1 else rep.c_ratio[4])
    assert (rep.float_decisions, rep.exact_fallbacks) == (3, 3)
    assert experiment._prefix_argmin(exp) == (3 if sign == 1 else 5, 3, 3)


def test_single_term():
    rep = _assert_conditions_match_reference(prepare(small_cfg(K=1)))
    assert rep.c_ratio_min == rep.c_ratio_final == 1
    assert rep.float_decisions == rep.exact_fallbacks == 0


def test_rows_stay_lazy_until_read(monkeypatch):
    # Without a fallback, check_conditions makes two exact sums: to the
    # argmin and on to K.  The first read of a row makes one per checkpoint.
    exp = prepare(small_cfg(alpha_sequence=AlphaSequence("c/(k log k)", c=F(1, 3)), K=1100))
    want = check_conditions(exp)
    rows = want.rows
    calls = []
    real = experiment._advance
    monkeypatch.setattr(experiment, "_advance", lambda *args: calls.append(args[2:]) or real(*args))
    rep = check_conditions(exp)
    assert rep.exact_fallbacks == 0 and "rows" not in vars(rep)
    assert len(calls) == 2
    assert rep.c_ratio_min == want.c_ratio_min
    rep.partial_sum_alpha
    assert calls[2:] == list(zip((0, *rep.checkpoints), rep.checkpoints))
    assert rep.rows == rows and "rows" in vars(rep)


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

        def radius():
            # about half dyadic, r / 2^e with 2 <= e <= 1500 in random order,
            # so the screen's float sums align operands of far-apart
            # exponents both ways, and the smaller one underflows
            if rng.random() < 0.5:
                e = rng.randint(2, 1500)
                return F(rng.randint(1, 2 ** min(e - 1, 20) - 1), 2**e)
            return F(rng.randint(1, 2**20), 2**21 + rng.randint(0, 3**12))

        values = tuple(radius() for _ in range(K))
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

    @pytest.mark.parametrize("case", sorted(SIEVE_CASES))
    def test_totients_equal_phi_of_factor(self, factor_calls, case):
        qs, K, sieved = SIEVE_CASES[case]
        qs = experiment._materialize_q(small_cfg(q_sequence=qs, K=K))
        got = arith.totients(qs)
        assert factor_calls == ([] if sieved else list(qs))
        assert got == [euler_phi(factor(q)) for q in qs]

    @pytest.mark.parametrize("mode", ["full", "generators"])
    def test_only_dth_powers_builds_factorizations(self, monkeypatch, mode):
        # the other modes read phi(q_k) alone, from arith.totients
        def refuse(ns):
            raise AssertionError(f"factor_all in {mode} mode")

        monkeypatch.setattr(experiment, "factor_all", refuse)
        monkeypatch.setattr(arith, "factor_all", refuse)
        qs = QSequence("primes-coprime-to-a")
        cfg = small_cfg(q_sequence=qs, K=150, a=6, subgroup_mode=mode,
                        generators=(2,) if mode == "generators" else ())
        exp = prepare(cfg)
        assert exp.phis == tuple(euler_phi(factor(q)) for q in exp.qs)

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

    @pytest.mark.parametrize("bits", [2047, 2048, 2049, 4097, 20_000, 47_000])
    def test_split_conversion_equals_decimal(self, bits):
        # numbers past 2048 bits are converted half by half; the digits and
        # the sign are Decimal's own, byte for byte
        rng = random.Random(bits)
        for n in (1 << (bits - 1), (1 << bits) - 1, rng.getrandbits(bits) | 1 << (bits - 1)):
            assert exact_str(F(n)) == str(Decimal(n))
            assert exact_str(F(-n)) == str(Decimal(-n))
            x = F(-n, 3**700)
            assert exact_str(x) == f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"

    def test_small_values_equal_str(self):
        for x in (F(0), F(5), F(-5), F(3, 7), F(-22, 7), F(10**40 + 1, 3)):
            assert exact_str(x) == str(x)
            assert exact_fraction(str(x)) == x
