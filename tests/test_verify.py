"""The verify checks' own oracles, at the edges of their ranges, and the
seeded draws and quick-scale details they give."""

import hashlib
import math
from fractions import Fraction

import pytest

from cosetapprox import experiment, residue_group, verify
from cosetapprox.verify import (
    check_formula_oracle,
    check_hits_brute,
    check_overlap_theta,
    check_quotient_characters,
    check_sieve_identity,
    check_subgroup_consistency,
)


def test_formula_oracle_at_n_1():
    # n = 1: the only residue is 0, a unit, so u_d = r_d = 1 for every d
    assert check_formula_oracle(1, 6) == (True, "6 (n, d) pairs, 0 mismatches")


def test_overlap_clipping_oracle_catches_a_shifted_measure(monkeypatch):
    ok, detail = check_overlap_theta(60)
    assert ok, detail
    exact = verify.overlap_measure

    def shifted(E, s, t):
        measure, theta = exact(E, s, t)
        return measure + Fraction(1, E.modulus * 10**9), theta

    monkeypatch.setattr(verify, "overlap_measure", shifted)
    ok, _ = check_overlap_theta(60)
    assert not ok


def test_sieve_check_catches_one_count_off_by_one(monkeypatch):
    # one call per n now: a sieve that is one too high at mu = 7/20 for
    # n = 30 alone is one violation
    assert check_sieve_identity(60, 20) == (True, "n <= 60, 20 mu values, 0 violations")
    exact = verify.phi_mu_sieve

    def off_by_one(n, mus):
        bump = [int(n == 30 and mu == Fraction(7, 20)) for mu in mus]
        return [count + b for b, count in zip(bump, exact(n, mus))]

    monkeypatch.setattr(verify, "phi_mu_sieve", off_by_one)
    assert check_sieve_identity(60, 20) == (False, "n <= 60, 20 mu values, 1 violations")


def test_quotient_check_catches_a_dropped_row(monkeypatch):
    assert check_quotient_characters(12) == (True, "n <= 12, 0 violations")
    exact = verify.quotient_characters
    monkeypatch.setattr(verify, "quotient_characters", lambda G: exact(G)[:-1])
    ok, detail = check_quotient_characters(12)
    assert not ok and detail != "n <= 12, 0 violations", detail


def test_subgroup_check_catches_a_closure_missing_an_element(monkeypatch):
    assert check_subgroup_consistency(40, 3) == (True, "n <= 40, d <= 3, 0 violations")
    exact = residue_group.closure

    def short(gens, n):
        elements = exact(gens, n)
        if len(elements) > 1:
            elements.discard(max(elements))
        return elements

    monkeypatch.setattr(residue_group, "closure", short)
    ok, detail = check_subgroup_consistency(40, 3)
    assert not ok, detail


def test_hit_oracle_catches_a_wrong_membership_test(monkeypatch):
    # the brute scan decides membership from explicit cosets, so a d-th
    # power test that accepts every unit changes find_hits but not the scan
    assert check_hits_brute(10) == (True, "30 sampled points, 0 disagreements")
    monkeypatch.setattr(experiment, "is_dth_power", lambda f, x, d: math.gcd(x, f.n) == 1)
    ok, detail = check_hits_brute(10)
    assert not ok, detail


@pytest.mark.parametrize("which", range(3))
def test_hit_oracle_is_strict_at_interval_endpoints(monkeypatch, which):
    # points exactly on the centers p/Q and the endpoints (p -+ alpha)/Q of
    # the first and last hit interval of every index: the open intervals
    # hold the centers and neither endpoint, for the scan as for find_hits
    cfg = verify._hit_test_configs()[which]
    exp = experiment.prepare(cfg)
    points = {}
    for q, Q, (n, e, o) in zip(exp.qs, exp.moduli, exp.radii):
        alpha = Fraction(n, o << e)
        member = verify._coset_member(cfg, q)
        centers = [p for p in range(Q + 1) if math.gcd(p, q) == 1 and member(p)]
        for p in (centers[0], centers[-1]):
            for x in ((p - alpha) / Q, Fraction(p, Q), (p + alpha) / Q):
                if 0 < x < 1:
                    points[x] = None  # a dict keeps the first-seen order
    points = list(points)
    drawn = []

    def on_boundary(seed, i, bits):
        drawn.append(points[len(drawn) % len(points)])
        return drawn[-1]

    monkeypatch.setattr(verify, "_hit_test_configs", lambda: [cfg])
    monkeypatch.setattr(verify, "_sample_point", on_boundary)
    samples = 2 * len(points)
    assert check_hits_brute(samples) == (True, f"{samples} sampled points, 0 disagreements")
    assert set(drawn) == set(points)


_, _QUICK_TUPLES, _FULL_TUPLES = verify._CHECKS["counting_identity"]


@pytest.mark.parametrize(
    "count, n_max, digest",
    [
        (*_QUICK_TUPLES, "0b7e63f3a31d8ddba8f70cbd0239e138a8eee72f421477f6eaccdca1c77da81b"),
        (60, 1000, "3ff46cc8853edc9d77dde3292b6541ba93a7e40a297315ce080d24bd9ec64839"),
        (*_FULL_TUPLES, "6cdd2fd8b43ef682a956fe87a005290ecddd6cf4792e8b0397b1b8986d2a12c6"),
    ],
)
def test_sampled_tuples_are_pinned(count, n_max, digest):
    # the (count, n_max) pairs of the quick, bench and full scales, under the
    # suite's seed: any change to the draw order changes every tuple after it;
    # the bench pair is the mid-scale row of bench/run.py
    records = [
        (n, G.elements, G.generators, a, str(mu))
        for n, G, a, mu in verify.sample_count_tuples(count, n_max, 0xC0DE)
    ]
    assert hashlib.sha256(repr(records).encode()).hexdigest() == digest


def test_sampled_tuples_are_drawn_one_at_a_time(monkeypatch):
    # the first tuple builds one unit group, not all of them: a tuple's unit
    # group lives only while a check holds that tuple
    calls = []

    def counted(n):
        calls.append(n)
        return residue_group.unit_group(n)

    monkeypatch.setattr(verify, "unit_group", counted)
    next(verify.sample_count_tuples(*_FULL_TUPLES, 0xC0DE))
    assert len(calls) == 1


def test_overlap_systems_are_pinned(monkeypatch):
    # every (system, window) the quick-scale check builds, in order
    records = []
    exact = verify.overlap_measure

    def recorded(E, s, t):
        c = E.coset
        records.append(
            (E.d, str(E.alpha), E.q, c.representative, c.elements, c.subgroup.generators, str(s), str(t))
        )
        return exact(E, s, t)

    monkeypatch.setattr(verify, "overlap_measure", recorded)
    check_overlap_theta(150)
    assert len(records) == 150
    assert (
        hashlib.sha256(repr(records).encode()).hexdigest()
        == "32b0ce9088e6884f0caa2adf23bb3e50eec259514582fb2e1ee4e6b0d27f2880"
    )


@pytest.mark.parametrize(
    "name, detail",
    [
        ("formula_oracle", "2400 (n, d) pairs, 0 mismatches"),
        ("subgroup_consistency", "n <= 150, d <= 6, 0 violations"),
        ("character_axioms", "n <= 80, 0 violations, worst deviation 1.39e-14"),
        ("unit_group_structure", "n <= 48, 0 violations"),
        ("coset_partition", "n <= 24, 0 violations"),
        ("quotient_characters", "n <= 20, 0 violations"),
        ("growth_trend", "doubling blocks to 131072, 0 broken trends"),
        ("power_lift", "120 cases, 0 mismatches"),
        ("conditions_reduction", "200 checkpoints agree"),
        ("overlap_theta", "150 cases (115 against the clipping oracle), 0 bad"),
        ("counting_identity", "40 tuples, 0 violations, worst deviation 6.87e-15"),
        ("equidistribution_bound", "40 tuples, 0 violations, worst normalized error 0.033"),
        ("polya_vinogradov", "n <= 120, 0 violations, min slack 2.806"),
        ("sieve_identity", "n <= 150, 20 mu values, 0 violations"),
        ("hit_finding", "30 sampled points, 0 disagreements"),
        ("mc_determinism", "threads (1, 1, 2): identical"),
        (
            "mc_dichotomy",
            "control F(1,K)=0.460 vs bound 0.390+0.207; divergent monotone=True, strict=True",
        ),
    ],
)
def test_quick_details_are_pinned(name, detail):
    # ok alone would not see a draw that moved: these counts and statistics do
    check, quick_args, _ = verify._CHECKS[name]
    assert check(*quick_args) == (True, detail)
