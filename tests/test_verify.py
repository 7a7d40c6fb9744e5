"""The verify checks' own oracles, at the edges of their ranges."""

import math
from fractions import Fraction

from cosetapprox import experiment, verify
from cosetapprox.verify import check_formula_oracle, check_hits_brute, check_overlap_theta


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


def test_hit_oracle_catches_a_wrong_membership_test(monkeypatch):
    # the brute scan decides membership from explicit cosets, so a d-th
    # power test that accepts every unit changes find_hits but not the scan
    assert check_hits_brute(10) == (True, "30 sampled points, 0 disagreements")
    monkeypatch.setattr(experiment, "is_dth_power", lambda f, x, d: math.gcd(x, f.n) == 1)
    ok, detail = check_hits_brute(10)
    assert not ok, detail
