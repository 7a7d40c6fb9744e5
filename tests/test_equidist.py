"""Counting functions, the character-sum identity, the explicit error bound,
and exact interval-system measures."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cosetapprox import characters, equidist
from cosetapprox.arith import euler_phi, factor, tau
from cosetapprox.characters import character_matrix, quotient_characters
from cosetapprox.equidist import (
    IntervalSystem,
    interval_system,
    overlap_bound_check,
    overlap_excess_sweep,
    overlap_measure,
    phi_mu,
    phi_mu_sieve,
    psi_character_value,
    psi_count,
    psi_estimate,
)
from cosetapprox.residue_group import (
    coset,
    dth_power_subgroup,
    full_subgroup,
    subgroup,
    subgroup_from_generators,
    unit_group,
)

from helpers import traced_peak_mb

F = Fraction


def brute_coprime_count(n, mu):
    return sum(1 for m in range(1, math.floor(mu * n) + 1) if math.gcd(m, n) == 1)


def brute_coset_count(X, c):
    return sum(1 for m in range(1, math.floor(X) + 1) if m % c.n in c.element_set)


class TestPhiMu:
    def test_full_period_gives_phi(self):
        for n in (2, 10, 36, 100):
            assert phi_mu(n, 1) == euler_phi(factor(n))

    def test_examples(self):
        assert phi_mu(10, F(1, 2)) == 2 == brute_coprime_count(10, F(1, 2))
        assert phi_mu(10, 2) == 8

    def test_against_brute(self):
        for n in (2, 7, 12, 30, 101):
            for mu in (F(1, 3), F(3, 7), 1, F(5, 4), 3):
                assert phi_mu(n, mu) == brute_coprime_count(n, mu)

    def test_validation(self):
        with pytest.raises(ValueError):
            phi_mu(1, F(1, 2))
        with pytest.raises(ValueError):
            phi_mu(10, 0)
        with pytest.raises(TypeError):
            phi_mu(10, 0.5)
        with pytest.raises(TypeError):
            phi_mu(10, True)

    def test_integer_mu_far_past_one_period(self):
        assert phi_mu(30030, 10**6) == 10**6 * euler_phi(factor(30030))
        mus = [F(3 * 10**6 + 1, 3), F(10**9 + 7, 10**3), F(1, 10**9)]
        assert [phi_mu(30030, mu) for mu in mus] == phi_mu_sieve(30030, mus)

    def test_traced_peak_is_one_period(self):
        # the mask is n bytes whatever mu is
        n = 510510  # 2*3*5*7*11*13*17
        mu = F(10**9 + 7, 3)
        count = []
        peak = traced_peak_mb(lambda: count.append(phi_mu(n, mu)))
        assert count == phi_mu_sieve(n, [mu])
        assert peak < 2 * n / 2**20

    def test_modulus_limit(self, monkeypatch):
        # above the limit it raises before factoring or allocating anything
        def refused():
            with pytest.raises(ValueError, match=r"^modulus 100000001 exceeds the coprime-count limit 100000000$"):
                phi_mu(10**8 + 1, F(1, 2))

        assert traced_peak_mb(refused) < 0.05
        monkeypatch.setattr(equidist, "_PHI_MU_LIMIT", 30)
        assert phi_mu(30, 2) == 16
        with pytest.raises(ValueError, match="limit 30$"):
            phi_mu(31, F(1, 2))


class TestSieve:
    def test_examples(self):
        assert phi_mu_sieve(10, [F(1, 2)]) == [2]
        [count] = phi_mu_sieve(30, [F(1, 4)])
        assert count == phi_mu(30, F(1, 4))
        assert abs(count - F(1, 4) * 8) <= tau(factor(30)) == 8

    def test_integer_mu_has_zero_remainder(self):
        for n in (6, 10, 49, 90):
            for mu, count in zip((1, 2, 5), phi_mu_sieve(n, (1, 2, 5))):
                assert count == mu * euler_phi(factor(n))

    def test_grid(self):
        mus = [F(j, 10) for j in range(1, 21)]
        for n in range(2, 250):
            t, phi = tau(factor(n)), euler_phi(factor(n))
            counts = phi_mu_sieve(n, mus)
            assert len(counts) == len(mus)
            for mu, count in zip(mus, counts):
                assert count == phi_mu(n, mu)
                assert abs(count - mu * phi) <= t

    def test_one_call_per_modulus_in_order(self):
        # a shuffled list with repeats, an integer and an empty list: one
        # count per mu, in the order given, each equal to a call of its own
        # and to the gcd scan
        rng = random.Random(0x5EE)
        for n in (2, 12, 97, 360, 1001):
            mus = [F(rng.randint(1, 60), rng.randint(1, 20)) for _ in range(12)]
            mus += [mus[3], 2, F(1, 3)]
            rng.shuffle(mus)
            counts = phi_mu_sieve(n, mus)
            assert counts == [phi_mu_sieve(n, [mu])[0] for mu in mus]
            assert counts == [phi_mu(n, mu) for mu in mus]
            assert phi_mu_sieve(n, []) == []

    def test_raises_at_the_first_bad_mu(self):
        # as the scalar call did: ValueError for mu <= 0, TypeError for a
        # float or bool, whichever comes first in the sequence
        with pytest.raises(ValueError, match="^mu must be positive, got 0$"):
            phi_mu_sieve(10, [F(1, 2), 0, 0.5])
        with pytest.raises(TypeError, match="got float"):
            phi_mu_sieve(10, [F(1, 2), 0.5, 0])
        with pytest.raises(TypeError, match="got bool"):
            phi_mu_sieve(10, [True])
        with pytest.raises(ValueError, match="^mu must be positive, got -1/3$"):
            phi_mu_sieve(10, (x for x in [F(1, 2), F(-1, 3)]))
        with pytest.raises(ValueError, match="modulus must be >= 2"):
            phi_mu_sieve(1, [F(1, 2)])
        with pytest.raises(TypeError):
            phi_mu_sieve(10, F(1, 2))  # a bare mu is not a sequence

    @staticmethod
    def fraction_sieve(n, mu):
        """The sieve summed over Fraction floors, one divisor bitmask at a time."""
        f = factor(n)
        primes = [p for p, _ in f]
        count = 0
        for bits in range(1 << len(primes)):
            prod, sign = 1, 1
            for i, p in enumerate(primes):
                if bits >> i & 1:
                    prod *= p
                    sign = -sign
            count += sign * math.floor(mu * n / prod)
        return count, count - mu * euler_phi(f)

    def test_large_mu_and_large_denominators(self):
        big = 10**9 + 7
        rng = random.Random(0x51E)
        mus = [F(3, 2), F(7), F(29, 3), F(big - 1, big), F(big + 1, big), F(1, big)]
        mus += [F(rng.randint(1, 5 * big), big) for _ in range(6)]
        for n in (2, 6, 30, 64, 210, 997, 2310, 30030):
            t = tau(factor(n))
            phi = euler_phi(factor(n))
            for mu, count in zip(mus, phi_mu_sieve(n, mus)):
                rem = count - mu * phi
                assert (count, rem) == self.fraction_sieve(n, mu), (n, mu)
                assert count == phi_mu(n, mu), (n, mu)
                assert abs(rem) <= t

    def test_eight_primes(self):
        n = 9699690  # 2*3*5*7*11*13*17*19: 256 signed divisors
        mus = (F(1, 10**9 + 7), F(10**9, 10**9 + 7), F(3, 2))
        phi = euler_phi(factor(n))
        for mu, count in zip(mus, phi_mu_sieve(n, mus)):
            rem = count - mu * phi
            assert (count, rem) == self.fraction_sieve(n, mu)
            assert count == phi_mu(n, mu)
            assert abs(rem) <= tau(factor(n)) == 256

    @pytest.mark.parametrize(
        "n, mu, count, remainder",
        [(21, F(3, 4), 8, F(-1)), (57, F(3, 10), 12, F(6, 5)), (10, F(1, 3), 2, F(2, 3))],
    )
    def test_integer_bound_at_its_edge(self, monkeypatch, n, mu, count, remainder):
        # |R| = tau passes; tau one below |R| (or the next integer below a
        # fractional |R|) raises, and the message gives R exactly; the bad mu
        # raises before a later mu <= 0 is looked at
        assert count - mu * euler_phi(factor(n)) == remainder
        monkeypatch.setattr(equidist, "tau", lambda f: abs(remainder))
        assert phi_mu_sieve(n, [mu]) == [count]
        monkeypatch.setattr(equidist, "tau", lambda f: math.ceil(abs(remainder)) - 1)
        with pytest.raises(ArithmeticError, match=f"^sieve remainder {remainder} exceeds tau\\({n}\\)$"):
            phi_mu_sieve(n, [mu, 0])


class TestPsiCount:
    def test_one_period_gives_order(self):
        for n in (7, 12, 30):
            g = unit_group(n)
            for d in (1, 2, 3):
                G = dth_power_subgroup(g, d)
                assert psi_count(n, coset(1, G)) == G.order

    def test_examples_mod_7(self):
        g = unit_group(7)
        G = dth_power_subgroup(g, 2)
        assert psi_count(7, coset(1, G)) == 3
        assert psi_count(3, coset(3, G)) == 1  # {3,5,6}: only 3 itself

    def test_against_brute(self):
        rng = random.Random(5)
        for _ in range(80):
            n = rng.randint(2, 60)
            g = unit_group(n)
            G = dth_power_subgroup(g, rng.randint(1, 4))
            a = rng.choice(g.units())
            c = coset(a, G)
            X = F(rng.randint(0, 500), rng.randint(1, 7))
            assert psi_count(X, c) == brute_coset_count(X, c)

    def test_monotone_in_x(self):
        g = unit_group(12)
        c = coset(5, dth_power_subgroup(g, 2))
        values = [psi_count(F(j, 3), c) for j in range(0, 120)]
        assert values == sorted(values)

    def test_rejects_negative(self):
        g = unit_group(5)
        with pytest.raises(ValueError):
            psi_count(-1, coset(1, full_subgroup(g)))

    @pytest.mark.parametrize("X", [0, F(1, 2), 1, 2, F(7, 2)])
    def test_mod_1_counts_every_integer_in_one_to_x(self, X):
        # residue 0 is the unit mod 1, but l = 0 lies outside [1, X]
        assert psi_count(X, coset(1, full_subgroup(unit_group(1)))) == math.floor(X)


def character_count(mu, c, tol=1e-6):
    """psi_count(mu n, c) through the character-sum identity: the value rounded
    to the nearest integer, which it must sit within tol of."""
    val = psi_character_value(mu, c)
    assert abs(val - round(val.real)) < tol
    return round(val.real)


class TestCharacterIdentity:
    def test_full_group_reduces_to_phi_mu(self):
        for n in (5, 12, 30):
            c = coset(1, full_subgroup(unit_group(n)))
            for mu in (F(1, 3), F(2, 3), 1, F(3, 2)):
                assert character_count(mu, c) == phi_mu(n, mu)

    def test_examples_mod_7(self):
        g = unit_group(7)
        c = coset(3, dth_power_subgroup(g, 2))
        assert character_count(1, c) == 3
        assert character_count(F(3, 7), c) == 1

    def test_matches_psi_count_exactly(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(2, 150)
            g = unit_group(n)
            mode = rng.randrange(3)
            if mode == 0:
                G = full_subgroup(g)
            elif mode == 1:
                G = dth_power_subgroup(g, rng.randint(2, 5))
            else:
                G = subgroup_from_generators(g, [rng.choice(g.units())])
            c = coset(rng.choice(g.units()), G)
            mu = F(rng.randint(1, 40), 20)
            val = psi_character_value(mu, c)
            assert abs(val - round(val.real)) < 1e-9
            assert character_count(mu, c) == psi_count(mu * n, c)

    def test_rejects_modulus_one(self):
        # its column 0 is the unit: the identity would count l = 0 too
        c = coset(1, full_subgroup(unit_group(1)))
        with pytest.raises(ValueError, match="^modulus must be >= 2, got 1$"):
            psi_character_value(1, c)

    @pytest.mark.parametrize("mu", [0, F(-1, 3)])
    def test_rejects_a_non_positive_mu(self, mu):
        c = coset(3, dth_power_subgroup(unit_group(7), 2))
        with pytest.raises(ValueError, match=f"^mu must be positive, got {mu}$"):
            psi_character_value(mu, c)


def full_width_value(mu, c):
    """psi_character_value over the full n-column table: the oracle of its
    narrow table, which stops at the last column it reads."""
    G = c.subgroup
    g = G.group
    chars = quotient_characters(G)
    V = character_matrix(g, chars)
    prefix = np.cumsum(V, axis=1)
    full, rem = divmod(math.floor(mu * g.n), g.n)
    sums = prefix[:, rem].copy()
    sums[0] += full * g.phi
    alpha = pow(c.representative, -1, g.n)
    return complex(np.sum(V[:, alpha] * sums)) / len(chars)


class TestNarrowTable:
    def test_equals_the_full_width_value(self):
        # rem < a^-1 and rem >= a^-1 within one period, mu > 1, and n = 2,
        # where a^-1 = 1 and rem is 0 or 1: the same float, not just close
        seen = set()
        rng = random.Random(0x9A1)
        cases = [(unit_group(2), 1, F(1, 2)), (unit_group(2), 1, F(3, 2)), (unit_group(2), 1, 2)]
        for _ in range(150):
            n = rng.randint(3, 200)
            g = unit_group(n)
            cases.append((g, rng.choice(g.units()), F(rng.randint(1, 60), 20)))
        for g, a, mu in cases:
            n = g.n
            for G in (full_subgroup(g), dth_power_subgroup(g, 2), dth_power_subgroup(g, 3)):
                c = coset(a, G)
                rem = math.floor(mu * n) % n
                seen.add((n == 2, rem < pow(a, -1, n), mu > 1))
                assert psi_character_value(mu, c) == full_width_value(mu, c), (n, a, mu)
        assert {(False, True, False), (False, False, False), (False, True, True), (False, False, True)} <= seen
        assert {(True, False, False), (True, False, True)} <= seen

    def test_streamed_blocks_equal_the_full_width_value(self):
        # 600 <= n <= 1000: the trivial subgroup's prefix table to column rem
        # spans several row blocks once rem is past a few dozen columns; the
        # full subgroup's one row checks the same rem and a^-1 rules there
        seen = set()
        rng = random.Random(0xB10C)
        for _ in range(40):
            n = rng.randint(600, 1000)
            g = unit_group(n)
            a, mu = rng.choice(g.units()), F(rng.randint(1, 60), 20)
            rem = math.floor(mu * n) % n
            for G in (subgroup_from_generators(g, []), full_subgroup(g)):
                c = coset(a, G)
                blocks = len(quotient_characters(G)) * (rem + 1) > characters._CELLS
                seen.add((blocks, rem < pow(a, -1, n), mu > 1))
                assert psi_character_value(mu, c) == full_width_value(mu, c), (n, a, mu)
        assert {(True, True, False), (True, False, False), (True, True, True), (True, False, True)} <= seen

    def test_traced_peak_stays_under_four_megabytes(self):
        # one whole 720 x 675 table and its running sums traced 14.9 MB
        c = coset(1, subgroup_from_generators(unit_group(793), []))
        psi_character_value(F(37, 20), c)  # the unit group's lazy tables
        assert traced_peak_mb(lambda: psi_character_value(F(37, 20), c)) < 4


class TestPsiEstimate:
    def test_full_period_has_zero_error(self):
        g = unit_group(30)
        c = coset(7, dth_power_subgroup(g, 2))
        est = psi_estimate(1, c)
        assert est.abs_error == 0

    def test_example_mod_7(self):
        g = unit_group(7)
        c = coset(3, dth_power_subgroup(g, 2))
        est = psi_estimate(F(3, 7), c)
        assert est.exact_count == 1
        assert est.main_term == F(9, 7)
        assert est.abs_error == F(2, 7)
        assert float(est.abs_error) <= est.bound == tau(factor(7)) + 2 * math.sqrt(7) * math.log(7)

    def test_bound_on_random_sample(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(2, 400)
            g = unit_group(n)
            G = dth_power_subgroup(g, rng.randint(1, 6))
            c = coset(rng.choice(g.units()), G)
            est = psi_estimate(F(rng.randint(1, 19), 20), c)
            assert float(est.abs_error) <= est.bound
            assert 0 <= est.normalized_error <= 1


class TestPowerLift:
    def test_full_multiple_example(self):
        g = unit_group(7)
        G = dth_power_subgroup(g, 2)
        c = coset(1, G)
        assert psi_count(7**2, c) == 21
        assert brute_coset_count(49, c) == 21

    def test_against_enumeration(self):
        rng = random.Random(31)
        for q_max, d in ((60, 1), (40, 2), (18, 3)):
            for _ in range(25):
                q = rng.randint(2, q_max)
                g = unit_group(q)
                G = dth_power_subgroup(g, rng.randint(1, 4))
                c = coset(rng.choice(g.units()), G)
                mu = F(rng.randint(1, 24), 12)
                assert psi_count(mu * q**d, c) == brute_coset_count(mu * q**d, c)

    def test_mu_one_closed_form(self):
        for q, d in ((7, 2), (10, 3), (13, 2)):
            g = unit_group(q)
            G = dth_power_subgroup(g, 2)
            assert psi_count(q**d, coset(1, G)) == G.order * q ** (d - 1)


class TestIntervalSystem:
    def test_example_q5(self):
        g = unit_group(5)
        E = interval_system(1, F(1, 10), 1, full_subgroup(g))
        assert E.center_count == 4
        assert E.centers() == [1, 2, 3, 4]
        assert E.measure == F(4, 25)
        assert 2 * E.radius == F(1, 25)  # interval length

    def test_trivial_subgroup_single_interval(self):
        g = unit_group(9)
        E = interval_system(1, F(1, 4), 1, subgroup_from_generators(g, []))
        assert E.centers() == [1]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_modulus_one_is_the_circle(self, d):
        # mod 1 the one center is 0 = 1 on R/Z: E = [0, alpha) u (1 - alpha, 1]
        alpha = F(1, 5)
        E = interval_system(d, alpha, 1, full_subgroup(unit_group(1)))
        assert E.centers() == [0] and E.center_count == 1 and E.measure == 2 * alpha
        assert E.is_center(0) and E.is_center(1)
        for j in range(101):
            X = F(j, 100)
            assert E.measure_upto(X) == min(X, alpha) + max(0, X - 1 + alpha), X
        assert overlap_measure(E, 0, 1) == (2 * alpha, 0)
        assert overlap_measure(E, F(1, 10), F(9, 10)) == (2 * F(1, 10), F(1, 2))

    def test_power_case_count(self):
        g = unit_group(7)
        E = interval_system(2, F(1, 5), 1, dth_power_subgroup(g, 2))
        assert E.center_count == 21 == len(E.centers())
        assert E.measure == 2 * F(1, 5) * 3 / 7

    def test_intervals_disjoint_inside_unit_interval(self):
        g = unit_group(11)
        E = interval_system(1, F(49, 100), 2, dth_power_subgroup(g, 2))
        centers = E.centers()
        r = E.radius
        assert all(F(c, E.modulus) - r > 0 and F(c, E.modulus) + r < 1 for c in centers)
        for c1, c2 in zip(centers, centers[1:]):
            assert F(c2 - c1, E.modulus) > 2 * r

    def test_q_is_the_coset_modulus(self):
        for q in (2, 5, 12, 49):
            G = dth_power_subgroup(unit_group(q), 2)
            for d in (1, 2, 3):
                E = interval_system(d, F(1, 5), 1, G)
                assert E.q == G.group.n == q
                assert E.modulus == q**d

    def test_rejects_large_alpha(self):
        g = unit_group(5)
        with pytest.raises(ValueError):
            interval_system(1, F(1, 2), 1, full_subgroup(g))
        with pytest.raises(ValueError):
            interval_system(1, F(3, 5), 1, full_subgroup(g))

    def test_rejects_a_power_below_one(self):
        c = coset(1, full_subgroup(unit_group(7)))
        with pytest.raises(ValueError, match="^power must be >= 1, got 0$"):
            IntervalSystem(d=0, alpha=F(1, 4), coset=c)

    def test_centers_stop_at_the_materialization_limit(self):
        # q = 2003, d = 2: phi(q) q = 4010006 centers, past the 2 * 10^6 limit
        E = interval_system(2, F(1, 5), 1, full_subgroup(unit_group(2003)))
        with pytest.raises(ValueError, match="^4010006 centers exceed materialization limit$"):
            E.centers()

    @pytest.mark.parametrize("d", [2.5, 1.0, True, np.int64(1)])
    def test_rejects_a_power_that_is_not_an_int(self, d):
        # 2.5 over q = 7 had given modulus 129.64... and 1.0 a float 7.0
        G = full_subgroup(unit_group(7))
        with pytest.raises(TypeError, match="power must be an int"):
            interval_system(d, F(1, 4), 1, G)

    @pytest.mark.parametrize("alpha", [0.25, True])
    def test_rejects_a_radius_that_is_not_exact(self, alpha):
        # built directly, past interval_system's own as_fraction
        c = coset(1, full_subgroup(unit_group(7)))
        with pytest.raises(TypeError, match="expected an exact rational"):
            IntervalSystem(d=1, alpha=alpha, coset=c)


class TestOverlap:
    def test_whole_interval(self):
        g = unit_group(5)
        E = interval_system(1, F(1, 10), 1, full_subgroup(g))
        measure, theta = overlap_measure(E, 0, 1)
        assert measure == E.measure
        assert theta == 0

    def test_half_interval_example(self):
        g = unit_group(5)
        E = interval_system(1, F(1, 10), 1, full_subgroup(g))
        measure, theta = overlap_measure(E, 0, F(1, 2))
        assert measure == F(2, 25)
        assert theta == 0

    @pytest.mark.parametrize("s, t", [(F(1, 2), F(1, 2)), (F(3, 5), F(1, 5))])
    def test_rejects_an_empty_window(self, s, t):
        E = interval_system(1, F(1, 10), 1, full_subgroup(unit_group(5)))
        with pytest.raises(ValueError, match=f"^need 0 <= s < t <= 1, got \\({s}, {t}\\)$"):
            overlap_measure(E, s, t)

    def test_randomized_theta_and_clipping_oracle(self):
        rng = random.Random(77)
        for _ in range(250):
            q = rng.randint(2, 40)
            d = rng.choice((1, 2))
            g = unit_group(q)
            G = dth_power_subgroup(g, rng.randint(1, 4))
            a = rng.choice(g.units())
            alpha = F(rng.randint(1, 999), 2000)
            E = interval_system(d, alpha, a, G)
            x, y = sorted((F(rng.randint(0, 1000), 1000), F(rng.randint(0, 1000), 1000)))
            if x == y:
                y = x + F(1, 1000)
            if y > 1:
                y = F(1)
            measure, theta = overlap_measure(E, x, y)
            assert abs(theta) <= 2
            direct = F(0)
            r = E.radius
            for p in E.centers():
                left = max(F(p, E.modulus) - r, x)
                right = min(F(p, E.modulus) + r, y)
                if right > left:
                    direct += right - left
            assert measure == direct

    def test_edge_families_match_integer_clipping(self):
        # window ends at p +- alpha, at centers, half-integers, p +- 10^-9, 0
        # and 1 (scaled by N = q^d), against clipping every center's interval
        # in integer units of 1/(N D)
        tiny = F(1, 10**9)
        specs = [(7, 1, "full"), (12, 1, "generators"), (30, 1, "dth-powers"), (5, 2, "dth-powers"),
                 (9, 2, "full"), (3, 3, "full"), (4, 3, "generators")]
        for q, d, mode in specs:
            g = unit_group(q)
            G = subgroup(g, mode, 2, g.units()[-1:])
            for alpha in (F(1, 3), F(3, 7), F(1, 1024), F(511, 1024), F(999, 2000)):
                E = interval_system(d, alpha, g.units()[-1], G)
                N = E.modulus
                centers = E.centers()
                assert E.measure_upto(0) == 0 and E.measure_upto(N) == E.measure * N
                ps = {centers[0], centers[-1], centers[len(centers) // 2], q, N // 2}
                ends = {F(0), F(N)}
                for p in ps:
                    ends |= {p - alpha, p + alpha, F(p), p + F(1, 2), p + tiny, p - tiny}
                ends = sorted(X / N for X in ends if 0 <= X <= N)
                for i, s in enumerate(ends):
                    for t in ends[i + 1 :]:
                        D = math.lcm(alpha.denominator, s.denominator, t.denominator)
                        r = alpha.numerator * (D // alpha.denominator)
                        S = s.numerator * (D // s.denominator) * N
                        T = t.numerator * (D // t.denominator) * N
                        direct = sum(max(0, min(p * D + r, T) - max(p * D - r, S)) for p in centers)
                        measure, theta = overlap_measure(E, s, t)
                        assert measure == F(direct, N * D), (q, d, mode, alpha, s, t)
                        assert abs(theta) <= 2

    def test_monotone_in_window(self):
        g = unit_group(13)
        E = interval_system(1, F(1, 5), 1, dth_power_subgroup(g, 2))
        last = F(0)
        for j in range(1, 11):
            m, _ = overlap_measure(E, 0, F(j, 10))
            assert m >= last
            last = m

    def test_bound_check_examples(self):
        g = unit_group(5)
        E = interval_system(1, F(1, 10), 1, full_subgroup(g))
        rep = overlap_bound_check([(F(0), F(1))], E)
        assert rep.multiplier == 1 and rep.excess == 0
        rep = overlap_bound_check([(F(0), F(1, 2))], E)
        assert rep.multiplier == 1

    def test_bound_check_validation(self):
        g = unit_group(5)
        E = interval_system(1, F(1, 10), 1, full_subgroup(g))
        with pytest.raises(ValueError):
            overlap_bound_check([], E)
        with pytest.raises(ValueError):
            overlap_bound_check([(F(0), F(1, 2)), (F(1, 4), F(3, 4))], E)
        with pytest.raises(ValueError, match=r"^interval \(1/2, 3/2\) not inside \(0, 1\)$"):
            overlap_bound_check([(F(1, 2), F(3, 2))], E)

    def test_excess_sweep_decays(self):
        A = [(F(1, 10), F(1, 5)), (F(1, 2), F(3, 5)), (F(4, 5), F(9, 10))]
        systems = []
        for q in (101, 331, 1009, 3301):
            g = unit_group(q)
            G = dth_power_subgroup(g, 2)
            systems.append(interval_system(2, F(1, 5), 1, G))
        rep = overlap_excess_sweep(A, systems)
        assert rep.decays
        assert rep.rows[-1][2] < rep.rows[0][2]

    def test_excess_sweep_validation(self):
        # the fit and the early/late halves need ascending q and one d
        A = [(F(1, 10), F(1, 5))]

        def system(q, d):
            return interval_system(d, F(1, 5), 1, full_subgroup(unit_group(q)))

        for qds, message in (
            (((7, 1),), "at least two systems"),
            (((7, 1), (7, 1)), "strictly increasing q"),
            (((9, 1), (3, 1)), "strictly increasing q"),
            (((7, 1), (11, 2)), "one d"),
        ):
            with pytest.raises(ValueError, match=message):
                overlap_excess_sweep(A, [system(q, d) for q, d in qds])

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), float("-inf")])
    def test_excess_sweep_rejects_a_non_finite_epsilon(self, epsilon):
        systems = [interval_system(1, F(1, 5), 1, full_subgroup(unit_group(q))) for q in (7, 11)]
        with pytest.raises(ValueError, match="epsilon must be finite"):
            overlap_excess_sweep([(F(1, 10), F(1, 5))], systems, epsilon=epsilon)
