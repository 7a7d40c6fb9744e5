"""Dirichlet characters: axioms, quotient lifting, partial sums, and the
vectorized value tables against the scalar definitions."""

import cmath
import math
import random

import numpy as np
import pytest

from cosetapprox import characters
from cosetapprox.characters import (
    all_characters,
    character_matrix,
    evaluate,
    orthogonality_deviation,
    pv_bound,
    pv_sweep_max,
    quotient_characters,
)
from cosetapprox.residue_group import (
    coset,
    dth_power_subgroup,
    full_subgroup,
    index,
    subgroup_from_generators,
    unit_group,
)

from helpers import char_sum, traced_peak_mb


class TestEnumeration:
    def test_counts(self):
        assert len(all_characters(unit_group(5))) == 4
        assert len(all_characters(unit_group(2))) == 1
        for n in range(2, 120):
            g = unit_group(n)
            chars = all_characters(g)
            assert len(chars) == g.phi
            assert len(set(map(tuple, chars.tolist()))) == g.phi

    def test_principal_first_lexicographic(self):
        chars = all_characters(unit_group(40))
        assert not chars[0].any()
        assert sorted(chars.tolist()) == chars.tolist()

    def test_mod_8_characters_are_real(self):
        g = unit_group(8)
        for chi in all_characters(g):
            for x in (1, 3, 5, 7):
                assert evaluate(g, chi, x) in (1, -1) or abs(evaluate(g, chi, x).imag) < 1e-15


class TestEvaluation:
    def test_principal_is_one_on_units(self):
        for n in (5, 8, 12, 30):
            g = unit_group(n)
            chi = all_characters(g)[0]
            for m in range(1, n):
                expected = 1 if math.gcd(m, n) == 1 else 0
                assert evaluate(g, chi, m) == expected

    def test_vanishes_off_units(self):
        g = unit_group(12)
        for chi in all_characters(g):
            assert evaluate(g, chi, 12) == 0
            assert evaluate(g, chi, 2) == 0
            assert evaluate(g, chi, -3 + 24) == 0

    def test_mod_5_generator_value(self):
        g = unit_group(5)
        assert g.cyclic_factors[0][0] == 2  # smallest primitive root of 5
        chi = [c for c in all_characters(g) if c.tolist() == [1]][0]
        assert cmath.isclose(evaluate(g, chi, 2), 1j)

    def test_complete_multiplicativity(self):
        rng = random.Random(7)
        for n in (5, 8, 9, 24, 35):
            g = unit_group(n)
            for chi in all_characters(g):
                for _ in range(20):
                    a, b = rng.randint(1, 4 * n), rng.randint(1, 4 * n)
                    assert cmath.isclose(
                        evaluate(g, chi, a * b),
                        evaluate(g, chi, a) * evaluate(g, chi, b),
                        abs_tol=1e-12,
                    )

    def test_values_are_roots_of_unity(self):
        for n in (7, 16, 45):
            g = unit_group(n)
            L = g.exponent()
            for chi in all_characters(g):
                for m in g.units():
                    v = evaluate(g, chi, m)
                    assert abs(abs(v) - 1) < 1e-12
                    assert abs(v**L - 1) < 1e-9

    def test_periodicity(self):
        g = unit_group(9)
        for chi in all_characters(g):
            for m in range(1, 9):
                assert cmath.isclose(
                    evaluate(g, chi, m), evaluate(g, chi, m + 9), abs_tol=1e-12
                )


class TestCharSum:
    def test_zero_length(self):
        g = unit_group(7)
        chi = all_characters(g)[1]
        assert char_sum(g, chi, 0) == 0

    def test_full_period(self):
        for n in (5, 8, 12, 21):
            g = unit_group(n)
            chars = all_characters(g)
            assert char_sum(g, chars[0], n) == g.phi
            for chi in chars[1:]:
                assert abs(char_sum(g, chi, n)) < 1e-9

    def test_fold_matches_direct(self):
        g = unit_group(12)
        for chi in all_characters(g):
            for h in (0, 5, 12, 25, 40):
                direct = sum(evaluate(g, chi, k) for k in range(1, h + 1))
                assert cmath.isclose(char_sum(g, chi, h), direct, abs_tol=1e-10)


class TestQuotient:
    def test_full_group_gives_principal_only(self):
        g = unit_group(21)
        qc = quotient_characters(full_subgroup(g))
        assert len(qc) == 1 and not qc[0].any()

    def test_squares_mod_7_give_legendre(self):
        g = unit_group(7)
        G = dth_power_subgroup(g, 2)
        qc = quotient_characters(G)
        assert len(qc) == 2
        quad = qc[1]
        squares = set(G.elements)
        for m in range(1, 7):
            assert cmath.isclose(evaluate(g, quad, m), 1 if m in squares else -1, abs_tol=1e-12)

    def test_trivial_subgroup_gives_everything(self):
        g = unit_group(15)
        qc = quotient_characters(subgroup_from_generators(g, []))
        assert len(qc) == g.phi

    def test_count_and_closure(self):
        for n in (7, 8, 12, 16, 30):
            g = unit_group(n)
            for d in (2, 3):
                G = dth_power_subgroup(g, d)
                qc = quotient_characters(G)
                assert len(qc) == index(G)
                orders = np.array([o for _, o in g.cyclic_factors])
                exps = set(map(tuple, qc.tolist()))
                for c1 in qc:
                    for c2 in qc:
                        assert tuple(((c1 + c2) % orders).tolist()) in exps

    def test_membership_iff_constant_on_cosets(self):
        for n in (7, 9, 16, 15):
            g = unit_group(n)
            for d in (2, 3):
                G = dth_power_subgroup(g, d)
                qset = set(map(tuple, quotient_characters(G).tolist()))
                for chi in all_characters(g):
                    constant = all(
                        max(
                            abs(evaluate(g, chi, x) - evaluate(g, chi, a))
                            for x in coset(a, G).elements
                        )
                        < 1e-12
                        for a in g.units()
                    )
                    assert constant == (tuple(chi.tolist()) in qset), (n, d, chi.tolist())


class TestPolyaVinogradov:
    def test_bound_formula(self):
        assert pv_bound(7) == 2 * math.sqrt(7) * math.log(7)
        with pytest.raises(ValueError):
            pv_bound(1)

    def test_small_h_direct(self):
        g = unit_group(3)
        quad = all_characters(g)[1]
        assert abs(char_sum(g, quad, 1)) <= pv_bound(3)

    def test_exhaustive_small_moduli_scalar_path(self):
        # independent of the vectorized sweep: plain evaluate() sums
        for n in range(3, 40):
            bound = pv_bound(n)
            g = unit_group(n)
            for chi in all_characters(g)[1:]:
                total = 0j
                for h in range(1, n + 1):
                    total += evaluate(g, chi, h)
                    assert abs(total) <= bound

    def test_sweep_matches_scalar_maximum(self):
        # 8, 12, 24 and 40 have several cyclic factors and many real
        # characters, which the sweep's conjugate folding must keep
        for n in (8, 9, 12, 16, 23, 24, 36, 40):
            g = unit_group(n)
            mx, bound = pv_sweep_max(g)
            direct = 0.0
            for chi in all_characters(g)[1:]:
                total = 0j
                for h in range(1, n + 1):
                    total += evaluate(g, chi, h)
                    direct = max(direct, abs(total))
            assert abs(mx - direct) < 1e-9
            assert bound == pv_bound(n)


class TestVectorizedTable:
    def test_matrix_matches_evaluate(self):
        # every cell: 16 has a two-factor 2-part, 120 and 240 three or more
        # cyclic factors, so a wrong per-factor scaling would show somewhere
        for n in (5, 8, 16, 24, 45, 90, 120, 240):
            g = unit_group(n)
            chars = all_characters(g)
            V = character_matrix(g, chars)
            assert V.shape == (len(chars), n)
            for i, chi in enumerate(chars):
                for j in range(n):
                    assert abs(V[i, j] - evaluate(g, chi, j)) < 1e-12, (n, chi.tolist(), j)

    def test_orthogonality_helpers(self):
        for n in (5, 8, 12, 36, 100):
            g = unit_group(n)
            chars = all_characters(g)
            col, row = orthogonality_deviation(g)
            # direct column sums over characters at fixed unit g != 1
            worst_col = 0.0
            for x in range(2, n):
                if math.gcd(x, n) == 1:
                    worst_col = max(worst_col, abs(sum(evaluate(g, c, x) for c in chars)))
            worst_row = 0.0
            for c in chars[1:]:
                worst_row = max(worst_row, abs(sum(evaluate(g, c, x) for x in range(1, n))))
            assert abs(col - worst_col) < 1e-9
            assert abs(row - worst_row) < 1e-9
            assert col < 1e-9 and row < 1e-9

    def test_sum_via_matrix_equals_char_sum(self):
        n = 27
        g = unit_group(n)
        chars = all_characters(g)
        V = character_matrix(g, chars)
        prefix = np.cumsum(V[:, 1:], axis=1)
        for i, chi in enumerate(chars):
            for h in (1, 5, 26):
                assert abs(prefix[i, h - 1] - char_sum(g, chi, h)) < 1e-10


class TestRows:
    def test_quotient_rows_equal_scalar_filter(self):
        # the log table read at the generator columns against evaluate()
        rng = random.Random(11)
        for n in range(2, 201):
            g = unit_group(n)
            units = g.units()
            subgroups = [dth_power_subgroup(g, d) for d in range(1, 7)]
            subgroups.append(subgroup_from_generators(g, []))
            k = rng.randint(1, min(3, len(units)))
            subgroups.append(subgroup_from_generators(g, rng.sample(units, k)))
            for G in subgroups:
                want = [
                    chi.tolist()
                    for chi in all_characters(g)
                    if all(evaluate(g, chi, t) == 1 for t in G.generators)
                ]
                assert quotient_characters(G).tolist() == want, (n, G.generators)

    def test_rank_fold_keeps_the_tuple_rule_rows(self, monkeypatch):
        # pv_sweep_max's one vector comparison against the tuple comparison
        # of each row with its conjugate, over the rows of all its blocks
        # together; its table only at the unit columns 1 <= h <= (n - 1) / 2;
        # its maximum exactly against the half-width columns of the
        # tuple-selected rows' full table, and within rounding of that
        # table's full-width maximum.  n = 997 takes several blocks.
        blocks = []
        real = characters.character_matrix

        def recording(g, chars, columns=slice(None)):
            blocks.append((chars, columns))
            return real(g, chars, columns)

        monkeypatch.setattr(characters, "character_matrix", recording)
        most_factors = 0
        for n in [*range(3, 401), 997, 1000]:
            g = unit_group(n)
            orders = tuple(o for _, o in g.cyclic_factors)
            most_factors = max(most_factors, len(orders))
            kept = [
                e for e in all_characters(g).tolist()
                if tuple(e) <= tuple(-x % o for x, o in zip(e, orders))
            ]
            blocks.clear()
            mx, bound = pv_sweep_max(g)
            assert np.concatenate([chars for chars, _ in blocks]).tolist() == kept, n
            assert (len(blocks) > 1) == (n == 997), n
            units = [h for h in range(1, (n - 1) // 2 + 1) if math.gcd(h, n) == 1]
            for _, columns in blocks:
                assert np.arange(n)[columns].tolist() == units, n
            S = np.cumsum(characters.character_matrix(g, np.array(kept, dtype=np.int64)), axis=1)
            assert mx == float(np.max(np.abs(S[1:, 1 : (n - 1) // 2 + 1]))), n
            assert abs(mx - float(np.max(np.abs(S[1:, 1:])))) <= 1e-12 * pv_bound(n), n
            assert bound == pv_bound(n)
        assert most_factors >= 3

    def test_mirror_identity_of_prefix_sums(self):
        # |S(n - 1 - h)| = |S(h)| for every non-principal chi, which is what
        # lets pv_sweep_max read only the half-width columns 0..(n - 1) // 2
        for n in range(3, 201):
            g = unit_group(n)
            chars = all_characters(g)[1:]
            V = characters.character_matrix(g, chars)
            S = np.cumsum(V, axis=1)
            assert np.allclose(np.abs(S), np.abs(S[:, ::-1]), rtol=0, atol=1e-12), n
            width = (n - 1) // 2 + 1
            half_V = characters.character_matrix(g, chars, slice(width))
            half_S = np.cumsum(half_V, axis=1)
            assert half_V.shape == half_S.shape == (len(chars), width)
            assert np.array_equal(half_V, V[:, :width]) and np.array_equal(half_S, S[:, :width])
            if n <= 4:
                assert width == 2

    def test_unit_columns_give_the_same_sums_bit_for_bit(self):
        # a non-unit column adds an exact 0, so the running sums over the
        # unit columns alone equal the prefix sums of the full table there,
        # bit for bit (pv_sweep_max's maximum is pinned in the test above)
        for n in range(2, 301):
            g = unit_group(n)
            chars = all_characters(g)
            V = characters.character_matrix(g, chars)
            S = np.cumsum(V, axis=1)
            units = np.flatnonzero(np.gcd(np.arange(n), n) == 1)
            unit_V = characters.character_matrix(g, chars, units)
            unit_S = np.cumsum(unit_V, axis=1)
            assert np.array_equal(unit_V, V[:, units]) and np.array_equal(unit_S, S[:, units]), n

    def test_streamed_orthogonality_equals_the_whole_table(self):
        # several row blocks at each n, against V.sum over one whole table,
        # float for float (the sweep's blocks are pinned in the rank-fold
        # test above, at n = 997)
        for n in (499, 500, 720):
            g = unit_group(n)
            V = character_matrix(g, all_characters(g))
            assert V.size > characters._CELLS, n
            units = [x for x in range(2, n) if math.gcd(x, n) == 1]
            col, row = V.sum(axis=0), V.sum(axis=1)
            want = (float(np.max(np.abs(col[units]))), float(np.max(np.abs(row[1:]))))
            assert orthogonality_deviation(g) == want, n

    def test_traced_peaks_stay_under_four_megabytes(self):
        # the whole tables traced 9.5 MB (sweep, n = 997) and 5.7 MB
        # (orthogonality, n = 499)
        for fn, n in ((pv_sweep_max, 997), (orthogonality_deviation, 499)):
            g = unit_group(n)
            fn(g)  # the unit group's lazy tables
            assert traced_peak_mb(lambda: fn(g)) < 4, (fn.__name__, n)

    def test_two_has_one_empty_row(self):
        g = unit_group(2)
        chars = all_characters(g)
        assert chars.shape == (1, 0) and chars.dtype == np.int64
        assert quotient_characters(full_subgroup(g)).shape == (1, 0)
        assert character_matrix(g, chars).tolist() == [[0, 1]]
        assert char_sum(g, chars[0], 5) == 3
        assert pv_sweep_max(g) == (0.0, pv_bound(2))
