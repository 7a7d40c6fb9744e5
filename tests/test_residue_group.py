"""Unit group structure, subgroups, cosets, and the exponent fast path."""

import math
import random
from itertools import combinations

import pytest

from cosetapprox.arith import factor, r_d, u_d
from cosetapprox.characters import all_characters, character_matrix
from cosetapprox.residue_group import (
    closure,
    coset,
    dth_power_subgroup,
    full_subgroup,
    index,
    is_dth_power,
    subgroup,
    subgroup_from_generators,
    unit_group,
)


def mult_order(x, n):
    o, y = 1, x % n
    while y != 1:
        y = y * x % n
        o += 1
    return o


class TestUnitGroup:
    def test_mod_7_is_cyclic_of_order_6(self):
        g = unit_group(7)
        assert len(g.cyclic_factors) == 1
        gen, order = g.cyclic_factors[0]
        assert order == 6 == g.phi
        assert mult_order(gen, 7) == 6
        assert gen == 3  # smallest primitive root, stable across runs

    def test_mod_8_is_klein_four(self):
        g = unit_group(8)
        assert sorted(o for _, o in g.cyclic_factors) == [2, 2]
        assert all(pow(x, 2, 8) == 1 for x in g.units())

    def test_units_equal_the_gcd_scan(self):
        # the mask reads the factorization, the closures the generators
        for n in range(2, 3001):
            assert unit_group(n).units() == [x for x in range(1, n) if math.gcd(x, n) == 1], n

    def test_mod_2_trivial(self):
        g = unit_group(2)
        assert g.cyclic_factors == ()
        assert g.phi == 1
        assert g.units() == [1]

    def test_rejects_small_modulus(self):
        with pytest.raises(ValueError):
            unit_group(0)
        with pytest.raises(ValueError):
            unit_group(-1)

    def test_mod_1_is_the_trivial_group(self):
        # the one residue 0 is a unit mod 1, as coprime_mask says
        g = unit_group(1)
        assert g.phi == 1 and g.cyclic_factors == () and g.exponent() == 1
        assert g.units() == [0]
        assert g.dlog(5) == () and g.dlog_table.shape == (0, 1)
        G = full_subgroup(g)
        assert G.elements == (0,) and index(G) == 1
        assert dth_power_subgroup(g, 3).elements == subgroup_from_generators(g, [4]).elements == (0,)
        assert closure([7], 1) == {0}
        c = coset(5, G)
        assert c.representative == 0 and c.elements == (0,)
        assert all(p in c for p in (-1, 0, 1, 6))
        assert is_dth_power(g.factorization, 5, 2)
        assert all_characters(g).shape == (1, 0)  # one character, the principal one
        assert character_matrix(g, all_characters(g)).tolist() == [[1]]

    def test_structure_exhaustive(self):
        # orders multiply to phi(n); every column of the dlog table is read:
        # on the units it is a bijection that reconstructs x, off them zero.
        # 1000, 1024 and 2916 = 4 * 729 have large 2- and 3-power parts.
        for n in [*range(2, 401), 1000, 1024, 2916]:
            g = unit_group(n)
            prod = 1
            for gen, order in g.cyclic_factors:
                assert mult_order(gen, n) == order
                prod *= order
            assert prod == g.phi
            assert g.dlog_table.shape == (len(g.cyclic_factors), n)
            vectors = set()
            for x, column in enumerate(g.dlog_table.T.tolist()):
                e = tuple(column)
                if math.gcd(x, n) != 1:
                    assert not any(e), (n, x)
                    continue
                assert g.dlog(x) == e
                vectors.add(e)
                val = 1
                for (gen, order), ei in zip(g.cyclic_factors, e):
                    assert 0 <= ei < order
                    val = val * pow(gen, ei, n) % n
                assert val == x, (n, x)
            assert len(vectors) == g.phi

    def test_dlog_rejects_non_units(self):
        g = unit_group(12)
        with pytest.raises(ValueError):
            g.dlog(4)


class TestSubgroups:
    def test_squares_mod_7(self):
        g = unit_group(7)
        G = dth_power_subgroup(g, 2)
        assert G.elements == (1, 2, 4) == tuple(sorted({pow(x, 2, 7) for x in range(1, 7)}))

    def test_first_powers_are_everything(self):
        g = unit_group(7)
        assert dth_power_subgroup(g, 1).elements == (1, 2, 3, 4, 5, 6)
        with pytest.raises(ValueError, match="^power must be >= 1, got 0$"):
            dth_power_subgroup(g, 0)

    def test_squares_mod_12_trivial(self):
        g = unit_group(12)
        assert dth_power_subgroup(g, 2).elements == (1,)

    def test_order_and_index_match_arith(self):
        for n in range(2, 200):
            g = unit_group(n)
            f = g.factorization
            for d in range(1, 7):
                G = dth_power_subgroup(g, d)
                assert G.order == r_d(f, d)
                assert index(G) == u_d(f, d)

    def test_generated_subgroups(self):
        g = unit_group(7)
        assert subgroup_from_generators(g, []).elements == (1,)
        assert subgroup_from_generators(g, [2]).elements == (1, 2, 4)
        assert subgroup_from_generators(g, [3]).elements == (1, 2, 3, 4, 5, 6)
        with pytest.raises(ValueError):
            subgroup_from_generators(unit_group(10), [5])

    def test_mode_spec_matches_the_direct_constructors(self):
        # each mode reads only its own input: d for the powers, the list for
        # the generators
        def same(G, H):
            return (G.elements, G.generators) == (H.elements, H.generators)

        for n in range(2, 201):
            g = unit_group(n)
            units = g.units()
            for d in range(1, 7):
                gens = tuple(units[d - 1 : d + 1])
                assert same(subgroup(g, "full", d, gens), full_subgroup(g)), (n, d)
                assert same(subgroup(g, "dth-powers", d, gens), dth_power_subgroup(g, d)), (n, d)
                assert same(subgroup(g, "generators", d, gens), subgroup_from_generators(g, gens)), (n, d)
        with pytest.raises(ValueError, match="subgroup mode must be one of"):
            subgroup(unit_group(7), "squares", 2, ())

    def test_closure_of_several_generators(self):
        # the closure is every product x^i y^j; the generators mod 2^e need two
        for n, gens in ((15, (2, 14)), (16, (3, 7)), (16, (15, 5)), (91, (3, 10, 40 + 91))):
            explicit = {1}
            for x in gens:
                explicit = {e * pow(x, i, n) % n for e in explicit for i in range(n)}
            assert closure(gens, n) == explicit
            assert subgroup_from_generators(unit_group(n), gens).elements == tuple(sorted(explicit))
        g = unit_group(48)
        assert closure([gen for gen, _ in g.cyclic_factors], 48) == set(g.units())

    @staticmethod
    def product_set(gens, n):
        """Every product x_1^i_1 ... x_k^i_k mod n, exponents 0..n-1."""
        explicit = {1 % n}
        for x in gens:
            explicit = {e * pow(x, i, n) % n for e in explicit for i in range(n)}
        return explicit

    def test_closure_against_the_product_set(self):
        # random unit lists mod n <= 300 with 1-3 generators, repeats and 1,
        # and the two generators of every 2^e <= 256; the closure is a
        # subgroup of the units whose order divides phi(n)
        rng = random.Random(0xC105)
        cases = [((2**e - 1, 5), 2**e) for e in range(3, 9)]
        cases += [((5, 2**e - 1, 5), 2**e) for e in range(3, 9)]
        for _ in range(300):
            n = rng.randint(2, 300)
            units = unit_group(n).units()
            gens = [rng.choice(units) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.3:
                gens.append(rng.choice(gens))  # a repeat
            if rng.random() < 0.3:
                gens.insert(rng.randrange(len(gens) + 1), 1)
            cases.append((tuple(gens), n))
        for gens, n in cases:
            explicit = self.product_set(gens, n)
            got = closure(gens, n)
            assert got == explicit, (gens, n)
            assert unit_group(n).phi % len(got) == 0, (gens, n)
        assert closure([], 7) == {1} and closure([1, 1], 7) == {1}
        assert closure([3], 1) == {0}  # mod 1 the only residue is 0

    @pytest.mark.parametrize("gens, n", [([2], 4), ([2, 6], 9), ([7, 11, 10], 15), ([0], 5)])
    def test_closure_rejects_a_non_unit(self, gens, n):
        # a non-unit generator used to give a monoid, e.g. {0, 1, 2} mod 4
        with pytest.raises(ValueError, match=f"generator {gens[-1]} is not coprime to {n}"):
            closure(gens, n)
        with pytest.raises(ValueError, match="is not coprime to"):
            subgroup_from_generators(unit_group(n), gens)

    def test_nested_power_subgroups(self):
        # d-th powers sit inside e-th powers whenever e divides d.
        for n in (7, 9, 16, 24, 35, 60):
            g = unit_group(n)
            for d in range(1, 13):
                Gd = set(dth_power_subgroup(g, d).elements)
                for e in range(1, d + 1):
                    if d % e == 0:
                        assert Gd <= set(dth_power_subgroup(g, e).elements)

    def test_power_closure_matches_unit_scan(self):
        # the closure of the g_i^d against the scan {x^d : x a unit}; n = 2
        # has no cyclic factors, so its subgroups are the closure of nothing
        for n in range(2, 301):
            g = unit_group(n)
            units = g.units()
            for d in range(1, 7):
                scan = tuple(sorted({pow(x, d, n) for x in units}))
                assert dth_power_subgroup(g, d).elements == scan, (n, d)
            assert full_subgroup(g).elements == tuple(units), n
        assert unit_group(2).cyclic_factors == ()


class TestCosets:
    def test_coset_of_squares_mod_7(self):
        g = unit_group(7)
        G = dth_power_subgroup(g, 2)
        c = coset(3, G)
        assert c.elements == (3, 5, 6) == tuple(sorted(3 * x % 7 for x in (1, 2, 4)))

    def test_identity_and_member_representatives(self):
        g = unit_group(7)
        G = dth_power_subgroup(g, 2)
        assert coset(1, G).elements == G.elements
        assert coset(2, G).elements == G.elements  # 2 is itself a square

    def test_rejects_non_unit_representative(self):
        g = unit_group(10)
        with pytest.raises(ValueError):
            coset(4, full_subgroup(g))

    def test_contains(self):
        g = unit_group(7)
        c = coset(3, dth_power_subgroup(g, 2))
        assert 12 in c  # 12 = 5 mod 7
        assert 14 not in c  # multiple of 7, not a unit
        cG = coset(1, dth_power_subgroup(g, 2))
        assert 1 in cG

    def test_contains_translation_equivalence(self):
        for n in (7, 8, 15, 16, 24):
            g = unit_group(n)
            for d in (1, 2, 3):
                G = dth_power_subgroup(g, d)
                for a in g.units():
                    c = coset(a, G)
                    base = coset(1, G)
                    ainv = pow(a, -1, n)
                    for p in range(2 * n):
                        assert (p in c) == (ainv * p in base)

    def test_partition(self):
        for n in (7, 9, 15, 16, 30):
            g = unit_group(n)
            for d in (2, 3):
                G = dth_power_subgroup(g, d)
                seen = {}
                for a in g.units():
                    seen.setdefault(coset(a, G).elements, 0)
                assert len(seen) == index(G)
                all_elems = [x for elems in seen for x in elems]
                assert sorted(all_elems) == g.units()
                for e1, e2 in combinations(seen, 2):
                    assert not set(e1) & set(e2)

    def test_index_examples(self):
        g = unit_group(7)
        assert index(dth_power_subgroup(g, 2)) == 2
        assert index(full_subgroup(g)) == 1
        assert index(subgroup_from_generators(g, [])) == 6


class TestExponentFastPath:
    def test_matches_explicit_sets(self):
        # includes the two-factor 2-power groups 8, 16, 32, 64
        for n in list(range(2, 130)):
            g = unit_group(n)
            f = g.factorization
            for d in range(1, 7):
                explicit = set(dth_power_subgroup(g, d).elements)
                for x in range(n):
                    assert is_dth_power(f, x, d) == (x in explicit), (n, x, d)

    def test_coset_fast_path(self):
        for n in (7, 8, 9, 16, 15, 45):
            g = unit_group(n)
            f = g.factorization
            for d in (1, 2, 3, 4):
                G = dth_power_subgroup(g, d)
                for a in g.units():
                    c = coset(a, G)
                    ai = pow(a, -1, n)
                    for p in range(2 * n):
                        assert is_dth_power(f, ai * p % n, d) == (p in c)

    def test_modulus_one_is_trivial(self):
        f = factor(1)
        assert is_dth_power(f, 0, 3)
        assert is_dth_power(f, pow(1, -1, 1) * 0 % 1, 2)
