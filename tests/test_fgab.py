import random
from fractions import Fraction
from itertools import product

import pytest

from scottgroups import fgab
from scottgroups import formula as F


class TestNormalizeTorsion:
    def test_crt_regrouping(self):
        assert fgab.normalize_torsion((4, 6)) == (2, 12)

    def test_single_factor(self):
        assert fgab.normalize_torsion((5,)) == (5,)

    def test_fixed_point(self):
        assert fgab.normalize_torsion((2, 2)) == (2, 2)

    def test_rejects_small_orders(self):
        with pytest.raises(ValueError):
            fgab.normalize_torsion((1, 4))

    def test_crt_verified_by_isomorphism(self):
        t1 = fgab.table_from_invariant_factors((4, 6))
        t2 = fgab.table_from_invariant_factors((2, 12))
        assert fgab.tables_isomorphic(t1, t2)
        assert not fgab.tables_isomorphic(t1, fgab.table_from_invariant_factors((24,)))

    def test_properties_sampled(self):
        rng = random.Random(17)
        for _ in range(200):
            orders = tuple(rng.randint(2, 30) for _ in range(rng.randint(1, 4)))
            factors = fgab.normalize_torsion(orders)
            prod = 1
            for d in factors:
                prod *= d
            want = 1
            for c in orders:
                want *= c
            assert prod == want
            assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


class TestDescriptor:
    def test_divisibility_chain_enforced(self):
        with pytest.raises(ValueError):
            fgab.FgAbelianDesc(1, (4, 6))

    def test_json_round_trip(self):
        d = fgab.FgAbelianDesc(2, (2, 12))
        assert fgab.desc_from_json(fgab.desc_to_json(d)) == d

    @pytest.mark.parametrize("data", [{"rank": "2", "torsion": [2]},
                                      {"rank": 2, "torsion": [2.0]},
                                      {"rank": True, "torsion": []}])
    def test_json_integers_are_not_parsed(self, data):
        with pytest.raises(ValueError):
            fgab.desc_from_json(data)


class TestFiniteScott:
    def test_z2_separates_from_z3(self):
        s = fgab.scott_sentence_finite(fgab.cyclic_table(2))
        assert F.evaluate_exact(s, fgab.cyclic_table(2), 4) == (True, True)
        assert F.evaluate_exact(s, fgab.cyclic_table(3), 4) == (False, True)

    def test_trivial_group_pins_order_one(self):
        s = fgab.scott_sentence_finite(fgab.cyclic_table(1))
        assert F.evaluate_exact(s, fgab.cyclic_table(1), 4) == (True, True)
        for n in (2, 3, 5):
            assert F.evaluate_exact(s, fgab.cyclic_table(n), 4) == (False, True)

    def test_z4_vs_klein(self):
        z4 = fgab.cyclic_table(4)
        klein = fgab.table_from_invariant_factors((2, 2))
        s4 = fgab.scott_sentence_finite(z4)
        sk = fgab.scott_sentence_finite(klein)
        assert F.evaluate_exact(s4, z4, 4) == (True, True)
        assert F.evaluate_exact(s4, klein, 4) == (False, True)
        assert F.evaluate_exact(sk, klein, 4) == (True, True)
        assert F.evaluate_exact(sk, z4, 4) == (False, True)

    def test_exact_on_all_classes_up_to_8(self):
        tables = fgab.abelian_tables_upto(8)
        for _, t1 in tables:
            s = fgab.scott_sentence_finite(t1)
            for _, t2 in tables:
                truth, exact = F.evaluate_exact(s, t2, 4)
                assert exact
                assert truth == fgab.tables_isomorphic(t1, t2)


class TestInfiniteScott:
    def test_zn_class(self):
        got = F.classify(fgab.scott_sentence_zn(2))
        assert (got.kind, got.level) == ("DSigma", 2)

    def test_zn_rejects_rank_zero(self):
        with pytest.raises(ValueError):
            fgab.scott_sentence_zn(0)

    def test_fg_abelian_class_sweep(self):
        for rank in (1, 2):
            for torsion in ((), (2,), (2, 12), (5,)):
                d = fgab.FgAbelianDesc(rank, torsion)
                s = fgab.scott_sentence_fg_abelian(d) if torsion else \
                    fgab.scott_sentence_zn(rank)
                got = F.classify(s)
                assert (got.kind, got.level) == ("DSigma", 2), (rank, torsion)

    def test_integers_through_fg_emitter(self):
        # rank 1 with empty torsion describes the integers
        s = fgab.scott_sentence_fg_abelian(fgab.FgAbelianDesc(1, ()))
        got = F.classify(s)
        assert (got.kind, got.level) == ("DSigma", 2)

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError):
            fgab.scott_sentence_fg_abelian(fgab.FgAbelianDesc(0, (2,)))

    def test_part_one_embeds_torsion_diagram(self):
        d = fgab.FgAbelianDesc(2, (2,))
        sentence = fgab.scott_sentence_fg_abelian(d)
        part_one = sentence.items[1]
        assert isinstance(part_one, F.Exists)
        inner = part_one.body
        assert isinstance(inner, F.Forall)
        table = fgab.table_from_invariant_factors((2,))
        expected_delta = fgab.delta_formula(table, ("t1", "t2"))
        assert inner.body.items[0] == expected_delta

    def test_independence_sentence_shared_with_zn(self):
        d = fgab.FgAbelianDesc(2, (2,))
        assert fgab.scott_sentence_fg_abelian(d).items[2] == \
            fgab.scott_sentence_zn(2).items[2]

    def test_dependence_on_finite_group_is_true(self):
        # any two elements of a finite abelian group satisfy a relation
        z5 = fgab.cyclic_table(5)
        truth, exact = F.evaluate_exact(fgab.dependence_sentence(1), z5, 40)
        assert (truth, exact) == (True, True)

    def test_torsion_family_refutes_on_finite_group(self):
        z5 = fgab.cyclic_table(5)
        assert F.evaluate_exact(fgab.torsion_free_sentence(), z5, 6) == (False, True)


def lin_value(term, env):
    """A LinTerm's value where each variable names a vector of Fractions."""
    dim = len(next(iter(env.values())))
    return tuple(sum(k * env[var][j] for var, k in term.coeffs) for j in range(dim))


def neg_atomic_holds(member, env):
    assert isinstance(member, F.NegAtomic)
    return lin_value(member.lhs, env) != lin_value(member.rhs, env)


class TestPureSpan:
    """The Z^2 sentence's witness clause: ∃x1 x2 (∀y ⋀ pure-span ∧ independent)."""

    def pure_span_members(self, count):
        pure = fgab.scott_sentence_zn(2).items[2].body.items[0]
        assert isinstance(pure, F.Forall) and pure.vars == ("y",)
        assert pure.body.note.enum_id == "pure-span"
        return F.family_members(pure.body, count)

    def test_member_order(self):
        want = [(k, m) for k in range(2, 5) for m in product(range(k), repeat=2) if any(m)]
        got = []
        for member in self.pure_span_members(len(want)):
            coeffs = dict(member.lhs.coeffs)
            got.append((coeffs["y"], (-coeffs.get("x1", 0), -coeffs.get("x2", 0))))
        assert got == want

    def test_refutes_z_plus_dyadic_rationals(self):
        # in Z ⊕ Z[1/2], no k >= 2 divides x1 = (1, 0) or x2 = (1, 1), and the
        # pair is independent, but 2·(1, 1/2) = x1 + x2: the span is not pure
        x = {"x1": (Fraction(1), Fraction(0)), "x2": (Fraction(1), Fraction(1))}
        halves = [Fraction(h, 2) for h in range(-4, 5)]
        refuted = [(dict(m.lhs.coeffs), y) for m in self.pure_span_members(50)
                   for y in product(halves, repeat=2)
                   if not neg_atomic_holds(m, {**x, "y": y})]
        assert ({"x1": -1, "x2": -1, "y": 2}, (1, Fraction(1, 2))) in refuted

    def test_holds_in_z2_at_the_standard_basis(self):
        x = {"x1": (Fraction(1), Fraction(0)), "x2": (Fraction(0), Fraction(1))}
        for member in self.pure_span_members(200):
            for y in product(range(-5, 6), repeat=2):
                assert neg_atomic_holds(member, {**x, "y": tuple(map(Fraction, y))})


class TestIntTupleOrder:
    def test_deterministic_prefix(self):
        got = [fgab.int_tuple(2, i) for i in range(8)]
        assert got == [(0, 1), (0, -1), (1, 0), (1, 1), (1, -1),
                       (-1, 0), (-1, 1), (-1, -1)]

    def test_zero_inclusion(self):
        assert fgab.int_tuple(2, 0, include_zero=True) == (0, 0)

    def test_matches_sorted_product(self):
        # every tuple with entries in -r..r, by max |k|, then lexicographically
        # in the integer order 0 < 1 < -1 < 2 < -2 < ...
        for n, r in ((1, 30), (2, 6), (3, 3)):
            want = sorted(product(range(-r, r + 1), repeat=n),
                          key=lambda t: (max(map(abs, t)), [(abs(k), k < 0) for k in t]))
            assert [fgab.int_tuple(n, i, include_zero=True) for i in range(len(want))] == want
            assert [fgab.int_tuple(n, i) for i in range(len(want) - 1)] == want[1:]


class TestEmptyVariableFamilies:
    """Over no variables there is no nonzero combination and one combination
    in all, the empty one (whose value is 0)."""
    CASES = [
        ({"t": "fam-and", "enum": "nonzero-combo-neq", "params": {"vars": []}},
         0, "QuantifierFree", True),
        ({"t": "fam-or", "enum": "nonzero-combo-eq", "params": {"vars": []}},
         0, "QuantifierFree", False),
        ({"t": "fam-or", "enum": "all-combo-eq", "params": {"target": "y", "vars": []}},
         1, "Sigma", False),
        ({"t": "fam-and", "enum": "fg-abelian-relations",
          "params": {"rank": 0, "torsion": [], "vars": []}},
         1, "Pi", True),
    ]

    @pytest.mark.parametrize("data,size,kind,truth", CASES)
    def test_render_classify_evaluate(self, data, size, kind, truth):
        f = F.from_json_dict(data)
        assert f.note.size == size
        assert len(F.family_members(f, 5)) == size
        assert F.render(f, "text", 3) and F.render(f, "latex", 3)
        assert F.classify(f).kind == kind
        # y = 0 fails for y = 1 in Z/2; the other three have no free variable
        sentence = F.Forall(("y",), f) if "target" in data["params"] else f
        z2 = fgab.table_from_invariant_factors((2,))
        assert F.evaluate_exact(sentence, z2) == (truth, True)

    def test_z0_has_only_the_empty_tuple(self):
        assert fgab.int_tuple(0, 0, include_zero=True) == ()
        with pytest.raises(IndexError):
            fgab.int_tuple(0, 0)
