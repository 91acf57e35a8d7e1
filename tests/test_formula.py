import collections
import copy
import functools
import gc
import hashlib
import itertools
import json
import random
import re
import sys
import threading
import time

import pytest

from scottgroups import acceptance
from scottgroups import dihedral as D
from scottgroups import fgab
from scottgroups import formula as F
from scottgroups import rank1 as R


X, Y = F.lin({"x": 1}), F.lin({"y": 1})


def classify_pair(f):
    c = F.classify(f)
    return (c.kind, c.level)


class TestClassify:
    def test_atomic_is_quantifier_free(self):
        assert classify_pair(F.Atomic(F.lin({"x": 1}), F.ZERO)) == ("QuantifierFree", 0)

    def test_torsion_free_sentence_is_pi1(self):
        # forall over (atom or infinite conjunction of atoms) stays one block
        assert classify_pair(fgab.torsion_free_sentence()) == ("Pi", 1)

    def test_generating_tuple_sentence_is_sigma3(self):
        s = fgab.scott_sentence_sigma3_fg(fgab.FgAbelianDesc(2, ()))
        assert classify_pair(s) == ("Sigma", 3)

    def test_quantifier_wrap_raises_level(self):
        qf = F.Atomic(F.lin({"x": 1}), F.ZERO)
        fam = F.family("and", "multiple-neq", {"var": "x"})
        assert classify_pair(F.Exists(("x",), fam)) == ("Sigma", 2)
        assert classify_pair(F.Forall(("x",), F.Exists(("y",), qf))) == ("Pi", 2)

    def test_d_sigma_split(self):
        sigma1 = F.Exists(("x",), F.NegAtomic(F.lin({"x": 1}), F.ZERO))
        pi1 = F.Forall(("x",), F.Atomic(F.lin({"x": 1}), F.lin({"x": 1})))
        assert classify_pair(F.conj(sigma1, pi1)) == ("DSigma", 1)

    def test_d_sigma_not_reported_when_one_sided(self):
        pi1 = F.Forall(("x",), F.Atomic(F.lin({"x": 1}), F.lin({"x": 1})))
        assert classify_pair(F.conj(pi1, pi1)) == ("Pi", 1)

    def test_named_sentence_classes(self):
        assert classify_pair(fgab.scott_sentence_zn(2)) == ("DSigma", 2)
        assert classify_pair(D.scott_sentence_dinf()) == ("DSigma", 2)
        assert classify_pair(R.scott_sentence_rationals()) == ("Pi", 2)

    def test_empty_family_is_degenerate(self):
        empty = F.family("and", "rank1-pinf-divisible",
                         {"char": R.char_to_json(R.Z_CHAR), "target": "y"})
        assert empty.note.size == 0
        assert classify_pair(F.Forall(("y",), empty)) == ("Pi", 1)

    def test_connective_over_an_empty_family_is_quantifier_free(self):
        empty = finite_family("and", ())
        assert classify_pair(empty) == ("QuantifierFree", 0)
        assert classify_pair(F.conj(empty, F.Atomic(X, X))) == ("QuantifierFree", 0)
        assert classify_pair(F.disj(F.conj(empty))) == ("QuantifierFree", 0)

    def test_matches_reference_on_random_conjunctions(self):
        rng = random.Random(13)
        infinite = [F.family("and", "multiple-neq", {"var": "x"}),
                    F.family("or", "all-combo-eq", {"target": "x", "vars": ["y"]})]
        for _ in range(3000):
            items = [random_formula(rng, rng.randint(0, 4), ["x", "y"])
                     for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.3:
                block = rng.choice([F.Exists, F.Forall])
                items.append(block(("x",), rng.choice(infinite)))
            f = F.FiniteAnd(tuple(items))
            assert classify_pair(f) == reference_classify(f)

    def test_matches_reference_on_emitted_sentences(self):
        for f in emitted_sentences():
            assert classify_pair(f) == reference_classify(f)

    def test_families_are_shape_uniform(self):
        # classify reads a family's declared member level, not its members
        seen = set()
        for f in emitted_sentences():
            for fam in family_nodes(f):
                seen.add(fam.note.enum_id)
                want = set() if fam.note.size == 0 else {fam.note.level}
                assert {F._levels(m) for m in F.family_members(fam, 40)} == want, fam.note
        tables = [D.FAMILIES, fgab.FAMILIES, R.FAMILIES]
        assert seen == set().union(*tables)
        assert len(seen) == sum(map(len, tables))  # no id is owned twice


def reference_levels(f):
    """Least Sigma and Pi levels, testing every subtree for quantifiers anew.
    An empty family is quantifier-free, also inside a finite connective."""
    def quantifier_free(g):
        if isinstance(g, (F.Atomic, F.NegAtomic)) or (
                isinstance(g, (F.FamilyAnd, F.FamilyOr)) and g.note.size == 0):
            return True
        if isinstance(g, (F.FiniteAnd, F.FiniteOr)):
            return all(quantifier_free(c) for c in g.items)
        return False

    if quantifier_free(f):
        return (0, 0)
    if isinstance(f, (F.FiniteAnd, F.FiniteOr)):
        child = [reference_levels(c) for c in f.items]
        return (max(1, max(s for s, _ in child)), max(1, max(p for _, p in child)))
    if isinstance(f, (F.FamilyAnd, F.FamilyOr)):
        if f.note.size == 0:
            return (0, 0)
        child = [reference_levels(m) for m in F.family_members(f, 8)]
        if isinstance(f, F.FamilyAnd):
            p = max(1, max(pp for _, pp in child))
            return (p + 1, p)
        s = max(1, max(ss for ss, _ in child))
        return (s, s + 1)
    if isinstance(f, F.Exists):
        s = max(1, reference_levels(f.body)[0])
        return (s, s + 1)
    p = max(1, reference_levels(f.body)[1])
    return (p + 1, p)


def reference_classify(f):
    """The least class, trying each d-Sigma level of a conjunction in turn."""
    s, p = reference_levels(f)
    if s == 0 and p == 0:
        return ("QuantifierFree", 0)
    if isinstance(f, F.FiniteAnd):
        for n in range(1, min(s, p)):
            if all(reference_levels(c)[0] <= n or reference_levels(c)[1] <= n
                   for c in f.items):
                return ("DSigma", n)
    return ("Pi", p) if p < s else ("Sigma", s)


def emitted_sentences():
    return [D.scott_sentence_dinf(), fgab.scott_sentence_zn(1), fgab.scott_sentence_zn(3),
            fgab.scott_sentence_fg_abelian(fgab.FgAbelianDesc(2, (2, 4))),
            fgab.scott_sentence_sigma3_fg(fgab.FgAbelianDesc(2, (2,))),
            R.scott_sentence_rationals(),
            *(R.scott_sentence(c) for c in acceptance.ROW_EXAMPLES.values())]


def family_nodes(f):
    """The family nodes of ``f`` outside other families."""
    if isinstance(f, (F.FamilyAnd, F.FamilyOr)):
        return [f]
    if isinstance(f, (F.FiniteAnd, F.FiniteOr)):
        return [fam for c in f.items for fam in family_nodes(c)]
    if isinstance(f, (F.Exists, F.Forall)):
        return family_nodes(f.body)
    return []


def brute_term(t, s, env):
    """Independent term evaluator: plain recursion, powers as repeated products."""
    if isinstance(t, F.OpTerm):
        return s.op[brute_term(t.left, s, env)][brute_term(t.right, s, env)]
    if isinstance(t, F.InvTerm):
        return s.inv[brute_term(t.arg, s, env)]
    acc = s.identity
    for var, k in (t.coeffs if isinstance(t, F.LinTerm) else t.letters):
        for _ in range(abs(k)):
            acc = s.op[acc][env[var] if k > 0 else s.inv[env[var]]]
    return acc


def brute_eval(f, s, env):
    """Independent truth evaluator: plain recursion, no shortcuts."""
    if isinstance(f, F.Atomic):
        return brute_term(f.lhs, s, env) == brute_term(f.rhs, s, env)
    if isinstance(f, F.NegAtomic):
        return brute_term(f.lhs, s, env) != brute_term(f.rhs, s, env)
    if isinstance(f, F.FiniteAnd):
        return all(brute_eval(c, s, env) for c in f.items)
    if isinstance(f, F.FiniteOr):
        return any(brute_eval(c, s, env) for c in f.items)
    if isinstance(f, F.FamilyAnd):
        return all(brute_eval(f.gen(i), s, env) for i in range(f.note.size))
    if isinstance(f, F.FamilyOr):
        return any(brute_eval(f.gen(i), s, env) for i in range(f.note.size))
    if isinstance(f, F.Exists):
        return any(brute_eval(f.body, s, {**env, **dict(zip(f.vars, combo))})
                   for combo in itertools.product(range(s.size), repeat=len(f.vars)))
    if isinstance(f, F.Forall):
        return all(brute_eval(f.body, s, {**env, **dict(zip(f.vars, combo))})
                   for combo in itertools.product(range(s.size), repeat=len(f.vars)))
    raise TypeError(f)


def random_term(rng, scope, depth=2):
    roll = rng.random()
    if depth and roll < 0.2:
        return F.OpTerm(rng.choice([F.ADD, F.MUL]), random_term(rng, scope, depth - 1),
                        random_term(rng, scope, depth - 1))
    if depth and roll < 0.4:
        return F.InvTerm(rng.choice([F.ADD, F.MUL]), random_term(rng, scope, depth - 1))
    if rng.random() < 0.5:
        return F.lin({rng.choice(scope): rng.choice([1, 1, 2, -1]),
                      rng.choice(scope): rng.choice([0, 1, -2])})
    return F.gword([(rng.choice(scope), rng.choice([1, -1]))
                    for _ in range(rng.randint(1, 3))])


def finite_family(kind, members, fresh=False):
    """A family node of exactly ``members``, built without the registry; its
    declared level is the greatest of the members' levels.  A ``fresh``
    family draws a new copy of the member on every call."""
    levels = [F._levels(m) for m in members]
    level = (max((s for s, _ in levels), default=0), max((p for _, p in levels), default=0))
    note = F.FamilyNote("test-members", "{}", len(members), level)
    gen = (lambda i: copy.deepcopy(members[i])) if fresh else members.__getitem__
    return (F.FamilyAnd if kind == "and" else F.FamilyOr)(note, gen)


def term_of_steps(rng, steps):
    """A random term whose (variable, exponent) powers are exactly ``steps``,
    in order: a word, a linear term, an application or an inverse."""
    if not steps:
        return rng.choice([F.ZERO, F.IDENT])
    roll = rng.random()
    if roll < 0.2:
        inverse = [(v, -k) for v, k in reversed(steps)]
        return F.InvTerm(rng.choice([F.ADD, F.MUL]), term_of_steps(rng, inverse))
    if len(steps) > 1 and roll < 0.5:
        cut = rng.randint(1, len(steps) - 1)
        return F.OpTerm(rng.choice([F.ADD, F.MUL]), term_of_steps(rng, steps[:cut]),
                        term_of_steps(rng, steps[cut:]))
    if all(k in (1, -1) for _, k in steps):
        return F.WordTerm(tuple(steps))
    if len({v for v, _ in steps}) == len(steps):
        return F.LinTerm(tuple(steps))
    return F.OpTerm(F.MUL, F.LinTerm((steps[0],)), term_of_steps(rng, steps[1:]))


def random_formula(rng, depth, free_vars):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        scope = free_vars or ["x"]
        rhs = random_term(rng, scope) if rng.random() < 0.5 else rng.choice([F.ZERO, F.IDENT])
        cls = F.Atomic if rng.random() < 0.5 else F.NegAtomic
        return cls(random_term(rng, scope), rhs)
    if roll < 0.45:
        return F.FiniteAnd(tuple(random_formula(rng, depth - 1, free_vars)
                                 for _ in range(rng.randint(1, 3))))
    if roll < 0.6:
        return F.FiniteOr(tuple(random_formula(rng, depth - 1, free_vars)
                                for _ in range(rng.randint(1, 3))))
    if roll < 0.7:
        # fewer members than the bound 8, so the evaluation sees them all
        members = tuple(random_formula(rng, depth - 1, free_vars)
                        for _ in range(rng.randint(0, 4)))
        return finite_family(rng.choice(["and", "or"]), members, rng.random() < 0.5)
    names = tuple(f"v{rng.randint(0, 20)}" for _ in range(rng.randint(1, 3)))
    body = random_formula(rng, depth - 1, free_vars + list(names))
    return (F.Exists if rng.random() < 0.5 else F.Forall)(names, body)


class TestEvaluate:
    def test_finite_scott_sentence_examples(self):
        z2 = fgab.cyclic_table(2)
        z3 = fgab.cyclic_table(3)
        s = fgab.scott_sentence_finite(z2)
        assert F.evaluate_exact(s, z2, 4) == (True, True)
        assert F.evaluate_exact(s, z3, 4) == (False, True)

    def test_family_witness_decides(self):
        z5 = fgab.cyclic_table(5)
        assert F.evaluate_exact(fgab.torsion_free_sentence(), z5, 6) == (False, True)

    def test_truncated_family_is_inexact(self):
        fam = F.family("and", "multiple-neq", {"var": "x"})
        trivial = fgab.cyclic_table(1)
        truth, exact = F.evaluate_exact(F.Forall(("x",), F.disj(
            F.Atomic(F.lin({"x": 1}), F.ZERO), fam)), trivial, 3)
        assert (truth, exact) == (True, True)  # the zero disjunct decides
        # on Z/5 the first three multiples of 1 are nonzero: all-true truncation
        z5 = fgab.cyclic_table(5)
        truth, exact = F.evaluate_exact(F.Exists(("x",), fam), z5, 3)
        assert (truth, exact) == (True, False)
        # a deeper bound reaches the refuting member everywhere
        truth, exact = F.evaluate_exact(F.Exists(("x",), fam), z5, 5)
        assert (truth, exact) == (False, True)
        # a truncated disjunction is exact only by a true member: on Z/5 a
        # nonzero x needs the ninth member, 5·x = 0
        torsion = F.Forall(("x",), F.family("or", "nonzero-combo-eq", {"vars": ["x"]}))
        assert F.evaluate_exact(torsion, z5, 8) == (False, False)
        assert F.evaluate_exact(torsion, z5, 9) == (True, True)
        # members with a quantifier: 2 and 3 divide every element of Z/5, 5 does not
        every = F.Forall(("y",), F.family("and", "primes-divisible", {"target": "y"}))
        assert F.evaluate_exact(every, z5, 2) == (True, False)
        assert F.evaluate_exact(every, z5, 3) == (False, True)
        # in Z/6 no prime before 5 divides 1
        some = F.Forall(("y",), F.family("or", "primes-divisible", {"target": "y"}))
        assert F.evaluate_exact(some, fgab.cyclic_table(6), 2) == (False, False)
        assert F.evaluate_exact(some, fgab.cyclic_table(6), 3) == (True, True)

    def test_family_of_fresh_members_is_evaluated_member_by_member(self):
        # ``gen`` builds a new node on every call; each member is compiled
        # where the family sits, so no state keyed by a node's identity can
        # hand one member another's plan
        def gen(i):
            return F.Atomic(F.lin({"x": i + 1}), F.ZERO)

        torsion = F.FamilyOr(F.FamilyNote("fresh", "{}", 5, (0, 0)), gen)
        sentence = F.Exists(("x",), F.conj(F.NegAtomic(X, F.ZERO), torsion))
        assert F.evaluate_exact(sentence, fgab.cyclic_table(5), 8) == (True, True)

    def test_monotone_once_decided(self):
        z5 = fgab.cyclic_table(5)
        s = fgab.torsion_free_sentence()
        decided = F.evaluate_exact(s, z5, 6)
        for bound in range(6, 16):
            assert F.evaluate_exact(s, z5, bound) == decided

    def test_agrees_with_brute_force(self):
        rng = random.Random(2026)
        tables = [fgab.cyclic_table(n) for n in (1, 2, 3, 4, 5, 6)]
        tables.append(fgab.table_from_invariant_factors((2, 2)))
        tables += [acceptance.dihedral_group(3), acceptance.dihedral_group(4)]  # non-abelian
        for _ in range(2000):
            f = random_formula(rng, rng.randint(0, 3), ["x", "y", "z"])
            s = rng.choice(tables)
            free = _free_vars(f)
            env = {v: rng.randrange(s.size) for v in free}
            want = brute_eval(f, s, env)
            got, exact = F._Evaluation(s, 8, dict(env)).ev(f)
            assert exact is True
            assert got == want

    def test_family_members_drawn_once_per_call(self):
        drawn = collections.Counter()

        def gen(i):
            drawn[i] += 1
            return F.Atomic(F.gword([("x", 1)] * i + [("x", -1)] * i), F.IDENT)

        family = F.FamilyAnd(F.FamilyNote("counted", "{}", None, (0, 0)), gen)
        sentence = F.Forall(("x",), family)
        s3 = acceptance.dihedral_group(3)
        assert F.evaluate_exact(sentence, s3, 5) == (True, False)
        assert drawn == {i: 1 for i in range(5)}  # once, not once per element
        assert F.evaluate_exact(sentence, s3, 5) == (True, False)
        assert drawn == {i: 2 for i in range(5)}  # nothing kept across calls

    @pytest.mark.parametrize("steps", range(8))
    def test_atoms_of_every_step_count_agree_with_brute_force(self, steps):
        # atoms of up to three powers are generated as nested table lookups,
        # longer ones as one flat call; adjacent powers of one variable merge
        # and may cancel
        rng = random.Random(steps)
        tables = [fgab.cyclic_table(6), fgab.table_from_invariant_factors((2, 2)),
                  acceptance.dihedral_group(3), acceptance.dihedral_group(4)]
        names = ("x", "y", "z")
        for cls in (F.Atomic, F.NegAtomic):
            for _ in range(6):
                powers = [(rng.choice(names), rng.choice([1, -1, 2, -2, 3]))
                          for _ in range(steps)]
                cut = rng.randint(0, steps)
                rhs = [(v, -k) for v, k in reversed(powers[cut:])]
                atom = cls(term_of_steps(rng, powers[:cut]), term_of_steps(rng, rhs))
                assert len(F._atom_steps(atom, frozenset(names))) == steps
                for s in tables:
                    for values in itertools.product(range(s.size), repeat=3):
                        env = dict(zip(names, values))
                        want = brute_eval(atom, s, env)
                        assert F._Evaluation(s, 8, dict(env)).ev(atom) == (want, True)
                    # the same atom as the check of a quantifier block's search
                    for y, z in itertools.product(range(s.size), repeat=2):
                        env = {"y": y, "z": z}
                        truths = [brute_eval(atom, s, {**env, "x": x}) for x in range(s.size)]
                        assert (F._Evaluation(s, 8, dict(env)).ev(F.Exists(("x",), atom))
                                == (any(truths), True))
                        assert (F._Evaluation(s, 8, dict(env)).ev(F.Forall(("x",), atom))
                                == (all(truths), True))

    def test_family_node_draws_each_member_once(self, monkeypatch):
        drawn = collections.Counter()

        def member(i):
            return F.Atomic(F.gword([("x", 1)] * i + [("x", -1)] * i), F.IDENT)

        def counted():
            def members():
                for i in itertools.count():
                    drawn[i] += 1
                    yield member(i)
            return members(), None

        monkeypatch.setitem(fgab.FAMILIES, "test-counted", (counted, {}, (0, 0), ()))
        family = F.family("and", "test-counted", {})
        sentence = F.Forall(("x",), family)
        assert classify_pair(sentence) == ("Pi", 1)
        assert not drawn  # classify reads the declared level and draws no member
        F.render(sentence, "text", 5)
        F.render(sentence, "latex", 5)
        s3 = acceptance.dihedral_group(3)
        assert F.evaluate_exact(sentence, s3, 5) == (True, False)
        assert F.evaluate_exact(sentence, s3, 5) == (True, False)
        assert drawn == {i: 1 for i in range(5)}  # kept for as long as the node lives

        later = F.family("and", "test-counted", {})
        assert later is family  # an equal family is the same node, with its members
        assert later.gen(5) == member(5) and later.gen(2) == member(2)
        assert later.gen(5) is later.gen(5)
        assert drawn == {i: 1 for i in range(6)}

    def test_variable_named_twice_in_one_block(self):
        x = F.lin({"x": 1})
        z2 = fgab.cyclic_table(2)
        assert F.evaluate_exact(F.Exists(("x", "x"), F.Atomic(x, F.ZERO)), z2) == (True, True)
        assert F.evaluate_exact(F.Forall(("x", "x"), F.Atomic(x, F.ZERO)), z2) == (False, True)

    def test_bad_bound_rejected(self):
        with pytest.raises(ValueError):
            F.evaluate_exact(F.Atomic(F.ZERO, F.ZERO), fgab.cyclic_table(2), 0)

    @pytest.mark.parametrize("sentence,name", [
        # the false first conjunct settles the conjunction before the block runs
        (F.conj(F.NegAtomic(F.ZERO, F.ZERO), F.Exists(("x",), F.Atomic(X, Y))), "y"),
        # x != x fails at depth 0, so the search never reaches the atom with y
        (F.Exists(("x", "z"), F.conj(F.NegAtomic(X, X), F.Atomic(F.lin({"z": 1}), Y))), "y"),
        # x = x holds at depth 0, so no assignment reaches the atom with y
        (F.Forall(("x", "z"), F.disj(F.Atomic(X, X), F.Atomic(F.lin({"z": 1}), Y))), "y"),
        # of several free variables, the first one compiled is named
        (F.conj(F.Atomic(X, Y), F.Atomic(F.lin({"a": 1}), F.ZERO)), "x"),
    ])
    def test_free_variable_is_rejected_before_evaluation(self, sentence, name):
        with pytest.raises(ValueError, match=f"variable '{name}' is free"):
            F.evaluate_exact(sentence, fgab.cyclic_table(2))

    def test_parts_past_the_parsers_nesting_limit_agree_with_brute_force(self):
        # CPython's parser refuses more than 200 nested brackets in one
        # expression: a formula nested deeper, an atom of more powers and a
        # complete family of more members must evaluate all the same
        rng = random.Random(320)
        s = acceptance.dihedral_group(3)

        def power_atom():
            a, b = rng.sample([1, 2, 3, -1, -2], 2)  # x^a = x^b holds for some x only
            cls = rng.choice([F.Atomic, F.NegAtomic])
            return cls(F.gword([("x", 1 if a > 0 else -1)] * abs(a)),
                       F.gword([("x", 1 if b > 0 else -1)] * abs(b)))

        deep = power_atom()
        for _ in range(320):
            cls = rng.choice([F.FiniteAnd, F.FiniteOr])
            deep = cls((deep, power_atom()) if rng.random() < 0.5 else (power_atom(), deep))
        deep = F.conj(deep, power_atom())  # a Forall keeps a conjunction whole
        letters = [(("x", "y")[i % 2], rng.choice([1, -1])) for i in range(400)]
        long_atom = F.Atomic(F.WordTerm(tuple(letters[:250])),
                             F.InvTerm(F.MUL, F.WordTerm(tuple(letters[250:]))))
        assert len(F._atom_steps(long_atom, frozenset("xy"))) == 400
        # x^(6i+1) = x holds throughout D3, so every member is drawn; the last
        # one holds for the rotations only
        members = [F.Atomic(F.gword([("x", 1)] * (6 * i + 1)), F.lin({"x": 1}))
                   for i in range(299)] + [F.Atomic(F.gword([("x", 1)] * 3), F.IDENT)]
        wide = finite_family("and", members)
        for sentence, bound in [(F.Forall(("x",), deep), 8), (F.Exists(("x",), deep), 8),
                                (F.Forall(("x", "y"), long_atom), 8),
                                (F.Exists(("x", "y"), long_atom), 8),
                                (F.Forall(("x",), wide), 300), (F.Exists(("x",), wide), 300)]:
            assert F.evaluate_exact(sentence, s, bound) == (brute_eval(sentence, s, {}), True)


    def test_forall_naming_only_some_pairs_goes_through_the_search(self):
        # the disjuncts leave y0 = y2 out, so this is not "some two coincide"
        # and the cardinality shortcut must not answer it
        y = {v: F.lin({v: 1}) for v in ("y0", "y1", "y2")}
        sentence = F.Forall(("y0", "y1", "y2"), F.FiniteOr(
            (F.Atomic(y["y0"], y["y1"]), F.Atomic(y["y1"], y["y2"]))))
        tables = [fgab.cyclic_table(n) for n in range(1, 7)] + [acceptance.dihedral_group(3)]
        for s in tables:
            assert F._all_distinct_shortcut(sentence, s) is None
            assert F.evaluate_exact(sentence, s) == (brute_eval(sentence, s, {}), True)
        assert [F.evaluate_exact(sentence, s)[0] for s in tables] == [True] + [False] * 6


class TestSharedNodes:
    """A node object used at several places is compiled at each of them."""

    TABLES = [fgab.cyclic_table(n) for n in range(1, 7)]
    HALF = F.Exists(("y",), F.Atomic(F.lin({"y": 2}), X))  # x is a double

    def agree(self, sentence):
        for s in self.TABLES:
            assert F.evaluate_exact(sentence, s) == (brute_eval(sentence, s, {}), True)

    def test_one_node_twice_in_a_conjunction(self):
        inner = F.disj(self.HALF, F.Atomic(F.lin({"x": 3}), F.ZERO))
        self.agree(F.Forall(("x",), F.conj(inner, inner)))
        self.agree(F.Forall(("x",), F.conj(self.HALF, self.HALF)))

    def test_one_block_under_two_blocks(self):
        z = F.lin({"z": 1})
        self.agree(F.conj(F.Forall(("x",), self.HALF),
                          F.Exists(("x", "z"), F.conj(self.HALF, F.NegAtomic(z, X)))))
        self.agree(F.disj(F.Forall(("x",), self.HALF),
                          F.Exists(("z", "x"), F.conj(F.NegAtomic(X, F.ZERO), self.HALF,
                                                      F.Atomic(F.lin({"x": 1, "z": 1}), z)))))

    @pytest.mark.parametrize("member", [HALF, F.Atomic(F.lin({"x": 3}), F.ZERO)])
    def test_family_of_one_shared_member(self, member):
        note = F.FamilyNote("shared", "{}", 4, F._levels(member))
        shared = F.FamilyOr(note, lambda i: member)
        self.agree(F.Forall(("x",), shared))
        self.agree(F.Exists(("x",), F.conj(F.NegAtomic(X, F.ZERO), shared)))

    def test_evaluation_leaves_no_cycle(self):
        sentences = emitted_sentences()
        s = acceptance.dihedral_group(3)
        gc.collect()
        gc.disable()
        try:
            for f in sentences:
                F.evaluate_exact(f, s, 5)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestInterning:
    """``family`` returns one node per distinct family, with its drawn members."""

    CHAR = {"exceptions": {"7": 2}, "default": {"residue": ["zero", "inf"]}}

    def test_equal_params_give_the_identical_node(self):
        pair = F.family("and", "dinf-relations", {"pair": ["x1", "x2"]})
        assert F.family("and", "dinf-relations", {"pair": ["x1", "x2"]}) is pair
        triples = F.family("or", "dinf-generating-triples",
                           {"pair": ["x1", "x2"], "targets": ["u", "v", "w"]})
        assert F.family("or", "dinf-generating-triples",
                        {"targets": ["u", "v", "w"], "pair": ["x1", "x2"]}) is triples
        lam = F.family("or", "rank1-lambda-exists", {"char": self.CHAR, "var": "x"})
        reordered = {"default": {"residue": ["zero", "inf"]}, "exceptions": {"7": 2}}
        assert F.family("or", "rank1-lambda-exists", {"var": "x", "char": reordered}) is lam

    def test_another_kind_params_or_builder_gives_another_node(self, monkeypatch):
        node = F.family("and", "multiple-neq", {"var": "x"})
        assert F.family("or", "multiple-neq", {"var": "x"}) is not node
        assert F.family("and", "multiple-neq", {"var": "y"}) is not node
        extra = F.family("and", "multiple-neq", {"var": "x", "note": 1})
        assert extra is not node and extra.note.params == '{"note": 1, "var": "x"}'
        marker = F.Atomic(F.lin({"x": 1}), F.lin({"x": 1}))
        _, kinds, level, bound = fgab.FAMILIES["multiple-neq"]
        with monkeypatch.context() as m:
            m.setitem(fgab.FAMILIES, "multiple-neq",
                      (lambda var: (itertools.repeat(marker), None), kinds, level, bound))
            patched = F.family("and", "multiple-neq", {"var": "x"})
            assert patched is not node and patched.gen(0) is marker
        assert F.family("and", "multiple-neq", {"var": "x"}) is node
        assert node.gen(0) != marker

    def test_params_that_are_not_json_values_are_never_kept(self):
        # a tuple writes as a list would, but the characteristic decoder refuses it
        good = {"exceptions": {}, "default": {"linear": [1, 1]}}
        bad = {"exceptions": {}, "default": {"linear": (1, 1)}}
        node = F.family("or", "rank1-lambda-exists", {"char": good, "var": "x"})
        for _ in range(2):
            with pytest.raises(ValueError, match="malformed rule"):
                F.family("or", "rank1-lambda-exists", {"char": bad, "var": "x"})
        # a tuple where the declared kind wants a list is refused as before
        with pytest.raises(ValueError, match="must be a list of two strings"):
            F.family("and", "dinf-relations", {"pair": ("x1", "x2")})
        assert F.family("or", "rank1-lambda-exists", {"char": good, "var": "x"}) is node

    @pytest.mark.parametrize("name", [name for name, _, _ in acceptance.classifier_cases()])
    def test_loads_returns_the_emitted_family_nodes(self, name):
        sentence = {n: s for n, s, _ in acceptance.classifier_cases()}[name]
        emitted = family_nodes(sentence)
        loaded = family_nodes(F.loads(F.dumps(sentence)))
        assert emitted and len(loaded) == len(emitted)
        assert all(a is b for a, b in zip(loaded, emitted))

    def test_members_equal_those_of_a_fresh_builder(self):
        tables = (D.FAMILIES, fgab.FAMILIES, R.FAMILIES)
        nodes = {id(n): n for f in emitted_sentences() for n in family_nodes(f)}
        assert len(nodes) >= 10
        for node in nodes.values():
            builder, kinds, _, _ = next(t[node.note.enum_id] for t in tables
                                        if node.note.enum_id in t)
            params = json.loads(node.note.params)
            members, size = builder(**{k: tuple(v) if isinstance(v, list) else v
                                       for k, v in params.items() if k in kinds})
            assert size == node.note.size
            fresh = list(itertools.islice(members, 20 if size is None else min(20, size)))
            assert F.family_members(node, 20) == fresh

    def test_the_table_holds_no_more_than_its_bound(self):
        limit = F.FAMILY_NODE_LIMIT
        nodes = []
        for i in range(limit + 10):
            nodes.append(F.family("and", "multiple-neq", {"var": f"bound{i}"}))
            assert len(F._FAMILY_NODES) <= limit
        assert len(F._FAMILY_NODES) == limit
        assert F.family("and", "multiple-neq", {"var": f"bound{limit + 9}"}) is nodes[-1]
        assert F.family("and", "multiple-neq", {"var": "bound0"}) is not nodes[0]  # oldest out

    def test_concurrent_calls_agree(self, monkeypatch):
        def slow(var):  # a wide window between the lookup and the insertion
            time.sleep(0.001)
            return (F.Atomic(F.lin({var: k}), F.ZERO) for k in itertools.count(1)), None

        monkeypatch.setitem(fgab.FAMILIES, "test-slow", (slow, {"var": "name"}, (0, 0), ()))
        names = [f"t{i}" for i in range(20)]
        got = {var: [] for var in names}

        def worker():
            for var in names:
                node = F.family("and", "test-slow", {"var": var})
                got[var].append((node, node.gen(3)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for var in names:
            assert len(got[var]) == 8
            node, member = got[var][0]
            assert all(n is node and m is member for n, m in got[var])
            assert F.family("and", "test-slow", {"var": var}) is node


    def test_concurrent_member_draws_agree(self):
        # four threads draw the members of the same fresh nodes at once
        vars = {n: [f"race{n}_{k}" for k in range(n)] for n in range(5, 12)}
        got, faults = [], []

        def worker():
            try:
                got.append([F.family_members(F.family("and", "nonzero-combo-neq",
                                                      {"vars": vars[n]}), 400)
                            for n in vars])
            except Exception as exc:  # a thread's exception would not reach the test
                faults.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert faults == []
        assert len(got) == 4 and all(g == got[0] for g in got)
        for n, members in zip(vars, got[0]):
            combos = [tuple(dict(m.lhs.coeffs).get(v, 0) for v in vars[n]) for m in members]
            assert combos == [fgab.int_tuple(n, i) for i in range(400)]


# sample params for every FAMILIES id: widths 0-3, six characteristics
PINNED_CHARS = [
    {"exceptions": {}, "default": "inf"},  # Q
    {"exceptions": {}, "default": "zero"},  # Z
    {"exceptions": {"7": 2}, "default": {"residue": ["zero", "inf"]}},
    {"exceptions": {"2": 3}, "default": "inf"},
    {"exceptions": {"2": "inf", "5": "inf", "3": 1}, "default": "zero"},
    {"exceptions": {"3": "inf"}, "default": {"residue": [{"linear": [1, 0]}, "inf", "zero"]}},
]


def pinned_family_params():
    names = [[f"v{k}" for k in range(n)] for n in range(4)]
    yield "dinf-generating-triples", {"pair": ["x1", "x2"], "targets": ["u", "v", "w"]}
    yield "dinf-relations", {"pair": ["x1", "x2"]}
    yield "dinf-imprimitive-pairs", {"pair": ["x1", "x2"], "others": ["y1", "y2"]}
    yield "multiple-neq", {"var": "x"}
    for vs in names:
        yield "pure-span", {"targets": vs, "witness": "w"}
        yield "nonzero-combo-neq", {"vars": vs}
        yield "nonzero-combo-eq", {"vars": vs}
        yield "all-combo-eq", {"target": "t", "vars": vs}
    for rank, torsion in ((0, []), (1, []), (0, [2]), (1, [2]), (0, [2, 4]), (2, [3])):
        yield "fg-abelian-relations", {"rank": rank, "torsion": torsion,
                                       "vars": names[rank + len(torsion)]}
    for c in PINNED_CHARS:
        yield "rank1-lambda-exists", {"char": c, "var": "x"}
        yield "rank1-lambda-onto", {"char": c, "var": "x", "target": "y"}
        yield "rank1-pinf-divisible", {"char": c, "target": "y"}
        yield "rank1-non-pinf-indivisible", {"char": c, "var": "x"}
    yield "primes-divisible", {"target": "y"}


def test_every_family_keeps_its_pinned_members():
    digest = hashlib.sha256()
    for enum_id, params in pinned_family_params():
        node = F.family("and", enum_id, params)
        digest.update(f"{F.dumps(node)} {node.note.size}\n".encode())
        for m in F.family_members(node, 40):
            digest.update((F.dumps(m) + "\n").encode())
    assert {enum_id for enum_id, _ in pinned_family_params()} == {
        *D.FAMILIES, *fgab.FAMILIES, *R.FAMILIES}
    assert digest.hexdigest() == \
        "894538a1d890fa118409b2401054c043241cce0bc9b84bbc1d084c46be2c0049"


class TestGeneratedCode:
    def test_generated_source_carries_no_formula_data(self, monkeypatch):
        sources = []  # every source compiled or looked up, not only those still cached
        code = F._code
        monkeypatch.setattr(F, "_code", lambda source: sources.append(source) or code(source))
        hostile = "x'] or __import__('os').getpid() or env['"
        text = json.dumps({"t": "all", "vars": [hostile, '"'], "body": {"t": "or", "items": [
            {"t": "atom", "lhs": {"word": [[hostile, 1], ['"', 1], [hostile, 1]]},
             "rhs": {"word": [['"', 1]]}},
            {"t": "natom", "lhs": {"lin": [[hostile, 2]]}, "rhs": {"lin": [['"', -3]]}}]}})
        key = (2, ("y", 3))
        hand = F.Exists((1, key), F.conj(
            F.Atomic(F.WordTerm(((1, 1), (key, 1), (1, 1))), F.WordTerm(((key, 1),))),
            F.NegAtomic(F.LinTerm(((1, 3),)), F.IDENT)))
        tables = [fgab.cyclic_table(4), fgab.table_from_invariant_factors((2, 2)),
                  acceptance.dihedral_group(3)]
        for sentence in (F.loads(text), hand):
            for s in tables:
                assert F.evaluate_exact(sentence, s) == (brute_eval(sentence, s, {}), True)
        for f in emitted_sentences():
            F.evaluate_exact(f, tables[-1], 5)
        # every source: generated names, the operators and brackets the
        # generator writes, and integer literals
        words = {"lambda", "and", "or", "if", "else", "True", "False", "env", "op", "e",
                 "fold"}
        assert sources
        for source in sources:
            for token in re.findall(r"\w+|\S", source):
                assert (token in words or re.fullmatch(r"[VTF]\d+|\d+", token)
                        or token in "[](),:=!"), (token, source)

    def test_code_cache_holds_at_most_its_bound(self, monkeypatch):
        assert F._code.cache_parameters()["maxsize"] == 512
        monkeypatch.setattr(F, "_code", functools.lru_cache(maxsize=4)(F._code.__wrapped__))
        s = acceptance.dihedral_group(3)
        # one distinct source each: a conjunction of the atoms x^1 = e ... x^n = e
        sentences = [F.Forall(("x",), F.conj(*(F.Atomic(F.gword([("x", 1)] * k), F.IDENT)
                                               for k in range(1, n + 2))))
                     for n in range(10)]
        want = [(brute_eval(f, s, {}), True) for f in sentences]
        assert F.evaluate_exact(sentences[0], s) == want[0]
        assert F._code.cache_info().currsize > 0
        for f, answer in zip(sentences, want):
            assert F.evaluate_exact(f, s) == answer
            assert F._code.cache_info().currsize <= 4
        misses = F._code.cache_info().misses
        assert F.evaluate_exact(sentences[0], s) == want[0]
        assert F._code.cache_info().misses > misses  # evicted: it compiles again

    def test_code_cache_keeps_its_bound_across_threads(self, monkeypatch):
        monkeypatch.setattr(F, "_code", functools.lru_cache(maxsize=3)(F._code.__wrapped__))
        s = acceptance.dihedral_group(3)
        sentences = [F.Exists(("x",), F.conj(*(F.NegAtomic(F.gword([("x", 1)] * k), F.IDENT)
                                               for k in range(1, n + 2))))
                     for n in range(8)]
        want = [(brute_eval(f, s, {}), True) for f in sentences]
        faults = []

        def work(seed):
            rng = random.Random(seed)
            try:
                for _ in range(60):
                    i = rng.randrange(len(sentences))
                    if F.evaluate_exact(sentences[i], s) != want[i]:
                        faults.append(i)
                    if F._code.cache_info().currsize > 3:
                        faults.append("size")
            except Exception as exc:  # a thread's exception would not reach the test
                faults.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not faults and F._code.cache_info().currsize <= 3


def _term_vars(t):
    if isinstance(t, F.OpTerm):
        return _term_vars(t.left) | _term_vars(t.right)
    if isinstance(t, F.InvTerm):
        return _term_vars(t.arg)
    return {var for var, _ in (t.coeffs if isinstance(t, F.LinTerm) else t.letters)}


def _free_vars(f, bound=frozenset()):
    if isinstance(f, (F.Atomic, F.NegAtomic)):
        return (_term_vars(f.lhs) | _term_vars(f.rhs)) - bound
    if isinstance(f, (F.FiniteAnd, F.FiniteOr)):
        out = set()
        for c in f.items:
            out |= _free_vars(c, bound)
        return out
    if isinstance(f, (F.FamilyAnd, F.FamilyOr)):
        return _free_vars(F.FiniteAnd(tuple(F.family_members(f, f.note.size))), bound)
    if isinstance(f, (F.Exists, F.Forall)):
        return _free_vars(f.body, bound | set(f.vars))
    raise TypeError(f)


class TestRender:
    def test_atomic_text(self):
        assert F.render(F.Atomic(F.lin({"x": 1}), F.ZERO)) == "x = 0"

    def test_family_shows_note_and_ellipsis(self):
        out = F.render(fgab.torsion_free_sentence(), "text", 2)
        assert "multiple-neq" in out and "…" in out

    def test_zn_sentence_shows_both_family_markers(self):
        out = F.render(fgab.scott_sentence_zn(1), "text", 2)
        assert "⋀" in out and "⋁" in out

    def test_latex_delimiters_balanced(self):
        for sentence in (fgab.scott_sentence_zn(1), D.scott_sentence_dinf(),
                         R.scott_sentence_rationals()):
            out = F.render(sentence, "latex", 2)
            assert out.startswith(r"\[") and out.endswith(r"\]")
            assert out.count("(") == out.count(")")
            assert out.count("{") == out.count("}")

    def test_empty_connectives_render_as_constants(self):
        assert F.render(F.FiniteAnd(())) == "⊤"
        assert F.render(F.FiniteOr(())) == "⊥"
        assert F.render(F.FiniteAnd(()), "latex") == r"\[ \top \]"
        assert F.render(F.FiniteOr(()), "latex") == r"\[ \bot \]"

    def test_deterministic(self):
        s = fgab.scott_sentence_zn(2)
        assert F.render(s, "text", 3) == F.render(s, "text", 3)


def reference_term_json(t):
    """Independent JSON oracle for terms: the nested data the text writer
    must write, built as dicts and lists."""
    if isinstance(t, F.LinTerm):
        return {"lin": [[v, k] for v, k in t.coeffs]}
    if isinstance(t, F.WordTerm):
        return {"word": [[v, e] for v, e in t.letters]}
    if isinstance(t, F.OpTerm):
        return {"op": t.kind, "left": reference_term_json(t.left),
                "right": reference_term_json(t.right)}
    if isinstance(t, F.InvTerm):
        return {"inv": t.kind, "arg": reference_term_json(t.arg)}
    raise TypeError(t)


def reference_json(f):
    """Independent JSON oracle for formulas; family params come from parsing
    the note, not from splicing its text."""
    if isinstance(f, (F.Atomic, F.NegAtomic)):
        return {"t": "atom" if isinstance(f, F.Atomic) else "natom",
                "lhs": reference_term_json(f.lhs), "rhs": reference_term_json(f.rhs)}
    if isinstance(f, (F.FiniteAnd, F.FiniteOr)):
        return {"t": "and" if isinstance(f, F.FiniteAnd) else "or",
                "items": [reference_json(c) for c in f.items]}
    if isinstance(f, (F.FamilyAnd, F.FamilyOr)):
        return {"t": "fam-and" if isinstance(f, F.FamilyAnd) else "fam-or",
                "enum": f.note.enum_id, "params": json.loads(f.note.params)}
    if isinstance(f, (F.Exists, F.Forall)):
        return {"t": "ex" if isinstance(f, F.Exists) else "all", "vars": list(f.vars),
                "body": reference_json(f.body)}
    raise TypeError(f)


ODD_NAMES = ('x"y', "α1", "t\n", "x10", "back\\slash", "")


def hand_built_formulas():
    """Nodes no emitter builds: names that need escaping, explicit
    operations and inverses, empty connectives and terms."""
    lin = F.LinTerm(tuple((v, (-1) ** i * (i + 1)) for i, v in enumerate(ODD_NAMES)))
    word = F.WordTerm(tuple((v, (-1) ** i) for i, v in enumerate(ODD_NAMES)))
    mul = F.OpTerm(F.MUL, word, F.InvTerm(F.MUL, F.OpTerm(F.MUL, word, F.IDENT)))
    add = F.OpTerm(F.ADD, lin, F.InvTerm(F.ADD, F.ZERO))
    body = F.conj(F.Atomic(mul, F.IDENT), F.NegAtomic(add, lin), F.conj(), F.disj(),
                  F.disj(F.Atomic(F.ZERO, F.IDENT)))
    return [body, F.Exists(ODD_NAMES[:-1], body), F.Forall(("α1",), F.disj(body, F.conj())),
            F.family("and", "multiple-neq", {"var": 'x"y'}),
            F.family("or", "nonzero-combo-eq", {"vars": list(ODD_NAMES[:4])}),
            F.conj(), F.disj(), F.Atomic(F.ZERO, F.IDENT)]


class TestJson:
    def test_text_writer_matches_the_dict_oracle(self):
        sentences = emitted_sentences() + [
            fgab.scott_sentence_finite(t) for t in (fgab.cyclic_table(4),
                                                    acceptance.dihedral_group(3))]
        for f in sentences + hand_built_formulas():
            want = reference_json(f)
            assert F.dumps(f) == json.dumps(want, sort_keys=True)
            assert F.to_json_dict(f) == want

    def test_hand_built_formulas_round_trip(self):
        for f in hand_built_formulas():
            text = F.dumps(f)
            assert F.dumps(F.loads(text)) == text

    @pytest.mark.parametrize("kind", [5, None, {"b": [1], "a": None}, "Add", ""])
    def test_operation_kind_other_than_add_or_mul_is_rejected(self, kind):
        with pytest.raises(ValueError, match="operation kind must be 'add' or 'mul'"):
            F.OpTerm(kind, F.ZERO, F.IDENT)
        with pytest.raises(ValueError, match="operation kind must be 'add' or 'mul'"):
            F.InvTerm(kind, F.ZERO)
        for term in ({"op": kind, "left": {"lin": []}, "right": {"word": []}},
                     {"inv": kind, "arg": {"lin": []}}):
            with pytest.raises(ValueError, match="operation kind must be 'add' or 'mul'"):
                F.from_json_dict({"t": "atom", "lhs": term, "rhs": {"lin": []}})

    def test_writer_rejects_what_is_not_a_node(self):
        with pytest.raises(TypeError):
            F.dumps(F.Atomic("x", F.ZERO))
        with pytest.raises(TypeError):
            F.dumps(F.conj(F.ZERO))

    def test_round_trip_plain(self):
        s = fgab.scott_sentence_finite(fgab.cyclic_table(3))
        assert F.from_json_dict(F.to_json_dict(s)) == s

    def test_round_trip_with_families(self):
        for sentence in (fgab.scott_sentence_zn(2),
                         D.scott_sentence_dinf(),
                         R.scott_sentence_dsigma2(R.char({2: R.INF})),
                         R.scott_sentence_sigma3(R.Z_CHAR)):
            again = F.loads(F.dumps(sentence))
            assert again == sentence
            assert classify_pair(again) == classify_pair(sentence)

    def test_family_params_text_is_canonical(self):
        # every declared family, with a parameter it does not declare and
        # names that JSON escapes
        fresh = (f"ω{i}" for i in itertools.count())
        sample = {"name": lambda: next(fresh), "names": lambda: [next(fresh), next(fresh)],
                  "pair": lambda: [next(fresh), next(fresh)],
                  "triple": lambda: [next(fresh), next(fresh), next(fresh)],
                  "int": lambda: 1, "ints": lambda: [2],
                  "object": lambda: R.char_to_json(R.char({2: R.INF, 3: 1}))}
        for table in (D.FAMILIES, fgab.FAMILIES, R.FAMILIES):
            for enum_id, (_, kinds, _, _) in table.items():
                params = {key: sample[kind]() for key, kind in kinds.items()}
                params["zé"] = {"b": [None, True, -1.5, "\u2200\n"], "a": {}}
                for kind in ("and", "or"):
                    f = F.family(kind, enum_id, params)
                    assert f.note.params == json.dumps(params, sort_keys=True)
                    text = F.dumps(f)
                    assert F.dumps(F.loads(text)) == text
                    assert F.loads(text).note == f.note

    def test_unknown_enum_rejected(self):
        with pytest.raises(KeyError):
            F.from_json_dict({"t": "fam-and", "enum": "no-such-family", "params": {}})


class TestStructure:
    def test_rejects_non_associative(self):
        with pytest.raises(ValueError):
            F.FiniteStructure.from_table([[0, 1], [1, 1]])

    def test_rejects_missing_identity(self):
        with pytest.raises(ValueError):
            F.FiniteStructure.from_table([[0, 0], [0, 0]])

    def test_power_matches_repeated_addition(self):
        t = fgab.cyclic_table(7)
        for x in range(7):
            acc = t.identity
            for k in range(1, 15):
                acc = t.apply(acc, x)
                assert t.power(x, k) == acc
            assert t.power(x, -3) == t.inv[t.power(x, 3)]
