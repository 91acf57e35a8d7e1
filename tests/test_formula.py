import collections
import itertools
import random

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
        # classify reads only the first few members of a family
        seen = set()
        for f in emitted_sentences():
            for fam in family_nodes(f):
                seen.add(fam.note.enum_id)
                assert len({F._levels(m) for m in F.family_members(fam, 40)}) <= 1, fam.note
        assert seen == set(F._REGISTRY)


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
        child = [reference_levels(m) for m in F.family_members(f, F._CLASSIFY_PROBE)]
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


def finite_family(kind, members):
    """A family node of exactly ``members``, built without the registry."""
    note = F.FamilyNote("test-members", "{}", len(members))
    return (F.FamilyAnd if kind == "and" else F.FamilyOr)(note, members.__getitem__)


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
        return finite_family(rng.choice(["and", "or"]), members)
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

        family = F.FamilyAnd(F.FamilyNote("counted", "{}", None), gen)
        sentence = F.Forall(("x",), family)
        s3 = acceptance.dihedral_group(3)
        assert F.evaluate_exact(sentence, s3, 5) == (True, False)
        assert drawn == {i: 1 for i in range(5)}  # once, not once per element
        assert F.evaluate_exact(sentence, s3, 5) == (True, False)
        assert drawn == {i: 2 for i in range(5)}  # nothing kept across calls

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

    def test_deterministic(self):
        s = fgab.scott_sentence_zn(2)
        assert F.render(s, "text", 3) == F.render(s, "text", 3)


class TestJson:
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
