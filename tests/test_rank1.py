import random
from fractions import Fraction
from itertools import islice

import pytest

from scottgroups import formula as F
from scottgroups import rank1 as R

CASE2 = R.char(default=("linear", 1, 0))   # exponent of the i-th prime is i
ROW1 = R.char({2: R.INF})
ROW3 = R.char({2: 0, 3: 5}, default=R.INF_RULE)
ROW4 = R.char(default=("residue", (("linear", 1, 1), R.INF_RULE)))
ROW5 = R.char(default=("residue", (R.ZERO_RULE, R.INF_RULE)))
ROW6 = R.char(default=("residue", (R.ZERO_RULE, ("linear", 1, 1))))
ROW7 = R.char(default=("residue", (R.ZERO_RULE, ("linear", 1, 1), R.INF_RULE)))


class TestExponent:
    def test_integers(self):
        assert R.exponent(R.Z_CHAR, 7) == 0

    def test_rationals(self):
        assert R.exponent(R.Q_CHAR, 2) == R.INF

    def test_indexed_rule(self):
        assert R.exponent(CASE2, 7) == 3  # 7 is the prime of index 3

    def test_rejects_composites(self):
        with pytest.raises(ValueError):
            R.exponent(R.Z_CHAR, 6)

    def test_exceptions_override(self):
        c = R.char({3: 9}, default=R.INF_RULE)
        assert R.exponent(c, 3) == 9
        assert R.exponent(c, 5) == R.INF


class TestContains:
    def test_integer_group(self):
        assert not R.contains(R.Z_CHAR, Fraction(1, 2))
        assert R.contains(R.Z_CHAR, Fraction(3))

    def test_dyadic(self):
        assert R.contains(R.char({2: R.INF}), Fraction(5, 8))
        assert not R.contains(R.char({2: 2}), Fraction(5, 8))

    def test_closed_under_addition_and_negation(self):
        rng = random.Random(23)
        group = R.char({2: R.INF, 3: 2})
        members = []
        while len(members) < 40:
            q = Fraction(rng.randint(-40, 40), rng.randint(1, 72))
            if R.contains(group, q):
                members.append(q)
        for _ in range(200):
            a, b = rng.choice(members), rng.choice(members)
            assert R.contains(group, a + b)
            assert R.contains(group, -a)


class TestPartition:
    def test_rationals(self):
        part = R.partition(R.Q_CHAR, 30)
        assert part.pinf == tuple(R.primes_upto(30))
        assert (part.p0_infinite, part.pfin_infinite, part.pinf_infinite) == \
            (False, False, True)

    def test_indexed_rule_char(self):
        part = R.partition(CASE2, 30)
        assert part.p0 == (2,)  # the index-0 prime has exponent 0
        assert part.pinf == ()
        assert (part.p0_infinite, part.pfin_infinite, part.pinf_infinite) == \
            (False, True, False)

    def test_exception_driven(self):
        part = R.partition(R.char({2: R.INF, 3: 1}), 20)
        assert part.pfin == (3,) and part.pinf == (2,)
        assert part.p0_infinite and not part.pfin_infinite and not part.pinf_infinite


class TestIsomorphism:
    def test_finite_rescale(self):
        assert R.is_isomorphic(R.Z_CHAR, R.char({2: 5}))

    def test_distinct_infinity_sets(self):
        assert not R.is_isomorphic(R.Z_CHAR, R.Q_CHAR)

    def test_exception_removed_from_rule(self):
        assert R.is_isomorphic(CASE2, R.char({2: 7}, default=("linear", 1, 0)))

    def test_different_rules_disagree_everywhere(self):
        assert not R.is_isomorphic(CASE2, R.char(default=("linear", 1, 1)))

    def test_reflexive_symmetric_transitive_samples(self):
        rng = random.Random(9)
        pool = [R.Z_CHAR, R.Q_CHAR, CASE2, ROW1, ROW3, ROW4, ROW5, ROW6, ROW7,
                R.char({2: 5}), R.char({2: 3, 5: R.INF}),
                R.char({7: 0}, default=R.INF_RULE)]
        for c in pool:
            assert R.is_isomorphic(c, c)
        for _ in range(60):
            a, b, c = (rng.choice(pool) for _ in range(3))
            assert R.is_isomorphic(a, b) == R.is_isomorphic(b, a)
            if R.is_isomorphic(a, b) and R.is_isomorphic(b, c):
                assert R.is_isomorphic(a, c)


class TestClassify:
    def test_all_rows(self):
        expect = {
            "All0": (R.Z_CHAR, "dSigma02", "dSigma02", "dSigma2"),
            "AllInf": (R.Q_CHAR, "Pi02", "Pi02", "Pi2"),
            1: (ROW1, "dSigma02", "dSigma02", "dSigma2"),
            2: (CASE2, "Sigma03", "Sigma03", "Sigma3"),
            3: (ROW3, "dSigma02", "dSigma02", "dSigma2"),
            4: (ROW4, "dSigma02", "Sigma03", "Sigma3"),
            5: (ROW5, "dSigma02", "Sigma03", "Sigma3"),
            6: (ROW6, "Sigma03", "Sigma03", "Sigma3"),
            7: (ROW7, "dSigma02", "Sigma03", "Sigma3"),
        }
        for row, (c, lower, upper, rec) in expect.items():
            cls = R.classify(c)
            assert (cls.case.row, cls.lower, cls.upper, cls.recommendation) == \
                (row, lower, upper, rec)

    def test_case_flags_consistent(self):
        cls = R.classify(ROW4)
        assert (cls.case.p0, cls.case.pfin, cls.case.pinf) == \
            ("finite", "infinite", "infinite")


class TestDerivedChars:
    def test_extend(self):
        assert R.exponent(R.extend_infinite_at(R.Z_CHAR, 2), 2) == R.INF

    def test_kill(self):
        assert R.exponent(R.kill_prime_at(R.Q_CHAR, 3), 3) == 0

    def test_triple_separation(self):
        g = R.char({2: R.INF, 3: 1})
        h = R.extend_infinite_at(g, 3)
        k = R.kill_prime_at(g, 2)
        assert not R.is_isomorphic(h, g)
        assert not R.is_isomorphic(g, k)
        assert not R.is_isomorphic(h, k)

    def test_commute_at_distinct_primes(self):
        g = R.char({2: R.INF, 3: 1})
        assert R.kill_prime_at(R.extend_infinite_at(g, 5), 2) == \
            R.extend_infinite_at(R.kill_prime_at(g, 2), 5)

    def test_rescale_removes_finite_part(self):
        base = R.remove_finite_part(ROW3)
        assert R.partition(base, 60).pfin == ()
        assert R.is_isomorphic(base, ROW3)

    def test_rescale_requires_finite_pfin(self):
        with pytest.raises(ValueError):
            R.remove_finite_part(CASE2)


class TestLambdaEnumeration:
    def test_integers_only_for_z(self):
        members = [R.lambda_member(R.Z_CHAR, i) for i in range(10)]
        assert all(q.denominator == 1 for q in members)

    def test_dyadic_members(self):
        members = [R.lambda_member(R.char({2: R.INF}), i) for i in range(16)]
        assert Fraction(1, 2) in members and Fraction(1, 4) in members

    def test_order_is_stable(self):
        first = [R.lambda_member(CASE2, i) for i in range(12)]
        again = [R.lambda_member(CASE2, i) for i in range(12)]
        assert first == again

    def test_enumerations_match_filters(self):
        rationals = list(islice(R._rationals_diagonal(), 3000))
        primes = R.primes_upto(600)
        for c in (CASE2, ROW1, ROW3, ROW4, ROW5, ROW7):
            lam = [q for q in rationals if R.contains(c, q)]
            assert [R.lambda_member(c, i) for i in range(len(lam))] == lam
            enums = R._enumerations(c)
            pinf = [p for p in primes if R.exponent(c, p) == R.INF]
            non_pinf = [p for p in primes if R.exponent(c, p) != R.INF]
            assert [enums.pinf[i] for i in range(len(pinf))] == pinf
            assert [enums.non_pinf[i] for i in range(len(non_pinf))] == non_pinf


class TestScottSentences:
    def test_sigma3_class(self):
        got = F.classify(R.scott_sentence_sigma3(R.Z_CHAR))
        assert (got.kind, got.level) == ("Sigma", 3)

    def test_dsigma2_classes(self):
        for c in (ROW1, ROW3, R.Z_CHAR):
            got = F.classify(R.scott_sentence_dsigma2(c))
            assert (got.kind, got.level) == ("DSigma", 2)

    def test_dsigma2_rejects_infinite_pfin(self):
        with pytest.raises(ValueError):
            R.scott_sentence_dsigma2(CASE2)

    def test_z_divisibility_family_is_empty(self):
        sentence = R.scott_sentence_dsigma2(R.Z_CHAR)
        divisible = sentence.items[1]
        assert isinstance(divisible, F.Forall)
        assert divisible.body.note.size == 0

    def test_rationals_class(self):
        got = F.classify(R.scott_sentence_rationals())
        assert (got.kind, got.level) == ("Pi", 2)

    def test_dispatcher_matches_recommendation(self):
        want = {"Pi2": ("Pi", 2), "dSigma2": ("DSigma", 2), "Sigma3": ("Sigma", 3)}
        for c in (R.Z_CHAR, R.Q_CHAR, ROW1, CASE2, ROW3, ROW4, ROW5, ROW6, ROW7):
            rec = R.classify(c).recommendation
            got = F.classify(R.scott_sentence(c))
            assert (got.kind, got.level) == want[rec]

    def test_json_round_trip(self):
        for c in (R.Z_CHAR, R.Q_CHAR, CASE2, ROW4):
            assert R.char_from_json(R.char_to_json(c)) == c

    @pytest.mark.parametrize("key", ["1_1", " 11 ", "+11", "١١", "11.0", "", 11])
    def test_exception_keys_are_ascii_digits(self, key):
        with pytest.raises(ValueError):
            R.char_from_json({"exceptions": {key: 1}, "default": "zero"})
