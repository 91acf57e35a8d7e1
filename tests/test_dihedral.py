import itertools
import random
import re

import pytest

from scottgroups import dihedral as D
from scottgroups import formula as F

NORMAL_SHAPE = re.compile(r"^((ab)*a?|(ba)*b?)$")


def nf(text):
    return D.normalize(text)


class TestNormalize:
    def test_relator_square(self):
        assert nf("aab").letters == "b"

    def test_identity(self):
        assert nf("").letters == ""

    def test_hand_reduction(self):
        assert nf("baaba").letters == "a"

    def test_rejects_other_letters(self):
        with pytest.raises(ValueError):
            nf("abc")

    def test_homomorphic_exhaustive(self):
        strings = [""]
        for n in range(1, 9):
            strings.extend("".join(bits) for bits in itertools.product("ab", repeat=n))
        normalized = {s: nf(s) for s in strings}
        for u in strings:
            nu = normalized[u]
            for v in strings:
                assert nf(u + v) == D.concat(nu, normalized[v])

    def test_output_shape(self):
        for n in range(9):
            for bits in itertools.product("ab", repeat=n):
                assert NORMAL_SHAPE.match(nf("".join(bits)).letters)


class TestGeneratingPair:
    def test_standard_pair(self):
        assert D.is_generating_pair(D.A, D.B) is True

    def test_odd_reflection_pair(self):
        assert D.is_generating_pair(nf("aba"), nf("bab")) is False

    def test_translation_with_reflection(self):
        assert D.is_generating_pair(nf("ab"), D.B) is True
        assert D.oracle_is_generating_pair(nf("ab"), D.B) is True

    def test_empty_component(self):
        assert D.is_generating_pair(nf("aba"), D.EPSILON) is False

    def test_oracle_agreement(self):
        forms = [D.nth_normal_form(i) for i in range(21)]  # lengths 0..10
        for u in forms:
            for v in forms:
                assert D.is_generating_pair(u, v) == D.oracle_is_generating_pair(u, v)

    def test_shortening_strictly_decreases(self):
        rng = random.Random(5)
        for _ in range(300):
            u = nf("".join(rng.choice("ab") for _ in range(rng.randint(0, 12))))
            v = nf("".join(rng.choice("ab") for _ in range(rng.randint(0, 12))))
            steps = D.shortening_steps(u, v)
            totals = [len(a) + len(b) for a, b, _ in steps]
            assert all(x > y for x, y in zip(totals, totals[1:]))
            assert steps[-1][2].startswith("base")


class TestPrimitivePair:
    def test_swapped_pair(self):
        assert D.is_primitive_pair(D.B, D.A) is True

    def test_orbit_pairs_off_the_standard_pair(self):
        # automorphism images of (a, b): generating pairs of reflections
        assert D.is_primitive_pair(D.A, nf("aba")) is True
        assert D.is_primitive_pair(nf("aba"), nf("ababa")) is True

    def test_mixed_pair(self):
        assert D.is_primitive_pair(nf("ab"), D.B) is False

    def test_with_empty(self):
        assert D.is_primitive_pair(nf("aba"), D.EPSILON) is False

    def test_primitive_implies_involutive_generators(self):
        forms = [D.nth_normal_form(i) for i in range(21)]
        for u in forms:
            for v in forms:
                if D.is_primitive_pair(u, v):
                    assert D.is_generating_pair(u, v)
                    assert D.concat(u, u) == D.EPSILON
                    assert D.concat(v, v) == D.EPSILON


class TestScottSentence:
    def test_overall_class(self):
        got = F.classify(D.scott_sentence_dinf())
        assert (got.kind, got.level) == ("DSigma", 2)

    def test_part_classes(self):
        sigma2 = F.classify(D.triple_generation_sentence())
        sigma3 = F.classify(D.orbit_witness_sentence())
        assert (sigma2.kind, sigma2.level) == ("Pi", 2)
        assert (sigma3.kind, sigma3.level) == ("Sigma", 2)

    def test_imprimitive_family_members(self):
        # (aba, bab) sits at index 65 of the shortlex-diagonal enumeration,
        # so a 70-member prefix witnesses it; no pair of the orbit of (a, b)
        # occurs, (a, aba) included
        pairs = [D.nth_imprimitive_pair(i) for i in range(70)]
        as_text = [(u.letters, v.letters) for u, v in pairs]
        assert ("aba", "bab") in as_text
        for orbit_pair in (("a", "b"), ("b", "a"), ("a", "aba"), ("aba", "a"), ("b", "bab")):
            assert orbit_pair not in as_text
        for u, v in pairs:
            g, h = D.to_element(u), D.to_element(v)
            assert not (g.flip and h.flip and D.oracle_is_generating_pair(u, v))

    def test_relations_family_separates(self):
        fam = F.family("and", "dinf-relations", {"pair": ["x1", "x2"]})
        members = F.family_members(fam, 40)
        kinds = {type(m) for m in members}
        assert kinds == {F.Atomic, F.NegAtomic}


def shortlex_normal_forms(count):
    """ε, a, b, ab, ba, aba, bab, ...: by length, the a-starter first."""
    out = [""]
    length = 1
    while len(out) < count:
        out += [("ab" * length)[:length], ("ba" * length)[:length]]
        length += 1
    return [nf(w) for w in out[:count]]


class TestFamilyEnumerations:
    def test_imprimitive_pairs_match_the_oracle_filter(self):
        forms = shortlex_normal_forms(200)
        want = []
        for s in itertools.count():  # Cantor order on index pairs
            for a in range(s + 1):
                u, v = forms[a], forms[s - a]
                g, h = D.to_element(u), D.to_element(v)
                if not (g.flip and h.flip and D.oracle_is_generating_pair(u, v)):
                    want.append((u, v))
            if len(want) >= 500:
                break
        assert [D.nth_imprimitive_pair(i) for i in range(500)] == want[:500]

    def test_next_imprimitive_pair_costs_constant_work(self, monkeypatch):
        calls = []
        primitive = D.is_primitive_pair
        monkeypatch.setattr(D, "is_primitive_pair",
                            lambda u, v: calls.append((u, v)) or primitive(u, v))
        D.nth_imprimitive_pair(1500)
        calls.clear()
        D.nth_imprimitive_pair(1501)
        assert 1 <= len(calls) <= 4  # not a rescan of the 1501 pairs before it
        calls.clear()
        D.nth_imprimitive_pair(1501)
        assert calls == []

    def test_relations_words_in_shortlex_order(self):
        alphabet = (("x1", 1), ("x1", -1), ("x2", 1), ("x2", -1))
        want = [w for length in range(5) for w in itertools.product(alphabet, repeat=length)
                if all(b != (a[0], -a[1]) for a, b in zip(w, w[1:]))]
        fam = F.family("and", "dinf-relations", {"pair": ["x1", "x2"]})
        members = F.family_members(fam, len(want))
        assert [m.lhs.letters for m in members] == want
        for w, m in zip(want, members):
            trivial = nf("".join("a" if var == "x1" else "b" for var, _ in w)) == D.EPSILON
            assert isinstance(m, F.Atomic if trivial else F.NegAtomic)

    def test_triples_by_sum_then_entries(self):
        want = sorted((t for t in itertools.product(range(13), repeat=3) if sum(t) <= 12),
                      key=lambda t: (sum(t), t[0], t[1]))
        assert [D._TRIPLES[i] for i in range(len(want))] == want
