import itertools
import random

import pytest

from scottgroups import words as W
from scottgroups.acceptance import all_reduced_words, primitive_closure


def w(text, rank=2):
    return W.parse_word(text, rank)


def tup(rank, *texts):
    return W.word_tuple(rank, *texts)


class TestReduce:
    def test_cancellation(self):
        assert W.reduce([(0, 1), (0, -1), (1, 1)], 2) == w("b")

    def test_empty(self):
        assert W.reduce([], 2) == W.identity_word(2)

    def test_hand_reduction(self):
        # a b b^-1 a^-1 a: the bb^-1 pair cancels, then aa^-1, leaving a
        got = W.reduce([(0, 1), (1, 1), (1, -1), (0, -1), (0, 1)], 2)
        assert got == w("a")

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            W.reduce([(2, 1)], 2)

    def test_idempotent_exhaustive_short(self):
        # every raw sequence of length <= 5 over rank 3
        letters = [(g, e) for g in range(3) for e in (1, -1)]
        for n in range(6):
            for seq in itertools.product(letters, repeat=n):
                r = W.reduce(seq, 3)
                assert W.reduce(r.letters, 3) == r

    def test_idempotent_and_inverse_sampled(self):
        rng = random.Random(7)
        letters = [(g, e) for g in range(3) for e in (1, -1)]
        for _ in range(2000):
            seq = [rng.choice(letters) for _ in range(rng.randint(6, 10))]
            r = W.reduce(seq, 3)
            assert W.reduce(r.letters, 3) == r
            assert (r * r.inverse()).is_identity()


class TestParsing:
    def test_aliases_and_inverse(self):
        assert w("ab^-1").letters == ((0, 1), (1, -1))

    def test_x_names(self):
        assert W.parse_word("x0*x1^-1", 5).letters == ((0, 1), (1, -1))

    def test_identity_spelling(self):
        assert w("1").is_identity()

    def test_reject_alias_for_large_rank(self):
        with pytest.raises(ValueError):
            W.parse_word("a", 4)

    def test_json_round_trip(self):
        word = w("ab^-1a")
        assert W.word_from_json(W.word_to_json(word)) == word

    @pytest.mark.parametrize("data", [{"rank": "2", "letters": [[0, 1]]},
                                      {"rank": 2, "letters": [[0, 1.0]]},
                                      {"rank": 2, "letters": [["1", 1]]}])
    def test_json_integers_are_not_parsed(self, data):
        with pytest.raises(ValueError):
            W.word_from_json(data)


class TestMoves:
    def test_invert(self):
        assert W.apply_move(tup(2, "a", "b"), W.Invert(0)) == tup(2, "a^-1", "b")

    def test_right_multiply(self):
        assert W.apply_move(tup(2, "a", "b"), W.RightMultiply(0, 1)) == tup(2, "ab", "b")

    def test_composition(self):
        t = tup(2, "ab", "b")
        t = W.apply_move(t, W.Invert(1))
        t = W.apply_move(t, W.RightMultiply(0, 1))
        assert t == tup(2, "a", "b^-1")

    def test_permute(self):
        assert W.apply_move(tup(2, "a", "b"), W.Permute((1, 0))) == tup(2, "b", "a")

    def test_arity_must_match_rank(self):
        with pytest.raises(ValueError):
            W.apply_move(W.WordTuple(2, (w("a"),)), W.Invert(0))

    def test_all_moves_canonical_order(self):
        # Nielsen certificates index into this order: the non-identity
        # permutations in lexicographic order, then Invert(i), then
        # RightMultiply(i, j) with i, j lexicographic
        P, I, M = W.Permute, W.Invert, W.RightMultiply
        assert W.all_moves(1) == [I(0)]
        assert W.all_moves(2) == [P((1, 0)), I(0), I(1), M(0, 1), M(1, 0)]
        assert W.all_moves(3) == [
            P((0, 2, 1)), P((1, 0, 2)), P((1, 2, 0)), P((2, 0, 1)), P((2, 1, 0)),
            I(0), I(1), I(2),
            M(0, 1), M(0, 2), M(1, 0), M(1, 2), M(2, 0), M(2, 1)]
        assert W.all_moves(4) == [
            P(p) for p in sorted(itertools.permutations(range(4))) if p != (0, 1, 2, 3)
        ] + [I(i) for i in range(4)] + [M(i, j) for i in range(4) for j in range(4) if i != j]

    def test_moves_invertible(self):
        rng = random.Random(11)
        words_pool = all_reduced_words(2, 4)
        for _ in range(300):
            t = W.WordTuple(2, (rng.choice(words_pool), rng.choice(words_pool)))
            for m in W.all_moves(2):
                undone = W.apply_move(t, m)
                for back in W.inverse_moves(m):
                    undone = W.apply_move(undone, back)
                assert undone == t


class TestPrimitivity:
    def test_identity_basis(self):
        assert W.is_primitive(tup(2, "a", "b"))

    def test_shifted_basis(self):
        assert W.is_primitive(tup(2, "ab", "b"))

    def test_square_not_primitive(self):
        assert not W.is_primitive(tup(2, "aa", "b"))

    def test_arity_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            W.is_primitive(W.WordTuple(2, (w("a"),)))

    def test_rank_three(self):
        assert W.is_primitive(tup(3, "abc", "b", "c"))
        assert not W.is_primitive(tup(3, "aa", "b", "c"))

    def test_invariance_under_moves(self):
        # exhaustive on short pairs, sampled on longer ones
        by_len = {}
        for word in all_reduced_words(2, 4):
            by_len.setdefault(len(word), []).append(word)
        pairs = [(w1, w2)
                 for l1 in range(5) for l2 in range(5 - l1)
                 for w1 in by_len[l1] for w2 in by_len[l2]]
        rng = random.Random(3)
        longer = all_reduced_words(2, 6)
        pairs += [(rng.choice(longer), rng.choice(longer)) for _ in range(150)]
        moves = W.all_moves(2)
        for w1, w2 in pairs:
            t = W.WordTuple(2, (w1, w2))
            value = W.is_primitive(t)
            for m in moves:
                assert W.is_primitive(W.apply_move(t, m)) == value

    def test_oracle_agreement_small(self):
        closure = primitive_closure(2, 6)
        by_len = {}
        for word in all_reduced_words(2, 6):
            by_len.setdefault(len(word), []).append(word)
        for l1 in range(7):
            for l2 in range(7 - l1):
                for w1 in by_len[l1]:
                    for w2 in by_len[l2]:
                        t = W.WordTuple(2, (w1, w2))
                        assert W.is_primitive(t) == (t.key() in closure)


class TestNielsenReduce:
    def test_needs_plateau_escape(self):
        reduced, moves = W.nielsen_reduce(tup(2, "a", "ab"))
        assert reduced == tup(2, "a", "b")
        assert moves

    def test_already_reduced(self):
        assert W.nielsen_reduce(tup(2, "a", "b")) == (tup(2, "a", "b"), [])

    def test_imprimitive_minimum(self):
        reduced, _ = W.nielsen_reduce(tup(2, "ab", "ba"))
        assert reduced.total_length() == 4
        assert not W.is_primitive(tup(2, "ab", "ba"))

    def test_move_log_replays(self):
        t = tup(2, "ab^-1a", "ba")
        reduced, moves = W.nielsen_reduce(t)
        replay = t
        for m in moves:
            replay = W.apply_move(replay, m)
        assert replay == reduced
