"""The infinite dihedral group ⟨a, b | a² = b² = 1⟩.

Because both generators are involutions, every element has a unique normal
form that alternates letters: (ab)*(a|ε) or (ba)*(b|ε), so a word is fixed
by its first letter and its length.  On top of the normal forms this module
decides whether a pair of words generates the whole group (a shortening
recursion whose every step replaces the pair by a strictly shorter
equivalent pair), decides primitivity of a pair, and emits the group's
Scott sentence as a d-Sigma(2) formula object.

An independent oracle represents elements in the semidirect product
Z ⋊ Z/2 and decides generation by arithmetic, exactly at all scales.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count

from . import formula as F
from . import record
from .numtheory import Enumeration, diagonal_pair


@record
class DihedralWord:
    """Normal form: letters over {a, b} with no equal adjacent pair."""

    letters: str

    def __post_init__(self):
        for i, ch in enumerate(self.letters):
            if ch not in "ab":
                raise ValueError(f"letter {ch!r} is not one of a, b")
            if i and self.letters[i - 1] == ch:
                raise ValueError("not a normal form: equal adjacent letters")

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def start(self) -> str | None:
        return self.letters[0] if self.letters else None

    @property
    def end(self) -> str | None:
        return self.letters[-1] if self.letters else None


EPSILON = DihedralWord("")
A = DihedralWord("a")
B = DihedralWord("b")


def normalize(raw: str) -> DihedralWord:
    """Cancel equal adjacent letters until none remain.

    >>> normalize("aab").letters
    'b'
    >>> normalize("baaba").letters
    'a'
    """
    stack: list[str] = []
    for ch in raw:
        if ch not in "ab":
            raise ValueError(f"letter {ch!r} is not one of a, b")
        if stack and stack[-1] == ch:
            stack.pop()
        else:
            stack.append(ch)
    return DihedralWord("".join(stack))


def concat(u: DihedralWord, v: DihedralWord) -> DihedralWord:
    return normalize(u.letters + v.letters)


# ---------------------------------------------------------------------------
# Z ⋊ Z/2 oracle
# ---------------------------------------------------------------------------

@record
class DihedralElement:
    """(translation, flip) with (t1,f1)(t2,f2) = (t1 + (-1)^f1 t2, f1 xor f2).

    Translations are kept rational so that deeper reflection towers (used by
    the construction simulators) embed in the same arithmetic.
    """

    translation: Fraction
    flip: bool

    def __mul__(self, other: "DihedralElement") -> "DihedralElement":
        t = self.translation + (-other.translation if self.flip else other.translation)
        return DihedralElement(t, self.flip != other.flip)


E_ELEM = DihedralElement(Fraction(0), False)
A_ELEM = DihedralElement(Fraction(0), True)
B_ELEM = DihedralElement(Fraction(1), True)


def to_element(w: DihedralWord) -> DihedralElement:
    acc = E_ELEM
    for ch in w.letters:
        acc = acc * (A_ELEM if ch == "a" else B_ELEM)
    return acc


def oracle_is_generating_pair(w1: DihedralWord, w2: DihedralWord) -> bool:
    """Arithmetic criterion for ⟨w1, w2⟩ = D∞.

    Two reflections generate everything iff their positions are adjacent
    (translation difference ±1); a reflection and a translation do iff the
    translation is by ±1; two translations never do.
    """
    g, h = to_element(w1), to_element(w2)
    if g.flip and h.flip:
        return abs(g.translation - h.translation) == 1
    if g.flip != h.flip:
        trans = h if g.flip else g
        return abs(trans.translation) == 1
    return False


# ---------------------------------------------------------------------------
# Shortening recursion
# ---------------------------------------------------------------------------

def shortening_steps(w1: DihedralWord, w2: DihedralWord) -> list[tuple[DihedralWord, DihedralWord, str]]:
    """Trace of the recursion: successive pairs with the rule applied.

    Each non-base step replaces the longer word by a strictly shorter one,
    so the trace's total lengths strictly decrease.  Pairs are kept ordered
    with the longer word first (ties broken by start letter a < b); the swap
    is itself a Nielsen move, so every traced pair stays equivalent to the
    input pair.
    """
    steps: list[tuple[DihedralWord, DihedralWord, str]] = []
    pair = _order(w1, w2)
    while True:
        u, v = pair
        if len(v) == 0:
            steps.append((u, v, "base: second word empty"))
            return steps
        if len(u) == 1 and len(v) == 1 and u.start != v.start:
            steps.append((u, v, "base: the pair (a, b)"))
            return steps
        if len(u) % 2 == 1 and len(v) % 2 == 1 and u.start != v.start:
            steps.append((u, v, "base: two odd reflections off (a, b)"))
            return steps
        if u.start == v.start:
            # v is a prefix of u; left-multiplying by v^{-1} strips it
            shorter = DihedralWord(u.letters[len(v):])
            rule = "strip shared prefix"
        elif len(u) % 2 == 0:
            # u ends with v's first letter: u·v cancels all of v
            shorter = normalize(u.letters + v.letters)
            rule = "right-multiply"
        else:
            # v even, ending with u's first letter: v·u cancels all of v
            shorter = normalize(v.letters + u.letters)
            rule = "left-multiply"
        steps.append((u, v, rule))
        pair = _order(shorter, v)


def _order(w1: DihedralWord, w2: DihedralWord) -> tuple[DihedralWord, DihedralWord]:
    # longer word first; ties put the a-starter first
    a, b = sorted((w1, w2), key=lambda w: (-len(w), w.start or ""))
    return (a, b)


def is_generating_pair(w1: DihedralWord, w2: DihedralWord) -> bool:
    """Whether ⟨w1, w2⟩ is the whole group, by the shortening recursion."""
    u, v, rule = shortening_steps(w1, w2)[-1]
    return rule == "base: the pair (a, b)"


def is_primitive_pair(w1: DihedralWord, w2: DihedralWord) -> bool:
    """Whether the pair lies in the automorphism orbit of (a, b).

    Automorphisms carry (a, b) to generating pairs of reflections, and every
    generating pair of reflections is such an image, so the orbit is the set
    of generating pairs of odd-length words: (a, aba) and (aba, ababa) are
    in it as well as (a, b) and (b, a).
    """
    return len(w1) % 2 == 1 and len(w2) % 2 == 1 and is_generating_pair(w1, w2)


# ---------------------------------------------------------------------------
# Word enumerations feeding the Scott sentence families
# ---------------------------------------------------------------------------

def nth_normal_form(i: int) -> DihedralWord:
    """i-th normal form in shortlex order: ε, a, b, ab, ba, aba, bab, ..."""
    if i == 0:
        return EPSILON
    length = (i + 1) // 2
    start = "a" if i % 2 == 1 else "b"
    return DihedralWord("".join(
        start if j % 2 == 0 else ("b" if start == "a" else "a")
        for j in range(length)))


def _imprimitive_pairs():
    for j in count():
        u, v = (nth_normal_form(k) for k in diagonal_pair(j))
        if not is_primitive_pair(u, v):
            yield (u, v)


_IMPRIMITIVE_PAIRS = Enumeration(_imprimitive_pairs())


def nth_imprimitive_pair(i: int) -> tuple[DihedralWord, DihedralWord]:
    """i-th imprimitive pair of normal forms, in shortlex-diagonal order."""
    return _IMPRIMITIVE_PAIRS[i]


def _free_words():
    """Reduced words over x1^±1, x2^±1 in shortlex order (ε first)."""
    alphabet = (("x1", 1), ("x1", -1), ("x2", 1), ("x2", -1))
    frontier: list[tuple[tuple[str, int], ...]] = [()]
    while True:
        yield from frontier
        frontier = [w + (l,) for w in frontier for l in alphabet
                    if not w or w[-1] != (l[0], -l[1])]


_FREE_WORDS = Enumeration(_free_words())


def _eval_free_word_in_dinf(letters: tuple[tuple[str, int], ...]) -> DihedralElement:
    acc = E_ELEM
    for var, _ in letters:  # a and b are involutions: exponent sign is moot
        acc = acc * (A_ELEM if var == "x1" else B_ELEM)
    return acc


# ---------------------------------------------------------------------------
# Scott sentence
# ---------------------------------------------------------------------------

def _word_term(w: DihedralWord, names: tuple[str, str]) -> F.Term:
    if not w.letters:
        return F.IDENT
    return F.gword([(names[0] if ch == "a" else names[1], 1) for ch in w.letters])


def _name_pair(params: dict, key: str) -> tuple[str, str]:
    names = F.family_param(params, key, "names")
    if len(names) != 2:
        raise ValueError(f"family parameter {key!r} must name two variables, got {list(names)}")
    return names


def _build_triple_family(params: dict):
    names = _name_pair(params, "pair")
    targets = F.family_param(params, "targets", "names")

    def gen(i: int) -> F.Formula:
        triple = map(nth_normal_form, _TRIPLES[i])
        return F.conj(*(F.Atomic(F.gword([(t, 1)]), _word_term(w, names))
                        for t, w in zip(targets, triple)))

    return gen, None


# triples of naturals by their sum, then the first, then the second entry
_TRIPLES = Enumeration((a, b, s - a - b) for s in count()
                       for a in range(s + 1) for b in range(s + 1 - a))


def _build_relations_family(params: dict):
    names = _name_pair(params, "pair")

    def gen(i: int) -> F.Formula:
        letters = _FREE_WORDS[i]
        mapped = F.gword([(names[0] if var == "x1" else names[1], e)
                          for var, e in letters]) if letters else F.IDENT
        holds = _eval_free_word_in_dinf(letters) == E_ELEM
        return F.Atomic(mapped, F.IDENT) if holds else F.NegAtomic(mapped, F.IDENT)

    return gen, None


def _build_imprimitive_family(params: dict):
    pair = _name_pair(params, "pair")
    others = _name_pair(params, "others")

    def gen(i: int) -> F.Formula:
        u, v = nth_imprimitive_pair(i)
        return F.disj(F.NegAtomic(_word_term(u, others), F.gword([(pair[0], 1)])),
                      F.NegAtomic(_word_term(v, others), F.gword([(pair[1], 1)])))

    return gen, None


F.register_family("dinf-generating-triples", _build_triple_family)
F.register_family("dinf-relations", _build_relations_family)
F.register_family("dinf-imprimitive-pairs", _build_imprimitive_family)


def _sq(name: str) -> F.Term:
    return F.gword([(name, 1), (name, 1)])


def triple_generation_sentence() -> F.Formula:
    """Pi(2): every triple is generated by a pair of involutions."""
    members = F.family("or", "dinf-generating-triples",
                       {"pair": ["x1", "x2"], "targets": ["u", "v", "w"]})
    body = F.conj(F.Atomic(_sq("x1"), F.IDENT), F.Atomic(_sq("x2"), F.IDENT), members)
    return F.Forall(("u", "v", "w"), F.Exists(("x1", "x2"), body))


def orbit_witness_sentence() -> F.Formula:
    """Sigma(2): a pair with the right relations avoiding imprimitive images."""
    relations = F.family("and", "dinf-relations", {"pair": ["x1", "x2"]})
    avoid = F.family("and", "dinf-imprimitive-pairs",
                     {"pair": ["x1", "x2"], "others": ["y1", "y2"]})
    guard = F.Forall(("y1", "y2"),
                     F.disj(F.NegAtomic(_sq("y1"), F.IDENT),
                            F.NegAtomic(_sq("y2"), F.IDENT),
                            avoid))
    return F.Exists(("x1", "x2"), F.conj(relations, guard))


def scott_sentence_dinf() -> F.FiniteAnd:
    """d-Sigma(2) Scott sentence: axioms ∧ triple generation ∧ orbit witness."""
    return F.conj(F.group_axioms(F.MUL),
                  triple_generation_sentence(),
                  orbit_witness_sentence())
