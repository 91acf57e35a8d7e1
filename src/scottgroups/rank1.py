"""Additive subgroups of Q presented by prime-exponent characteristics.

A subgroup containing a designated 1 is determined by the map sending each
prime p to the supremum of k with p^k dividing 1.  Characteristics here are
finitely represented: a finite exception table over a default rule, where
the rule is constant zero, constant infinity, linear in the prime's index,
or a residue-indexed mixture of those.  The mixture form exists because the
three prime classes

    P0 (exponent 0), Pfin (finite positive), Pinf (infinite)

can each independently be finite or infinite, and every combination needs a
witness.  On this representation membership, the class partition,
isomorphism, and the case classification with its Scott-sentence
recommendation are all exactly decidable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial
from itertools import count
from typing import TYPE_CHECKING, Iterator, NamedTuple

from . import formula_module, json_int, record
# re-exported: rank1 code calls these through its own names, so that a
# wrapper installed on rank1.prime_index sees every call made here
from .numtheory import Enumeration, diagonal_pair, factorize, is_prime, nth_prime, \
    prime_index, primes, primes_upto

if TYPE_CHECKING:
    from . import formula as F

INF = math.inf

# default rules: ("zero",) | ("inf",) | ("linear", a, b) | ("residue", (sub, ...))
Rule = tuple


# ---------------------------------------------------------------------------
# Characteristics
# ---------------------------------------------------------------------------

def _validate_rule(rule: Rule, allow_residue: bool = True) -> None:
    if rule == ("zero",) or rule == ("inf",):
        return
    if rule[0] == "linear" and len(rule) == 3:
        a, b = rule[1], rule[2]
        if not (isinstance(a, int) and isinstance(b, int) and a >= 0 and b >= 0):
            raise ValueError("linear rule needs natural coefficients")
        return
    if rule[0] == "residue" and allow_residue and len(rule) == 2:
        subs = rule[1]
        if not subs:
            raise ValueError("residue rule needs at least one class")
        for sub in subs:
            _validate_rule(sub, allow_residue=False)
        return
    raise ValueError(f"malformed default rule: {rule!r}")


def _rule_value(rule: Rule, index: int) -> int | float:
    sub = _class_rule(rule, index)
    return INF if sub == INF_RULE else sub[1] * index + sub[2]


def _default_exponent(rule: Rule, p: int) -> int | float:
    """The rule's exponent at the prime p; only index-dependent rules read
    its index, and ``prime_index`` rejects a non-prime itself."""
    if rule == ("zero",) or rule == ("inf",):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return 0 if rule == ("zero",) else INF
    return _rule_value(rule, prime_index(p))


def _rule_modulus(rule: Rule) -> int:
    return len(rule[1]) if rule[0] == "residue" else 1


def _class_rule(rule: Rule, residue: int) -> Rule:
    """Effective sub-rule on the class index ≡ residue (mod any multiple)."""
    sub = rule[1][residue % len(rule[1])] if rule[0] == "residue" else rule
    if sub == ("zero",):
        return ("linear", 0, 0)
    return sub


ZERO_RULE: Rule = ("zero",)
INF_RULE: Rule = ("inf",)


@record
class Rank1Char:
    """Finite presentation of a characteristic: exceptions over a default rule."""

    exceptions: tuple[tuple[int, int | float], ...]
    default: Rule

    def __post_init__(self):
        _validate_rule(self.default)
        seen = set()
        for p, v in self.exceptions:
            if not is_prime(p):
                raise ValueError(f"exception key {p} is not prime")
            if p in seen:
                raise ValueError(f"duplicate exception prime {p}")
            seen.add(p)
            if v != INF and not (isinstance(v, int) and v >= 0):
                raise ValueError("exponents are naturals or infinity")


def char(exceptions: dict[int, int | float] | None = None,
         default: Rule = ZERO_RULE) -> Rank1Char:
    """Canonical constructor: drops exceptions that repeat the rule's value."""
    items = []
    for p, v in sorted((exceptions or {}).items()):
        if v != _default_exponent(default, p):
            items.append((p, v))
    return Rank1Char(tuple(items), default)


Z_CHAR = char()
Q_CHAR = char(default=INF_RULE)


def exponent(c: Rank1Char, p: int) -> int | float:
    """Divisor exponent of the designated 1 at the prime p."""
    for q, v in c.exceptions:
        if q == p:
            return v
    return _default_exponent(c.default, p)


def contains(c: Rank1Char, q: Fraction) -> bool:
    """Whether the reduced fraction q lies in the subgroup described by c."""
    return admits_denominator(c, q.denominator)


def admits_denominator(c: Rank1Char, den: int) -> bool:
    """Whether the reduced fractions with denominator den lie in the subgroup c describes."""
    for p, k in factorize(den):  # smallest prime first
        if k > exponent(c, p):
            return False
    return True


# ---------------------------------------------------------------------------
# Partition and classification
# ---------------------------------------------------------------------------

@record
class Partition:
    p0: tuple[int, ...]
    pfin: tuple[int, ...]
    pinf: tuple[int, ...]
    p0_infinite: bool
    pfin_infinite: bool
    pinf_infinite: bool


def _rule_class_flags(c: Rank1Char) -> tuple[bool, bool, bool]:
    """Which of P0 / Pfin / Pinf pick up infinitely many default primes."""
    p0 = pfin = pinf = False
    for r in range(_rule_modulus(c.default)):
        sub = _class_rule(c.default, r)
        if sub == INF_RULE:
            pinf = True
        else:
            _, a, b = sub
            if a == 0 and b == 0:
                p0 = True
            else:
                pfin = True  # a linear rule is 0 at most once along its class
    return p0, pfin, pinf


def partition(c: Rank1Char, bound: int) -> Partition:
    """Sort the primes up to ``bound`` into the three classes; global
    finiteness flags are computed from the representation, not the window."""
    p0, pfin, pinf = [], [], []
    for p in primes_upto(bound):
        v = exponent(c, p)
        (pinf if v == INF else pfin if v > 0 else p0).append(p)
    fl = _rule_class_flags(c)
    return Partition(tuple(p0), tuple(pfin), tuple(pinf), *fl)


def is_isomorphic(c1: Rank1Char, c2: Rank1Char) -> bool:
    """Same infinite-exponent primes and only finitely many finite differences.

    Decidable on this representation: the default rules must agree class by
    class (two distinct linear rules disagree on all but at most one index),
    and exception primes, finitely many, may differ only finitely.
    """
    m = math.lcm(_rule_modulus(c1.default), _rule_modulus(c2.default))
    for r in range(m):
        s1, s2 = _class_rule(c1.default, r), _class_rule(c2.default, r)
        if s1 != s2:
            return False
    for p in sorted({p for p, _ in c1.exceptions} | {p for p, _ in c2.exceptions}):
        if (exponent(c1, p) == INF) != (exponent(c2, p) == INF):
            return False
    return True


@record
class CaseTag:
    p0: str  # "finite" | "infinite"
    pfin: str
    pinf: str
    row: int | str  # 1..7, "All0", "AllInf"


@record
class Classification:
    case: CaseTag
    lower: str
    upper: str
    recommendation: str


_ROW_BY_FLAGS = {
    (True, False, False): 1,
    (False, True, False): 2,
    (False, False, True): 3,
    (False, True, True): 4,
    (True, False, True): 5,
    (True, True, False): 6,
    (True, True, True): 7,
}

# row -> (lower bound, upper bound, recommended emitter)
_ROWS = {
    1: ("dSigma02", "dSigma02", "dSigma2"),
    2: ("Sigma03", "Sigma03", "Sigma3"),
    3: ("dSigma02", "dSigma02", "dSigma2"),
    4: ("dSigma02", "Sigma03", "Sigma3"),
    5: ("dSigma02", "Sigma03", "Sigma3"),
    6: ("Sigma03", "Sigma03", "Sigma3"),
    7: ("dSigma02", "Sigma03", "Sigma3"),
    "All0": ("dSigma02", "dSigma02", "dSigma2"),
    "AllInf": ("Pi02", "Pi02", "Pi2"),
}


def classify(c: Rank1Char) -> Classification:
    """Case row, index-set bounds, and which Scott sentence emitter to use.

    Rows 4, 5 and 7 carry unequal bounds on purpose: those cases are open
    and the artifact must not overstate them.
    """
    flags = _rule_class_flags(c)
    canonical = char(dict(c.exceptions), c.default)
    if not canonical.exceptions and flags == (True, False, False):
        row: int | str = "All0"
    elif not canonical.exceptions and flags == (False, False, True):
        row = "AllInf"
    else:
        row = _ROW_BY_FLAGS[flags]
    tag = CaseTag("infinite" if flags[0] else "finite",
                  "infinite" if flags[1] else "finite",
                  "infinite" if flags[2] else "finite",
                  row)
    return Classification(tag, *_ROWS[row])


# ---------------------------------------------------------------------------
# Derived characteristics
# ---------------------------------------------------------------------------

def extend_infinite_at(c: Rank1Char, p: int) -> Rank1Char:
    """Smallest extension in which p divides 1 infinitely."""
    exc = dict(c.exceptions)
    exc[p] = INF
    return char(exc, c.default)


def kill_prime_at(c: Rank1Char, q: int) -> Rank1Char:
    """Largest subgroup in which q does not divide 1."""
    exc = dict(c.exceptions)
    exc[q] = 0
    return char(exc, c.default)


def remove_finite_part(c: Rank1Char) -> Rank1Char:
    """Rescale the designated 1 so that Pfin becomes empty.

    Requires Pfin finite under the representation; the result has the same
    infinite-exponent set and exponent 0 elsewhere, which is the
    characteristic of the rescaled unit.
    """
    if _rule_class_flags(c)[1]:
        raise ValueError("Pfin is infinite under this representation")
    exc = {p: (v if v == INF else 0) for p, v in c.exceptions}
    return char(exc, c.default)


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

def _rule_to_json(rule: Rule):
    if rule == ZERO_RULE:
        return "zero"
    if rule == INF_RULE:
        return "inf"
    if rule[0] == "linear":
        return {"linear": [rule[1], rule[2]]}
    return {"residue": [_rule_to_json(sub) for sub in rule[1]]}


def _rule_from_json(data) -> Rule:
    if data == "zero":
        return ZERO_RULE
    if data == "inf":
        return INF_RULE
    if isinstance(data, dict) and "linear" in data:
        pair = data["linear"]
        if isinstance(pair, list) and len(pair) == 2:
            return ("linear", json_int(pair[0]), json_int(pair[1]))
    elif isinstance(data, dict) and isinstance(data.get("residue"), list):
        return ("residue", tuple(_rule_from_json(sub) for sub in data["residue"]))
    raise ValueError(f"malformed rule: {data!r}")


def char_to_json(c: Rank1Char) -> dict:
    return {"exceptions": {str(p): ("inf" if v == INF else v) for p, v in c.exceptions},
            "default": _rule_to_json(c.default)}


def char_from_json(data) -> Rank1Char:
    if not isinstance(data, dict) or not isinstance(data.get("exceptions", {}), dict):
        raise ValueError("a characteristic is a JSON object "
                         f'{{"exceptions": {{prime: exponent}}, "default": rule}}, got {data!r}')
    exc = {}
    for key, v in data.get("exceptions", {}).items():
        if not (isinstance(key, str) and key.isascii() and key.isdigit()):
            raise ValueError(f"an exceptions key is a prime in decimal digits, got {key!r}")
        exc[int(key)] = INF if v == "inf" else json_int(v)
    return char(exc, _rule_from_json(data["default"]))


# ---------------------------------------------------------------------------
# Lambda enumeration (the rationals lying in the group, diagonal order)
# ---------------------------------------------------------------------------

def _rationals_diagonal() -> Iterator[Fraction]:
    """Every rational once, by shell max(|num|, den), then num, then den."""
    for shell in count(1):
        for num in range(-shell, shell + 1):
            for den in range(1, shell + 1) if abs(num) == shell else (shell,):
                if math.gcd(num, den) == 1:
                    yield Fraction(num, den)


class _Enumerations(NamedTuple):
    members: Enumeration  # the rationals in the group, by _rationals_diagonal
    pinf: Enumeration  # the primes with infinite exponent, increasing
    non_pinf: Enumeration  # the other primes, increasing


@lru_cache(maxsize=64)
def _enumerations(c: Rank1Char) -> _Enumerations:
    """The characteristic's enumerations, kept for the 64 most recently used."""
    return _Enumerations(Enumeration(q for q in _rationals_diagonal() if contains(c, q)),
                         Enumeration(p for p in primes() if exponent(c, p) == INF),
                         Enumeration(p for p in primes() if exponent(c, p) != INF))


def lambda_member(c: Rank1Char, i: int) -> Fraction:
    """i-th rational of the group, ordered by max(|num|, den) then numerator."""
    return _enumerations(c).members[i]


# ---------------------------------------------------------------------------
# Scott sentence families
# ---------------------------------------------------------------------------

def _build_lambda(char: dict, var: str, onto: bool, target: str = "y"):
    """q·var = target (``onto``) or ∃y q·var = y, one member per rational q of the group."""
    F = formula_module()
    c = char_from_json(char)

    def gen(i: int) -> F.Formula:
        q = lambda_member(c, i)
        member = F.Atomic(F.lin({target: q.denominator, var: -q.numerator}), F.ZERO)
        return member if onto else F.Exists(("y",), member)

    return gen, None


def _build_pinf_divisible(char: dict, target: str):
    F = formula_module()
    c = char_from_json(char)
    rule_inf = _rule_class_flags(c)[2]
    finite_pinf = sorted(p for p, v in c.exceptions if v == INF) if not rule_inf else []
    size = None if rule_inf or finite_pinf else 0

    def member(p: int, k: int) -> F.Formula:
        return F.Exists(("z",), F.Atomic(F.lin({"z": p ** k, target: -1}), F.ZERO))

    def gen(i: int) -> F.Formula:
        if rule_inf:
            a, k = diagonal_pair(i)
            return member(_enumerations(c).pinf[a], k + 1)
        m = len(finite_pinf)
        return member(finite_pinf[i % m], i // m + 1)

    return gen, size


def _build_non_pinf_indivisible(char: dict, var: str):
    F = formula_module()
    c = char_from_json(char)
    all_inf = _rule_class_flags(c) == (False, False, True)
    size = sum(1 for _, v in c.exceptions if v != INF) if all_inf else None

    def gen(i: int) -> F.Formula:
        p = _enumerations(c).non_pinf[i]
        return F.Forall(("z",), F.NegAtomic(F.lin({"z": p, var: -1}), F.ZERO))

    return gen, size


def _build_all_primes_divisible(target: str):
    F = formula_module()

    def gen(i: int) -> F.Formula:
        return F.Exists(("z",), F.Atomic(F.lin({"z": nth_prime(i), target: -1}), F.ZERO))

    return gen, None


# enum_id -> (builder, param kinds, member level, bound variables): see formula.family
FAMILIES = {
    "rank1-lambda-exists": (partial(_build_lambda, onto=False),
                            {"char": "object", "var": "name"}, (1, 2), ("y",)),
    "rank1-lambda-onto": (partial(_build_lambda, onto=True),
                          {"char": "object", "var": "name", "target": "name"}, (0, 0), ()),
    "rank1-pinf-divisible": (_build_pinf_divisible, {"char": "object", "target": "name"},
                             (1, 2), ("z",)),
    "rank1-non-pinf-indivisible": (_build_non_pinf_indivisible,
                                   {"char": "object", "var": "name"}, (2, 1), ("z",)),
    "primes-divisible": (_build_all_primes_divisible, {"target": "name"}, (1, 2), ("z",)),
}


# ---------------------------------------------------------------------------
# Scott sentences
# ---------------------------------------------------------------------------

def rank1_axioms() -> F.FiniteAnd:
    """Pi(2) axioms: nontrivial torsion-free abelian of rank at most 1."""
    from . import fgab
    F = formula_module()
    return F.conj(F.abelian_axioms(),
                  fgab.torsion_free_sentence(),
                  fgab.dependence_sentence(1),
                  F.Exists(("x",), F.NegAtomic(F.lin({"x": 1}), F.ZERO)))


def scott_sentence_sigma3(c: Rank1Char) -> F.FiniteAnd:
    """Sigma(3): a non-zero x1 whose multiples q·x1, q in G, all exist and
    make up the group.

    x1 ≠ 0 in a torsion-free group makes q ↦ q·x1 injective, so the model
    is G·x1 ≅ G.  Without that conjunct x1 = 0 satisfies both families, and
    the trivial group is a model.
    """
    from . import fgab
    F = formula_module()
    cj = char_to_json(c)
    realized = F.family("and", "rank1-lambda-exists", {"char": cj, "var": "x1"})
    onto = F.Forall(("y",), F.family("or", "rank1-lambda-onto",
                                     {"char": cj, "var": "x1", "target": "y"}))
    nonzero = F.NegAtomic(F.lin({"x1": 1}), F.ZERO)
    return F.conj(F.abelian_axioms(),
                  fgab.torsion_free_sentence(),
                  F.Exists(("x1",), F.conj(realized, onto, nonzero)))


def scott_sentence_dsigma2(c: Rank1Char) -> F.FiniteAnd:
    """d-Sigma(2), available when Pfin is finite under the representation.

    The designated 1 is first rescaled away from its finite part, after
    which: every element is infinitely divisible at the infinite-exponent
    primes, and some element is indivisible at every other prime.
    """
    F = formula_module()
    base = remove_finite_part(c)
    cj = char_to_json(base)
    divisible = F.Forall(("y",), F.family("and", "rank1-pinf-divisible",
                                          {"char": cj, "target": "y"}))
    witness = F.Exists(("x",), F.family("and", "rank1-non-pinf-indivisible",
                                        {"char": cj, "var": "x"}))
    return F.conj(rank1_axioms(), divisible, witness)


def scott_sentence_rationals() -> F.FiniteAnd:
    """Pi(2) Scott sentence for the full rational group."""
    F = formula_module()
    divisible = F.Forall(("y",), F.family("and", "primes-divisible", {"target": "y"}))
    return F.conj(rank1_axioms(), divisible)


def scott_sentence(c: Rank1Char) -> F.FiniteAnd:
    """Emit by the classification's recommendation."""
    rec = classify(c).recommendation
    if rec == "Pi2":
        return scott_sentence_rationals()
    if rec == "dSigma2":
        return scott_sentence_dsigma2(c)
    return scott_sentence_sigma3(c)
