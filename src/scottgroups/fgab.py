"""Finitely generated abelian groups Z^n ⊕ T and their Scott sentences.

A group is described by its free rank and the invariant factors of its
torsion part.  Emitters produce: the finitary existential/universal
sentence pinning a finite group from its multiplication table, the
d-Sigma(2) sentence for Z^n, the d-Sigma(2) sentence for Z^n ⊕ T, and a
Sigma(3) sentence built from a generating tuple's relations.  Finite group
tables double as evaluation structures for the formula module.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import count, product

from . import formula as F
from . import record
from .formula import FiniteStructure as FiniteGroupTable
from .numtheory import Enumeration, factorize

__all__ = [
    "FgAbelianDesc", "FiniteGroupTable", "normalize_torsion",
    "cyclic_table", "table_from_invariant_factors", "abelian_tables_upto",
    "tables_isomorphic", "delta_formula", "scott_sentence_finite",
    "scott_sentence_zn", "scott_sentence_fg_abelian", "scott_sentence_sigma3_fg",
    "torsion_free_sentence", "independent_tuple_sentence", "dependence_sentence",
]


@record
class FgAbelianDesc:
    """Z^rank ⊕ (Z/d1 ⊕ ... ⊕ Z/dm) with d1 | d2 | ... | dm, all di >= 2."""

    rank: int
    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be >= 0")
        prev = None
        for d in self.invariant_factors:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
            if prev is not None and d % prev != 0:
                raise ValueError("invariant factors must form a divisibility chain")
            prev = d

    def torsion_order(self) -> int:
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out


def desc_to_json(d: FgAbelianDesc) -> dict:
    return {"rank": d.rank, "torsion": list(d.invariant_factors)}


def desc_from_json(data: dict) -> FgAbelianDesc:
    return FgAbelianDesc(F.json_int(data["rank"]), tuple(map(F.json_int, data["torsion"])))


def normalize_torsion(cyclic_orders: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """Invariant factors of ⊕ Z/c for the given cyclic orders.

    Splits each order into prime-power components and regroups them, largest
    exponents together, so the result is a divisibility chain presenting the
    same group.

    >>> normalize_torsion((4, 6))
    (2, 12)
    """
    primary: dict[int, list[int]] = {}
    for c in cyclic_orders:
        if c < 2:
            raise ValueError("cyclic orders must be >= 2")
        for p, e in factorize(c):
            primary.setdefault(p, []).append(e)
    return _invariant_factors([(p, sorted(exps, reverse=True)) for p, exps in primary.items()])


def _invariant_factors(primary) -> tuple[int, ...]:
    """Invariant factors of ⊕ Z/p^e over a sequence of (p, exponents) pairs,
    each prime's exponents in decreasing order: the i-th largest powers of
    every prime multiply to the i-th largest factor."""
    depth = max((len(exps) for _, exps in primary), default=0)
    return tuple(math.prod(p ** exps[level] for p, exps in primary if level < len(exps))
                 for level in reversed(range(depth)))


# ---------------------------------------------------------------------------
# Finite group tables
# ---------------------------------------------------------------------------

def cyclic_table(n: int) -> FiniteGroupTable:
    if n < 1:
        raise ValueError("order must be >= 1")
    return FiniteGroupTable.from_table([[(i + j) % n for j in range(n)] for i in range(n)])


def table_from_invariant_factors(factors: tuple[int, ...] | list[int]) -> FiniteGroupTable:
    """Table of ⊕ Z/d over the given factors (the trivial group if empty)."""
    factors = tuple(factors)
    if not factors:
        return cyclic_table(1)
    sizes = list(factors)
    total = 1
    for d in sizes:
        total *= d

    def decode(i: int) -> tuple[int, ...]:
        out = []
        for d in reversed(sizes):
            out.append(i % d)
            i //= d
        return tuple(reversed(out))

    def encode(t: tuple[int, ...]) -> int:
        i = 0
        for d, x in zip(sizes, t):
            i = i * d + x
        return i

    rows = []
    for i in range(total):
        ti = decode(i)
        rows.append([encode(tuple((x + y) % d for x, y, d in zip(ti, decode(j), sizes)))
                     for j in range(total)])
    return FiniteGroupTable.from_table(rows)


def _partitions(n: int) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    out = []

    def rec(remaining: int, largest: int, acc: list[int]):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(remaining, largest), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return out


def abelian_invariant_factor_lists(order: int) -> list[tuple[int, ...]]:
    """Invariant-factor tuples of every abelian group of the given order."""
    per_prime = [[(p, part) for part in _partitions(e)] for p, e in factorize(order)]
    return sorted(_invariant_factors(chosen) for chosen in product(*per_prime))


def abelian_tables_upto(max_order: int) -> list[tuple[tuple[int, ...], FiniteGroupTable]]:
    """One (invariant factors, table) pair per isomorphism class, orders 1..max."""
    out = []
    for order in range(1, max_order + 1):
        for factors in abelian_invariant_factor_lists(order):
            out.append((factors, table_from_invariant_factors(factors)))
    return out


def _element_expressions(t: FiniteGroupTable) -> tuple[list[int], list[tuple[int, ...]]]:
    """A generating sequence and, per element, a word over it (index list)."""
    gens: list[int] = []
    expr: dict[int, tuple[int, ...]] = {t.identity: ()}
    while len(expr) < t.size:
        gens.append(next(x for x in range(t.size) if x not in expr))
        changed = True
        while changed:
            changed = False
            for x in list(expr):
                for g_idx, g in enumerate(gens):
                    y = t.apply(x, g)
                    if y not in expr:
                        expr[y] = expr[x] + (g_idx,)
                        changed = True
    return gens, [expr[x] for x in range(t.size)]


def _element_order(t: FiniteGroupTable, x: int) -> int:
    acc, n = x, 1
    while acc != t.identity:
        acc = t.apply(acc, x)
        n += 1
    return n


def _order_profile(t: FiniteGroupTable) -> tuple[int, ...]:
    return tuple(sorted(_element_order(t, x) for x in range(t.size)))


def tables_isomorphic(t1: FiniteGroupTable, t2: FiniteGroupTable) -> bool:
    """Brute-force isomorphism test via generator images."""
    if t1.size != t2.size:
        return False
    if _order_profile(t1) != _order_profile(t2):
        return False
    gens, exprs = _element_expressions(t1)
    gen_orders = [_element_order(t1, g) for g in gens]
    candidates = [[y for y in range(t2.size) if _element_order(t2, y) == o] for o in gen_orders]
    for images in product(*candidates):
        fmap = []
        for word in exprs:
            acc = t2.identity
            for gi in word:
                acc = t2.apply(acc, images[gi])
            fmap.append(acc)
        if len(set(fmap)) != t1.size:
            continue
        if all(fmap[t1.apply(a, b)] == t2.apply(fmap[a], fmap[b])
               for a in range(t1.size) for b in range(t1.size)):
            return True
    return False


# ---------------------------------------------------------------------------
# Family enumerations over integer tuples
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _int_tuples(n: int) -> Enumeration:
    """Z^n by max |k| and then lexicographically in the integer order
    0 < 1 < -1 < 2 < -2 < ...; the zero tuple comes first (and alone, for n = 0)."""
    def shells():
        yield (0,) * n
        if not n:
            return
        ordered = [0]
        for r in count(1):
            ordered += (r, -r)
            yield from (t for t in product(ordered, repeat=n) if max(map(abs, t)) == r)

    return Enumeration(shells())


def int_tuple(n: int, i: int, include_zero: bool = False) -> tuple[int, ...]:
    """i-th integer n-tuple in the diagonal order (by max |k|, then lex)."""
    return _int_tuples(n)[i if include_zero else i + 1]


@lru_cache(maxsize=None)
def _span_coefficients(n: int) -> Enumeration:
    """(k, m̄) for k >= 2 and nonzero m̄ in {0..k-1}^n, by k and then m̄ lexicographically."""
    return Enumeration((k, m) for k in count(2) for m in product(range(k), repeat=n) if any(m))


def _build_multiple_neq(params: dict):
    var = F.family_param(params, "var", "name")

    def gen(i: int) -> F.Formula:
        return F.NegAtomic(F.lin({var: i + 1}), F.ZERO)

    return gen, None


def _build_pure_span(params: dict):
    targets = F.family_param(params, "targets", "names")
    witness = F.family_param(params, "witness", "name")

    def gen(i: int) -> F.Formula:
        k, m = _span_coefficients(len(targets))[i]
        return F.NegAtomic(F.lin({witness: k, **{x: -c for x, c in zip(targets, m)}}), F.ZERO)

    return gen, None if targets else 0  # no targets: no nonzero m̄, no member


def _build_nonzero_combo_neq(params: dict):
    names = F.family_param(params, "vars", "names")

    def gen(i: int) -> F.Formula:
        combo = int_tuple(len(names), i)
        return F.NegAtomic(F.lin(dict(zip(names, combo))), F.ZERO)

    return gen, None if names else 0  # no variables: no nonzero combination


def _build_nonzero_combo_eq(params: dict):
    names = F.family_param(params, "vars", "names")

    def gen(i: int) -> F.Formula:
        combo = int_tuple(len(names), i)
        return F.Atomic(F.lin(dict(zip(names, combo))), F.ZERO)

    return gen, None if names else 0


def _build_all_combo_eq(params: dict):
    target = F.family_param(params, "target", "name")
    names = F.family_param(params, "vars", "names")

    def gen(i: int) -> F.Formula:
        combo = int_tuple(len(names), i, include_zero=True)
        return F.Atomic(F.lin({target: 1}), F.lin(dict(zip(names, combo))))

    return gen, None if names else 1  # no variables: the empty combination only


def _build_fg_relations(params: dict):
    rank = F.family_param(params, "rank", "int")
    torsion = F.family_param(params, "torsion", "ints")
    if rank < 0 or any(d < 2 for d in torsion):
        raise ValueError(f"fg-abelian-relations needs rank >= 0 and torsion orders >= 2, "
                         f"got {rank} and {list(torsion)}")
    names = F.family_param(params, "vars", "names")

    def gen(i: int) -> F.Formula:
        combo = int_tuple(len(names), i, include_zero=True)
        term = F.lin(dict(zip(names, combo)))
        free_zero = all(k == 0 for k in combo[:rank])
        torsion_zero = all(k % d == 0 for k, d in zip(combo[rank:], torsion))
        if free_zero and torsion_zero:
            return F.Atomic(term, F.ZERO)
        return F.NegAtomic(term, F.ZERO)

    return gen, None if names else 1


F.register_family("multiple-neq", _build_multiple_neq)
F.register_family("pure-span", _build_pure_span)
F.register_family("nonzero-combo-neq", _build_nonzero_combo_neq)
F.register_family("nonzero-combo-eq", _build_nonzero_combo_eq)
F.register_family("all-combo-eq", _build_all_combo_eq)
F.register_family("fg-abelian-relations", _build_fg_relations)


# ---------------------------------------------------------------------------
# Sentences
# ---------------------------------------------------------------------------

def _gen_names(n: int, prefix: str = "x") -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(1, n + 1))


def torsion_free_sentence(var: str = "x") -> F.Formula:
    """Pi(1): every nonzero element has all nonzero multiples nonzero."""
    return F.Forall((var,), F.disj(F.Atomic(F.lin({var: 1}), F.ZERO),
                                   F.family("and", "multiple-neq", {"var": var})))


def independent_tuple_sentence(n: int) -> F.Formula:
    """Sigma(2): n independent elements spanning a pure subgroup.

    Pure: k·y = Σ m_i x_i has no solution y for k >= 2 and nonzero m̄ in
    {0..k-1}^n, so a multiple k·y lies in the span only with every
    coefficient divisible by k.
    """
    gens = _gen_names(n)
    pure = F.Forall(("y",), F.family("and", "pure-span",
                                     {"targets": list(gens), "witness": "y"}))
    independent = F.family("and", "nonzero-combo-neq", {"vars": list(gens)})
    return F.Exists(gens, F.conj(pure, independent))


def dependence_sentence(n: int) -> F.Formula:
    """Pi(2): any n+1 elements satisfy a nontrivial integer relation."""
    names = _gen_names(n + 1)
    return F.Forall(names, F.family("or", "nonzero-combo-eq", {"vars": list(names)}))


def scott_sentence_zn(n: int) -> F.FiniteAnd:
    """d-Sigma(2) Scott sentence for Z^n."""
    if n < 1:
        raise ValueError("rank must be >= 1; use scott_sentence_finite for the trivial group")
    return F.conj(F.abelian_axioms(),
                  torsion_free_sentence(),
                  independent_tuple_sentence(n),
                  dependence_sentence(n))


def delta_formula(t: FiniteGroupTable, names: tuple[str, ...]) -> F.FiniteAnd:
    """Quantifier-free diagram: all products, all inequations, identity pinned.

    An abelian table is written additively.  A non-abelian one is written in
    words, since a linear term does not keep the order of a product.
    """
    k = t.size
    if len(names) != k:
        raise ValueError("one variable per element required")
    abelian = t.is_abelian()

    def var(i: int) -> F.Term:
        return F.lin({names[i]: 1}) if abelian else F.gword([(names[i], 1)])

    def product(i: int, j: int) -> F.Term:
        if not abelian:
            return F.gword([(names[i], 1), (names[j], 1)])
        return F.lin({names[i]: 1, names[j]: 1}) if i != j else F.lin({names[i]: 2})

    facts: list[F.Formula] = [F.Atomic(var(t.identity), F.ZERO if abelian else F.IDENT)]
    for i in range(k):
        for j in range(k):
            facts.append(F.Atomic(product(i, j), var(t.apply(i, j))))
    for i in range(k):
        for j in range(i + 1, k):
            facts.append(F.NegAtomic(var(i), var(j)))
    return F.FiniteAnd(tuple(facts))


def _distinctness_sentence(count: int) -> F.Formula:
    """Pi(1): among ``count`` elements some two coincide."""
    names = _gen_names(count, "y")
    pairs = [F.Atomic(F.lin({a: 1}), F.lin({b: 1}))
             for idx, a in enumerate(names) for b in names[idx + 1:]]
    return F.Forall(names, F.FiniteOr(tuple(pairs)))


def scott_sentence_finite(t: FiniteGroupTable) -> F.FiniteAnd:
    """Existential diagram sentence plus a cardinality cap; pins t exactly."""
    k = t.size
    names = _gen_names(k, "t")
    return F.conj(F.Exists(names, delta_formula(t, names)),
                  _distinctness_sentence(k + 1))


def scott_sentence_fg_abelian(desc: FgAbelianDesc) -> F.FiniteAnd:
    """d-Sigma(2) Scott sentence for Z^rank ⊕ T, rank >= 1.

    The first conjunct reads: there are elements forming a copy of T such
    that every element either is one of them or has infinite order.
    """
    if desc.rank < 1:
        raise ValueError("rank must be >= 1; use scott_sentence_finite for finite groups")
    t = table_from_invariant_factors(desc.invariant_factors)
    names = _gen_names(t.size, "t")
    torsion_or_listed = F.disj(
        F.family("and", "multiple-neq", {"var": "x"}),
        F.FiniteOr(tuple(F.Atomic(F.lin({"x": 1}), F.lin({nm: 1})) for nm in names)))
    part_one = F.Exists(names, F.Forall(("x",), F.conj(delta_formula(t, names),
                                                       torsion_or_listed)))
    return F.conj(F.abelian_axioms(),
                  part_one,
                  independent_tuple_sentence(desc.rank),
                  dependence_sentence(desc.rank))


def scott_sentence_sigma3_fg(desc: FgAbelianDesc) -> F.FiniteAnd:
    """Sigma(3) Scott sentence from a generating tuple's relations.

    Asserts a tuple realizing exactly the relations of the standard
    generators and generating everything; always available, if suboptimal.
    """
    names = _gen_names(desc.rank + len(desc.invariant_factors), "g")
    relations = F.family("and", "fg-abelian-relations",
                         {"rank": desc.rank, "torsion": list(desc.invariant_factors),
                          "vars": list(names)})
    onto = F.Forall(("y",), F.family("or", "all-combo-eq",
                                     {"target": "y", "vars": list(names)}))
    return F.conj(F.abelian_axioms(),
                  F.Exists(names, F.conj(relations, onto)))
