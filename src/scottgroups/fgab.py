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
from functools import lru_cache, partial
from itertools import count, product
from typing import TYPE_CHECKING, Iterator

from . import formula_module, record
from .numtheory import Enumeration, factorize, int_tuple

if TYPE_CHECKING:
    from . import formula as F


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

def cyclic_table(n: int) -> F.FiniteStructure:
    if n < 1:
        raise ValueError("order must be >= 1")
    return table_from_invariant_factors((n,))


def table_from_invariant_factors(factors: tuple[int, ...] | list[int]) -> F.FiniteStructure:
    """Table of ⊕ Z/d over the given factors (the trivial group if empty), its
    elements numbered in mixed radix with the first factor most significant."""
    F = formula_module()
    sizes = tuple(factors)
    elements = list(product(*map(range, sizes)))
    index = {t: i for i, t in enumerate(elements)}
    return F.FiniteStructure.from_table(
        [[index[tuple((x + y) % d for x, y, d in zip(s, t, sizes))] for t in elements]
         for s in elements])


def _partitions(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n into parts of at most ``largest``, parts falling,
    in reverse lexicographic order."""
    if n == 0:
        yield ()
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


def abelian_invariant_factor_lists(order: int) -> list[tuple[int, ...]]:
    """Invariant-factor tuples of every abelian group of the given order."""
    per_prime = [[(p, part) for part in _partitions(e, e)] for p, e in factorize(order)]
    return sorted(_invariant_factors(chosen) for chosen in product(*per_prime))


def abelian_tables_upto(max_order: int) -> list[tuple[tuple[int, ...], F.FiniteStructure]]:
    """One (invariant factors, table) pair per isomorphism class, orders 1..max."""
    out = []
    for order in range(1, max_order + 1):
        for factors in abelian_invariant_factor_lists(order):
            out.append((factors, table_from_invariant_factors(factors)))
    return out


def _element_expressions(t: F.FiniteStructure) -> tuple[list[int], list[tuple[int, ...]]]:
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


def _element_order(t: F.FiniteStructure, x: int) -> int:
    acc, n = x, 1
    while acc != t.identity:
        acc = t.apply(acc, x)
        n += 1
    return n


def tables_isomorphic(t1: F.FiniteStructure, t2: F.FiniteStructure) -> bool:
    """Brute-force isomorphism test via generator images."""
    if t1.size != t2.size:
        return False
    orders1 = [_element_order(t1, x) for x in range(t1.size)]
    orders2 = [_element_order(t2, y) for y in range(t2.size)]
    if sorted(orders1) != sorted(orders2):
        return False
    gens, exprs = _element_expressions(t1)
    candidates = [[y for y in range(t2.size) if orders2[y] == orders1[g]] for g in gens]
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
def _span_coefficients(n: int) -> Enumeration:
    """(k, m̄) for k >= 2 and nonzero m̄ in {0..k-1}^n, by k and then m̄ lexicographically."""
    return Enumeration((k, m) for k in count(2) for m in product(range(k), repeat=n) if any(m))


def _build_multiple_neq(var: str):
    F = formula_module()

    def gen(i: int) -> F.Formula:
        return F.NegAtomic(F.lin({var: i + 1}), F.ZERO)

    return gen, None


def _build_pure_span(targets: tuple[str, ...], witness: str):
    F = formula_module()

    def gen(i: int) -> F.Formula:
        k, m = _span_coefficients(len(targets))[i]
        return F.NegAtomic(F.lin({witness: k, **{x: -c for x, c in zip(targets, m)}}), F.ZERO)

    return gen, None if targets else 0  # no targets: no nonzero m̄, no member


def _build_nonzero_combo(vars: tuple[str, ...], equal: bool):
    F = formula_module()
    atom = F.Atomic if equal else F.NegAtomic

    def gen(i: int) -> F.Formula:
        return atom(F.lin(dict(zip(vars, int_tuple(len(vars), i)))), F.ZERO)

    return gen, None if vars else 0  # no variables: no nonzero combination


def _build_all_combo_eq(target: str, vars: tuple[str, ...]):
    F = formula_module()

    def gen(i: int) -> F.Formula:
        combo = int_tuple(len(vars), i, include_zero=True)
        return F.Atomic(F.lin({target: 1}), F.lin(dict(zip(vars, combo))))

    return gen, None if vars else 1  # no variables: the empty combination only


def _build_fg_relations(rank: int, torsion: tuple[int, ...], vars: tuple[str, ...]):
    F = formula_module()
    if rank < 0 or any(d < 2 for d in torsion) or len(vars) != rank + len(torsion):
        raise ValueError(f"fg-abelian-relations needs rank >= 0, torsion orders >= 2 and "
                         f"one variable per generator, got rank {rank}, torsion "
                         f"{list(torsion)} and vars {list(vars)}")

    def gen(i: int) -> F.Formula:
        combo = int_tuple(len(vars), i, include_zero=True)
        term = F.lin(dict(zip(vars, combo)))
        free_zero = all(k == 0 for k in combo[:rank])
        torsion_zero = all(k % d == 0 for k, d in zip(combo[rank:], torsion))
        if free_zero and torsion_zero:
            return F.Atomic(term, F.ZERO)
        return F.NegAtomic(term, F.ZERO)

    return gen, None if vars else 1


# enum_id -> (builder, param kinds, member level, bound variables): see formula.family
FAMILIES = {
    "multiple-neq": (_build_multiple_neq, {"var": "name"}, (0, 0), ()),
    "pure-span": (_build_pure_span, {"targets": "names", "witness": "name"}, (0, 0), ()),
    "nonzero-combo-neq": (partial(_build_nonzero_combo, equal=False), {"vars": "names"},
                          (0, 0), ()),
    "nonzero-combo-eq": (partial(_build_nonzero_combo, equal=True), {"vars": "names"},
                         (0, 0), ()),
    "all-combo-eq": (_build_all_combo_eq, {"target": "name", "vars": "names"}, (0, 0), ()),
    "fg-abelian-relations": (_build_fg_relations,
                             {"rank": "int", "torsion": "ints", "vars": "names"}, (0, 0), ()),
}


# ---------------------------------------------------------------------------
# Sentences
# ---------------------------------------------------------------------------

def _gen_names(n: int, prefix: str = "x") -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(1, n + 1))


def torsion_free_sentence(var: str = "x") -> F.Formula:
    """Pi(1): every nonzero element has all nonzero multiples nonzero."""
    F = formula_module()
    return F.Forall((var,), F.disj(F.Atomic(F.lin({var: 1}), F.ZERO),
                                   F.family("and", "multiple-neq", {"var": var})))


def independent_tuple_sentence(n: int) -> F.Formula:
    """Sigma(2): n independent elements spanning a pure subgroup.

    Pure: k·y = Σ m_i x_i has no solution y for k >= 2 and nonzero m̄ in
    {0..k-1}^n, so a multiple k·y lies in the span only with every
    coefficient divisible by k.
    """
    F = formula_module()
    gens = _gen_names(n)
    pure = F.Forall(("y",), F.family("and", "pure-span",
                                     {"targets": list(gens), "witness": "y"}))
    independent = F.family("and", "nonzero-combo-neq", {"vars": list(gens)})
    return F.Exists(gens, F.conj(pure, independent))


def dependence_sentence(n: int) -> F.Formula:
    """Pi(2): any n+1 elements satisfy a nontrivial integer relation."""
    F = formula_module()
    names = _gen_names(n + 1)
    return F.Forall(names, F.family("or", "nonzero-combo-eq", {"vars": list(names)}))


def scott_sentence_zn(n: int) -> F.FiniteAnd:
    """d-Sigma(2) Scott sentence for Z^n."""
    F = formula_module()
    if n < 1:
        raise ValueError("rank must be >= 1; use scott_sentence_finite for the trivial group")
    return F.conj(F.abelian_axioms(),
                  torsion_free_sentence(),
                  independent_tuple_sentence(n),
                  dependence_sentence(n))


def delta_formula(t: F.FiniteStructure, names: tuple[str, ...]) -> F.FiniteAnd:
    """Quantifier-free diagram: all products, all inequations, identity pinned.

    An abelian table is written additively.  A non-abelian one is written in
    words, since a linear term does not keep the order of a product.
    """
    F = formula_module()
    k = t.size
    if len(names) != k:
        raise ValueError("one variable per element required")
    if len(set(names)) != k:
        raise ValueError(f"variable names must be distinct, got {list(names)}")
    abelian = t.is_abelian()
    # each term built as lin() or gword() would build it, a sum's variables in order
    var = [F.LinTerm(((n, 1),)) if abelian else F.WordTerm(((n, 1),)) for n in names]

    def product(i: int, j: int) -> F.Term:
        a, b = names[i], names[j]
        if not abelian:
            return F.WordTerm(((a, 1), (b, 1)))
        if i == j:
            return F.LinTerm(((a, 2),))
        return F.LinTerm(((a, 1), (b, 1)) if a < b else ((b, 1), (a, 1)))

    facts: list[F.Formula] = [F.Atomic(var[t.identity], F.ZERO if abelian else F.IDENT)]
    for i in range(k):
        for j in range(k):
            facts.append(F.Atomic(product(i, j), var[t.apply(i, j)]))
    for i in range(k):
        for j in range(i + 1, k):
            facts.append(F.NegAtomic(var[i], var[j]))
    return F.FiniteAnd(tuple(facts))


def _distinctness_sentence(count: int) -> F.Formula:
    """Pi(1): among ``count`` elements some two coincide."""
    F = formula_module()
    names = _gen_names(count, "y")
    pairs = [F.Atomic(F.lin({a: 1}), F.lin({b: 1}))
             for idx, a in enumerate(names) for b in names[idx + 1:]]
    return F.Forall(names, F.FiniteOr(tuple(pairs)))


def scott_sentence_finite(t: F.FiniteStructure) -> F.FiniteAnd:
    """Existential diagram sentence plus a cardinality cap; pins t exactly."""
    F = formula_module()
    k = t.size
    names = _gen_names(k, "t")
    return F.conj(F.Exists(names, delta_formula(t, names)),
                  _distinctness_sentence(k + 1))


def scott_sentence_fg_abelian(desc: FgAbelianDesc) -> F.FiniteAnd:
    """d-Sigma(2) Scott sentence for Z^rank ⊕ T, rank >= 1.

    The first conjunct reads: there are elements forming a copy of T such
    that every element either is one of them or has infinite order.
    """
    F = formula_module()
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
    F = formula_module()
    names = _gen_names(desc.rank + len(desc.invariant_factors), "g")
    relations = F.family("and", "fg-abelian-relations",
                         {"rank": desc.rank, "torsion": list(desc.invariant_factors),
                          "vars": list(names)})
    onto = F.Forall(("y",), F.family("or", "all-combo-eq",
                                     {"target": "y", "vars": list(names)}))
    return F.conj(F.abelian_axioms(),
                  F.Exists(names, F.conj(relations, onto)))
