"""Infinitary group formulas in negation normal form.

A formula is built from atomic (in)equations over group terms, finite
conjunctions/disjunctions, infinite conjunctions/disjunctions presented as
generator functions over natural-number indices ("families"), and quantifier
blocks.  Negation occurs only on atoms.  The module provides

* complexity classification into Sigma(n) / Pi(n) / DSigma(n) /
  QuantifierFree by counting alternations of {or, exists} against
  {and, forall} blocks, reporting the least class,
* exact evaluation over finite group tables, with families truncated at a
  caller-supplied bound and an honesty flag saying whether the truncated
  answer is already decided; each family member is drawn at most once per
  evaluation, and nothing is kept across evaluations,
* deterministic text / LaTeX rendering,
* a JSON codec; family generators are never serialized, they are rebuilt
  from a registry keyed by enumeration id + parameters.

Only finite classification levels are supported.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Callable, Iterator, Mapping, Sequence

from . import record

ADD = "add"
MUL = "mul"


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class Term:
    """Base class for group terms."""

    __slots__ = ()


@record
class LinTerm(Term):
    """Integer linear combination in additive notation; empty means 0."""

    coeffs: tuple[tuple[str, int], ...]

    def __post_init__(self):
        seen = set()
        for var, k in self.coeffs:
            if var in seen:
                raise ValueError(f"duplicate variable {var!r} in linear term")
            seen.add(var)
            if k == 0:
                raise ValueError("zero coefficient must be dropped")


@record
class WordTerm(Term):
    """Group word in multiplicative notation; letters carry exponent +1/-1."""

    letters: tuple[tuple[str, int], ...]

    def __post_init__(self):
        for _, e in self.letters:
            if e not in (1, -1):
                raise ValueError("word letters must have exponent +1 or -1")


@record
class OpTerm(Term):
    """Explicit binary application of the group operation."""

    kind: str
    left: Term
    right: Term


@record
class InvTerm(Term):
    """Explicit inverse (negation in additive notation)."""

    kind: str
    arg: Term


ZERO = LinTerm(())
IDENT = WordTerm(())


def lin(coeffs: Mapping[str, int]) -> LinTerm:
    return LinTerm(tuple(sorted((v, k) for v, k in coeffs.items() if k != 0)))


def gword(letters: Sequence[tuple[str, int]]) -> WordTerm:
    return WordTerm(tuple(letters))


def term_variables(t: Term) -> frozenset[str]:
    return frozenset(v for v, _ in _steps(t))


def _steps(t: Term, written: bool = False) -> list[tuple[str, int]]:
    """``t`` as a product of (variable, exponent) powers, in order: an
    application concatenates, an inverse reverses and negates, unless
    ``written`` asks for the variables in the order they are written."""
    if isinstance(t, LinTerm):
        return list(t.coeffs)
    if isinstance(t, WordTerm):
        return list(t.letters)
    if isinstance(t, OpTerm):
        return _steps(t.left, written) + _steps(t.right, written)
    if isinstance(t, InvTerm):
        steps = _steps(t.arg, written)
        return steps if written else [(v, -k) for v, k in reversed(steps)]
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Formula nodes
# ---------------------------------------------------------------------------

class Formula:
    """Base class for formula nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return render(self, "text", 3)


@record
class Atomic(Formula):
    lhs: Term
    rhs: Term


@record
class NegAtomic(Formula):
    lhs: Term
    rhs: Term


@record
class FiniteAnd(Formula):
    items: tuple[Formula, ...]


@record
class FiniteOr(Formula):
    items: tuple[Formula, ...]


@record
class FamilyNote:
    """Identity of an enumerated family: id, parameters, declared size.

    Parameters are kept as a canonical JSON string so notes hash, compare,
    and round-trip exactly.  ``size`` is None for genuinely infinite
    enumerations; a non-None size lets the evaluator report exactness once
    every member has been seen.
    """

    enum_id: str
    params: str
    size: int | None


@record(hidden=("gen",))
class FamilyAnd(Formula):
    note: FamilyNote
    gen: Callable[[int], Formula]


@record(hidden=("gen",))
class FamilyOr(Formula):
    note: FamilyNote
    gen: Callable[[int], Formula]


@record
class Exists(Formula):
    vars: tuple[str, ...]
    body: Formula

    def __post_init__(self):
        if not self.vars:
            raise ValueError("empty quantifier block")


@record
class Forall(Formula):
    vars: tuple[str, ...]
    body: Formula

    def __post_init__(self):
        if not self.vars:
            raise ValueError("empty quantifier block")


def conj(*items: Formula) -> FiniteAnd:
    return FiniteAnd(tuple(items))


def disj(*items: Formula) -> FiniteOr:
    return FiniteOr(tuple(items))


def family_members(f: FamilyAnd | FamilyOr, count: int) -> list[Formula]:
    """First ``count`` members of a family (fewer if the family is smaller)."""
    n = count if f.note.size is None else min(count, f.note.size)
    return [f.gen(i) for i in range(n)]


# ---------------------------------------------------------------------------
# Family registry: enumeration id + params -> (generator, size)
# ---------------------------------------------------------------------------

FamilyBuilder = Callable[[dict], tuple[Callable[[int], Formula], int | None]]

_REGISTRY: dict[str, FamilyBuilder] = {}


def is_json_int(v: Any) -> bool:
    """Whether ``v`` decoded as a JSON integer: an int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def json_int(v: Any) -> int:
    """``v`` if it decoded as a JSON integer; a float, a string or a boolean
    raises ValueError rather than being truncated or parsed."""
    if not is_json_int(v):
        raise ValueError(f"expected an integer, got {v!r}")
    return v


_PARAM_KINDS: dict[str, tuple[str, Callable[[Any], bool]]] = {
    "name": ("a string", lambda v: isinstance(v, str)),
    "names": ("a list of strings",
              lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v)),
    "int": ("an integer", is_json_int),
    "ints": ("a list of integers", lambda v: isinstance(v, list) and all(map(is_json_int, v))),
    "object": ("an object", lambda v: isinstance(v, dict)),
}


def family_param(params: Mapping[str, Any], key: str, kind: str) -> Any:
    """Family parameter ``key`` decoded as ``kind``: "name", "names", "int",
    "ints" or "object"; a list comes back as a tuple.  A missing or
    ill-typed parameter raises ValueError."""
    what, fits = _PARAM_KINDS[kind]
    if key not in params:
        raise ValueError(f"family parameter {key!r} is missing")
    value = params[key]
    if not fits(value):
        raise ValueError(f"family parameter {key!r} must be {what}, got {value!r}")
    return tuple(value) if isinstance(value, list) else value


def register_family(enum_id: str, builder: FamilyBuilder) -> None:
    if enum_id in _REGISTRY:
        raise ValueError(f"family enumeration {enum_id!r} already registered")
    _REGISTRY[enum_id] = builder


def family(kind: str, enum_id: str, params: Mapping[str, Any]) -> FamilyAnd | FamilyOr:
    """Build a family node through the registry (the only supported path).

    Families register when their module loads, so an id not yet registered
    first imports the modules that own families and is looked up again.
    """
    if enum_id not in _REGISTRY:
        from . import dihedral, fgab, rank1  # importing them registers their families
    if enum_id not in _REGISTRY:
        raise KeyError(f"unknown family enumeration {enum_id!r}")
    gen, size = _REGISTRY[enum_id](dict(params))
    note = FamilyNote(enum_id, json.dumps(dict(params), sort_keys=True), size)
    if kind == "and":
        return FamilyAnd(note, gen)
    if kind == "or":
        return FamilyOr(note, gen)
    raise ValueError(f"family kind must be 'and' or 'or', got {kind!r}")


# ---------------------------------------------------------------------------
# Finite structures
# ---------------------------------------------------------------------------

@record
class FiniteStructure:
    """A finite group given by its operation table.

    Associativity, identity and inverses are checked on construction, so
    every admissible evaluation target really is a group.
    """

    op: tuple[tuple[int, ...], ...]
    identity: int
    inv: tuple[int, ...]

    @classmethod
    def from_table(cls, rows: Sequence[Sequence[int]]) -> "FiniteStructure":
        k = len(rows)
        op = tuple(tuple(r) for r in rows)
        if any(len(r) != k for r in op):
            raise ValueError("operation table is not square")
        for r in op:
            for x in r:
                if not 0 <= x < k:
                    raise ValueError("table entry out of range")
        for a in range(k):
            for b in range(k):
                for c in range(k):
                    if op[op[a][b]][c] != op[a][op[b][c]]:
                        raise ValueError("operation is not associative")
        identity = None
        for e in range(k):
            if all(op[e][x] == x and op[x][e] == x for x in range(k)):
                identity = e
                break
        if identity is None:
            raise ValueError("no identity element")
        inv = []
        for x in range(k):
            found = [y for y in range(k) if op[x][y] == identity]
            if not found:
                raise ValueError(f"element {x} has no inverse")
            inv.append(found[0])
        return cls(op, identity, tuple(inv))

    @property
    def size(self) -> int:
        return len(self.op)

    def apply(self, a: int, b: int) -> int:
        return self.op[a][b]

    def power(self, x: int, n: int) -> int:
        """n-fold application (scalar multiple in additive notation)."""
        if n < 0:
            x, n = self.inv[x], -n
        acc = self.identity
        while n:
            if n & 1:
                acc = self.op[acc][x]
            x = self.op[x][x]
            n >>= 1
        return acc

    def is_abelian(self) -> bool:
        k = self.size
        return all(self.op[a][b] == self.op[b][a] for a in range(k) for b in range(k))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

@record
class Complexity:
    kind: str  # "Sigma" | "Pi" | "DSigma" | "QuantifierFree"
    level: int

    def __str__(self) -> str:
        if self.kind == "QuantifierFree":
            return "quantifier-free"
        if self.kind == "DSigma":
            return f"d-Sigma({self.level})"
        return f"{self.kind}({self.level})"


_CLASSIFY_PROBE = 3  # family members inspected; emitted families are shape-uniform


def _is_quantifier_free(f: Formula) -> bool:
    if isinstance(f, (Atomic, NegAtomic)):
        return True
    if isinstance(f, (FiniteAnd, FiniteOr)):
        return all(_is_quantifier_free(c) for c in f.items)
    return False


def _levels(f: Formula) -> tuple[int, int]:
    """Least n with f in Sigma_n, least n with f in Pi_n."""
    if _is_quantifier_free(f):
        return (0, 0)
    if isinstance(f, (FiniteAnd, FiniteOr)):
        # finite connectives never raise the level of their arguments
        child = [_levels(c) for c in f.items]
        return (max(1, max(s for s, _ in child)), max(1, max(p for _, p in child)))
    if isinstance(f, (FamilyAnd, FamilyOr)):
        size = f.note.size
        if size == 0:
            return (0, 0)  # empty family is a finitary truth value
        probe = _CLASSIFY_PROBE if size is None else min(size, _CLASSIFY_PROBE)
        child = [_levels(f.gen(i)) for i in range(probe)]
        if isinstance(f, FamilyAnd):
            p = max(1, max(pp for _, pp in child))
            return (p + 1, p)
        s = max(1, max(ss for ss, _ in child))
        return (s, s + 1)
    if isinstance(f, Exists):
        s = max(1, _levels(f.body)[0])
        return (s, s + 1)
    if isinstance(f, Forall):
        p = max(1, _levels(f.body)[1])
        return (p + 1, p)
    raise TypeError(f"not a formula: {f!r}")


def classify(f: Formula) -> Complexity:
    """Least complexity class of ``f``.

    A top-level finite conjunction that splits into a Sigma(n) part and a
    Pi(n) part, while not itself being Sigma(n) or Pi(n), reports DSigma(n).
    """
    s, p = _levels(f)
    if s == 0 and p == 0:
        return Complexity("QuantifierFree", 0)
    if isinstance(f, FiniteAnd):
        for n in range(1, min(s, p)):
            if all(_levels(c)[0] <= n or _levels(c)[1] <= n for c in f.items):
                return Complexity("DSigma", n)
    if p < s:
        return Complexity("Pi", p)
    return Complexity("Sigma", s)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _combine_all(results: Iterator[tuple[bool, bool]], complete: bool) -> tuple[bool, bool]:
    truth, exact = True, True
    for t, e in results:
        if not t and e:
            return (False, True)
        truth = truth and t
        exact = exact and e
    if truth:
        return (True, exact and complete)
    return (False, False)


def _combine_any(results: Iterator[tuple[bool, bool]], complete: bool) -> tuple[bool, bool]:
    truth, exact = False, True
    for t, e in results:
        if t and e:
            return (True, True)
        truth = truth or t
        exact = exact and e
    if not truth:
        return (False, exact and complete)
    return (True, False)


def _flatten_and(f: Formula) -> list[Formula]:
    if isinstance(f, FiniteAnd):
        out: list[Formula] = []
        for c in f.items:
            out.extend(_flatten_and(c))
        return out
    return [f]


def _bare_var(t: Term) -> str | None:
    if isinstance(t, LinTerm) and len(t.coeffs) == 1 and t.coeffs[0][1] == 1:
        return t.coeffs[0][0]
    if isinstance(t, WordTerm) and len(t.letters) == 1 and t.letters[0][1] == 1:
        return t.letters[0][0]
    return None


def _all_distinct_shortcut(f: Forall, s: FiniteStructure) -> tuple[bool, bool] | None:
    """Recognize 'some two of the quantified variables coincide'.

    The naive sweep over that sentence visits every injective assignment,
    which is factorial in the domain; cardinality comparison is exact.
    """
    if not isinstance(f.body, FiniteOr):
        return None
    want = {frozenset(pair) for pair in itertools.combinations(f.vars, 2)}
    got = set()
    for item in f.body.items:
        if not isinstance(item, Atomic):
            return None
        a, b = _bare_var(item.lhs), _bare_var(item.rhs)
        if a is None or b is None or a == b:
            return None
        got.add(frozenset((a, b)))
    if got == want and len(f.vars) >= 2:
        return (s.size < len(f.vars), True)
    return None


def _exists_plan(f: Exists) -> tuple[tuple[tuple[Formula, ...], ...], tuple[Formula, ...]]:
    """The backtracking plan of ``f``: per depth, the atoms its variable
    completes, and the conjuncts left for a full assignment."""
    conjuncts = _flatten_and(f.body)
    quantified = set(f.vars)
    others = [c for c in conjuncts if not isinstance(c, (Atomic, NegAtomic))]
    # an atom becomes checkable as soon as its last quantified variable is set
    position = {v: i for i, v in enumerate(f.vars)}
    ready: list[list[Formula]] = [[] for _ in f.vars]
    for c in conjuncts:
        if isinstance(c, (Atomic, NegAtomic)):
            needed = (term_variables(c.lhs) | term_variables(c.rhs)) & quantified
            if needed:
                ready[max(position[v] for v in needed)].append(c)
            else:
                others.append(c)
    return tuple(map(tuple, ready)), tuple(others)


def _pair(qf: bool, run: Callable) -> Callable[[], tuple[bool, bool]]:
    """A compiled node's closure as a ``() -> (truth, exact)`` evaluation."""
    return (lambda: (run(), True)) if qf else run


class _Evaluation:
    """The state of one ``evaluate_exact`` call: the structure, the family
    bound, the values of the bound variables, which quantifiers assign in
    place and restore on leaving, and each node compiled so far, keyed by
    node identity.  Compiled families keep the members they draw, so every
    key stays valid until ``ev`` returns and drops the memo."""

    def __init__(self, s: FiniteStructure, bound: int, env: dict[str, int] | None = None):
        self.s = s
        self.bound = bound
        self.env = {} if env is None else env
        self._compiled: dict[int, tuple[bool, Callable]] = {}
        self._powers: dict[int, tuple[int, ...]] = {}

    def ev(self, f: Formula) -> tuple[bool, bool]:
        try:
            return _pair(*self._compile(f))()
        finally:  # the closures refer back to this state: free them without the cycle collector
            self._compiled.clear()

    def _compile(self, f: Formula) -> tuple[bool, Callable]:
        """Whether ``f`` is quantifier-free, and its closure, compiled once per
        call: ``() -> bool`` if it is, else ``() -> (truth, exact)``."""
        if id(f) in self._compiled:
            return self._compiled[id(f)]
        if isinstance(f, (Atomic, NegAtomic)):
            compiled = True, self._atom(f)
        elif isinstance(f, (FiniteAnd, FiniteOr)):
            compiled = self._connective(isinstance(f, FiniteAnd), f.items)
        elif isinstance(f, (FamilyAnd, FamilyOr)):
            compiled = False, self._family(f)
        elif isinstance(f, (Exists, Forall)):
            compiled = False, (self._exists if isinstance(f, Exists) else self._forall)(f)
        else:
            raise TypeError(f"not a formula: {f!r}")
        self._compiled[id(f)] = compiled
        return compiled

    def _power(self, k: int) -> tuple[int, ...]:
        if k not in self._powers:
            self._powers[k] = tuple(self.s.power(x, k) for x in range(self.s.size))
        return self._powers[k]

    def _atom(self, f: Atomic | NegAtomic) -> Callable[[], bool]:
        # lhs = rhs exactly when lhs * rhs^-1 is the identity
        steps = _steps(f.lhs) + [(v, -k) for v, k in reversed(_steps(f.rhs))]
        steps = [(v, self._power(k)) for v, k in steps]
        op, e, env, equal = self.s.op, self.s.identity, self.env, isinstance(f, Atomic)

        def holds() -> bool:
            acc = e
            try:
                for var, table in steps:
                    acc = op[acc][table[env[var]]]
            except KeyError:  # report the first unbound variable as written
                written = _steps(f.lhs, True) + _steps(f.rhs, True)
                raise KeyError(next(v for v, _ in written if v not in env)) from None
            return (acc == e) == equal
        return holds

    def _connective(self, every: bool, items: Sequence[Formula]) -> tuple[bool, Callable]:
        """The conjunction (``every``) or disjunction of ``items``."""
        parts = [self._compile(c) for c in items]
        if all(qf for qf, _ in parts):
            tests = [run for _, run in parts]

            def test() -> bool:
                for t in tests:
                    if t() != every:
                        return not every
                return every
            return True, test
        runs = [_pair(*part) for part in parts]
        combine = _combine_all if every else _combine_any
        return False, lambda: combine((run() for run in runs), True)

    def _family(self, f: FamilyAnd | FamilyOr) -> Callable[[], tuple[bool, bool]]:
        size = f.note.size
        complete = size is not None and size <= self.bound
        count = size if complete else self.bound
        combine = _combine_all if isinstance(f, FamilyAnd) else _combine_any
        drawn: list[tuple[Formula, bool, Callable]] = []

        def results() -> Iterator[tuple[bool, bool]]:
            # each member is drawn once, in index order, when first reached
            for i in range(count):
                if i == len(drawn):
                    member = f.gen(i)
                    drawn.append((member, *self._compile(member)))
                _, qf, run = drawn[i]
                yield (run(), True) if qf else run()
        return lambda: combine(results(), complete)

    def _restore(self, names: tuple[str, ...], saved: dict[str, int]) -> None:
        for v in names:
            self.env.pop(v, None)
        self.env.update(saved)

    def _exists(self, f: Exists) -> Callable[[], tuple[bool, bool]]:
        ready, others = _exists_plan(f)
        # each depth's checks are compiled when the search first reaches it
        search = (f.vars, ready, [None] * len(ready), _pair(*self._connective(True, others)))

        def run() -> tuple[bool, bool]:
            saved = {v: self.env[v] for v in f.vars if v in self.env}
            inexact: set[bool] = set()  # truth values of full assignments not yet decided
            try:
                found = self._descend(search, 0, inexact)
            finally:
                self._restore(f.vars, saved)
            if found:
                return (True, True)
            return (True in inexact, False) if inexact else (False, True)
        return run

    def _descend(self, search: tuple, depth: int, inexact: set[bool]) -> bool:
        """Whether values of the block's variables from ``depth`` on satisfy it;
        a method, so that no closure calling itself outlives the call in a cycle."""
        names, ready, checks, rest = search
        if depth == len(names):
            t, e = rest()
            if not e:
                inexact.add(t)
            return t and e
        var, check, env = names[depth], checks[depth], self.env
        if check is None:
            check = checks[depth] = self._connective(True, ready[depth])[1]
        for val in range(self.s.size):
            env[var] = val
            if check() and self._descend(search, depth + 1, inexact):
                return True
        return False

    def _forall(self, f: Forall) -> Callable[[], tuple[bool, bool]]:
        shortcut = _all_distinct_shortcut(f, self.s)
        if shortcut is not None:
            return lambda: shortcut
        body = _pair(*self._compile(f.body))
        size, env, names = self.s.size, self.env, f.vars

        def run() -> tuple[bool, bool]:
            saved = {v: env[v] for v in names if v in env}

            def assignments():
                for combo in itertools.product(range(size), repeat=len(names)):
                    env.update(zip(names, combo))
                    yield body()

            try:
                return _combine_all(assignments(), True)
            finally:
                self._restore(names, saved)
        return run


def _free_variables(f: Formula, bound: frozenset[str] = frozenset()) -> frozenset[str]:
    """Variables of ``f`` outside families that no quantifier binds."""
    if isinstance(f, (Atomic, NegAtomic)):
        return (term_variables(f.lhs) | term_variables(f.rhs)) - bound
    if isinstance(f, (FiniteAnd, FiniteOr)):
        return frozenset().union(*(_free_variables(c, bound) for c in f.items))
    if isinstance(f, (Exists, Forall)):
        return _free_variables(f.body, bound | frozenset(f.vars))
    return frozenset()


def _not_a_sentence(name: str) -> ValueError:
    return ValueError(f"not a sentence: variable {name!r} is free")


def require_sentence(f: Formula) -> None:
    """Raise ValueError naming a free variable of ``f`` outside families.

    ``evaluate_exact`` reports only the free variables its evaluation
    reaches, so a caller with outside input checks here first.  Evaluation
    does not walk the formula itself: on a finite Scott sentence checked on a
    relabelled copy of its group, the walk costs a third of the evaluation."""
    free = _free_variables(f)
    if free:
        raise _not_a_sentence(min(free))


def evaluate_exact(f: Formula, s: FiniteStructure, family_bound: int = 8) -> tuple[bool, bool]:
    """Evaluate a sentence on a finite group table.

    Quantifiers range over the whole domain.  Families are truncated at
    ``family_bound`` members; the second component reports whether the
    truncated value is already the exact one (a disjunction with a true
    member, a conjunction with a false member, or a family whose declared
    size fits under the bound).  A free variable that the evaluation
    reaches raises ValueError; ``require_sentence`` finds the others
    outside families.

    Each node is compiled once per call: quantifier-free parts into plain
    boolean closures, atoms into table lookups.  Each family member is drawn
    and compiled at most once, when the evaluation first reaches it, however
    many assignments read it.  The compiled closures, the drawn members and
    the power tables belong to this call alone: nothing is kept across calls.
    """
    if family_bound < 1:
        raise ValueError("family_bound must be >= 1")
    try:
        return _Evaluation(s, family_bound).ev(f)
    except KeyError as exc:  # an unbound variable
        raise _not_a_sentence(exc.args[0]) from None


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _render_term(t: Term, fmt: str) -> str:
    if isinstance(t, LinTerm):
        if not t.coeffs:
            return "0"
        parts = []
        for var, k in t.coeffs:
            v = _render_var(var, fmt)
            if k == 1:
                chunk = v
            elif k == -1:
                chunk = f"-{v}"
            else:
                chunk = f"{k}{v}" if fmt == "latex" else f"{k}·{v}"
            parts.append(chunk)
        out = parts[0]
        for chunk in parts[1:]:
            out += f" - {chunk[1:]}" if chunk.startswith("-") else f" + {chunk}"
        return out
    if isinstance(t, WordTerm):
        if not t.letters:
            return "e"
        sep = " " if fmt == "latex" else "·"
        bits = []
        for var, e in t.letters:
            v = _render_var(var, fmt)
            bits.append(v if e == 1 else (f"{v}^{{-1}}" if fmt == "latex" else f"{v}^-1"))
        return sep.join(bits)
    if isinstance(t, OpTerm):
        sym = "+" if t.kind == ADD else (r"\cdot" if fmt == "latex" else "·")
        return f"({_render_term(t.left, fmt)} {sym} {_render_term(t.right, fmt)})"
    if isinstance(t, InvTerm):
        inner = _render_term(t.arg, fmt)
        if t.kind == ADD:
            return f"-({inner})"
        return f"({inner})^{{-1}}" if fmt == "latex" else f"({inner})^-1"
    raise TypeError(f"not a term: {t!r}")


def _render_var(var: str, fmt: str) -> str:
    if fmt == "latex" and var and var[-1].isdigit():
        head = var.rstrip("0123456789")
        return f"{head}_{{{var[len(head):]}}}"
    return var


_SYM = {
    "text": {"and": " ∧ ", "or": " ∨ ", "Exists": "∃", "Forall": "∀",
             "fam-and": "⋀", "fam-or": "⋁", "eq": " = ", "neq": " ≠ ",
             "dots": "…"},
    "latex": {"and": r" \wedge ", "or": r" \vee ", "Exists": r"\exists",
              "Forall": r"\forall", "fam-and": r"\bigwedge", "fam-or": r"\bigvee",
              "eq": " = ", "neq": r" \ne ", "dots": r"\dots"},
}


def _render(f: Formula, fmt: str, bound: int) -> str:
    sym = _SYM[fmt]
    if isinstance(f, Atomic):
        return _render_term(f.lhs, fmt) + sym["eq"] + _render_term(f.rhs, fmt)
    if isinstance(f, NegAtomic):
        return _render_term(f.lhs, fmt) + sym["neq"] + _render_term(f.rhs, fmt)
    if isinstance(f, FiniteAnd):
        if not f.items:
            return r"\top" if fmt == "latex" else "⊤"
        return "(" + sym["and"].join(_render(c, fmt, bound) for c in f.items) + ")"
    if isinstance(f, FiniteOr):
        if not f.items:
            return r"\bot" if fmt == "latex" else "⊥"
        return "(" + sym["or"].join(_render(c, fmt, bound) for c in f.items) + ")"
    if isinstance(f, (FamilyAnd, FamilyOr)):
        head = sym["fam-and"] if isinstance(f, FamilyAnd) else sym["fam-or"]
        note = f.note.enum_id
        if f.note.params not in ("{}", ""):
            note += "; " + f.note.params
        members = [_render(m, fmt, bound) for m in family_members(f, bound)]
        open_ended = f.note.size is None or f.note.size > bound
        if open_ended:
            members.append(sym["dots"])
        body = sym["and"].join(members) if isinstance(f, FamilyAnd) else sym["or"].join(members)
        if fmt == "latex":
            return head + r"_{\text{" + note + "}} (" + body + ")"
        return head + "[" + note + "](" + body + ")"
    if isinstance(f, (Exists, Forall)):
        q = sym["Exists"] if isinstance(f, Exists) else sym["Forall"]
        vs = ", ".join(_render_var(v, fmt) for v in f.vars)
        if fmt == "latex":
            return f"{q} {vs}\\, " + _render(f.body, fmt, bound)
        return f"{q}{vs} " + _render(f.body, fmt, bound)
    raise TypeError(f"not a formula: {f!r}")


def render(f: Formula, fmt: str = "text", family_bound: int = 3) -> str:
    """Deterministic rendering; families show ``family_bound`` members.

    A bound of 0 shows each family by its note alone; a negative one raises
    ValueError."""
    if fmt not in ("text", "latex"):
        raise ValueError("format must be 'text' or 'latex'")
    if family_bound < 0:
        raise ValueError(f"family_bound must be >= 0, got {family_bound}")
    out = _render(f, fmt, family_bound)
    if fmt == "latex":
        return r"\[ " + out + r" \]"
    return out


# ---------------------------------------------------------------------------
# JSON codec
# ---------------------------------------------------------------------------

def _term_to_json(t: Term) -> Any:
    if isinstance(t, LinTerm):
        return {"lin": [[v, k] for v, k in t.coeffs]}
    if isinstance(t, WordTerm):
        return {"word": [[v, e] for v, e in t.letters]}
    if isinstance(t, OpTerm):
        return {"op": t.kind, "left": _term_to_json(t.left), "right": _term_to_json(t.right)}
    if isinstance(t, InvTerm):
        return {"inv": t.kind, "arg": _term_to_json(t.arg)}
    raise TypeError(f"not a term: {t!r}")


def _expect(value: Any, kind: type, what: str) -> Any:
    """``value`` if it decoded as a JSON object (``dict``) or list (``list``)."""
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "a list"
        raise ValueError(f"{what} must be {name}, got {value!r}")
    return value


def _json_names(names: Any) -> tuple[str, ...]:
    if not isinstance(names, list) or not all(isinstance(v, str) for v in names):
        raise ValueError(f"variables must be a list of strings, got {names!r}")
    return tuple(names)


def _json_pairs(pairs: Any) -> tuple[tuple[str, int], ...]:
    """A list of [variable, integer] pairs, as in ``lin`` and ``word`` terms."""
    if isinstance(pairs, list) and all(
            isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str)
            and is_json_int(pair[1]) for pair in pairs):
        return tuple((v, k) for v, k in pairs)
    raise ValueError(f"expected a list of [variable, integer] pairs, got {pairs!r}")


def _term_from_json(d: Any) -> Term:
    if not isinstance(d, dict):
        raise ValueError(f"a term must be an object, got {d!r}")
    if "lin" in d:
        return LinTerm(_json_pairs(d["lin"]))
    if "word" in d:
        return WordTerm(_json_pairs(d["word"]))
    if "op" in d:
        return OpTerm(d["op"], _term_from_json(d["left"]), _term_from_json(d["right"]))
    if "inv" in d:
        return InvTerm(d["inv"], _term_from_json(d["arg"]))
    raise ValueError(f"unknown term shape: {d!r}")


def to_json_dict(f: Formula) -> dict:
    if isinstance(f, Atomic):
        return {"t": "atom", "lhs": _term_to_json(f.lhs), "rhs": _term_to_json(f.rhs)}
    if isinstance(f, NegAtomic):
        return {"t": "natom", "lhs": _term_to_json(f.lhs), "rhs": _term_to_json(f.rhs)}
    if isinstance(f, FiniteAnd):
        return {"t": "and", "items": [to_json_dict(c) for c in f.items]}
    if isinstance(f, FiniteOr):
        return {"t": "or", "items": [to_json_dict(c) for c in f.items]}
    if isinstance(f, FamilyAnd):
        return {"t": "fam-and", "enum": f.note.enum_id, "params": json.loads(f.note.params)}
    if isinstance(f, FamilyOr):
        return {"t": "fam-or", "enum": f.note.enum_id, "params": json.loads(f.note.params)}
    if isinstance(f, Exists):
        return {"t": "ex", "vars": list(f.vars), "body": to_json_dict(f.body)}
    if isinstance(f, Forall):
        return {"t": "all", "vars": list(f.vars), "body": to_json_dict(f.body)}
    raise TypeError(f"not a formula: {f!r}")


def from_json_dict(d: Any) -> Formula:
    if not isinstance(d, dict):
        raise ValueError(f"a formula must be an object, got {d!r}")
    tag = d.get("t")
    if tag == "atom":
        return Atomic(_term_from_json(d["lhs"]), _term_from_json(d["rhs"]))
    if tag == "natom":
        return NegAtomic(_term_from_json(d["lhs"]), _term_from_json(d["rhs"]))
    if tag == "and":
        return FiniteAnd(tuple(from_json_dict(c) for c in _expect(d["items"], list, "items")))
    if tag == "or":
        return FiniteOr(tuple(from_json_dict(c) for c in _expect(d["items"], list, "items")))
    if tag in ("fam-and", "fam-or"):
        if not isinstance(d["enum"], str):
            raise ValueError(f"a family enumeration is named by a string, got {d['enum']!r}")
        params = _expect(d["params"], dict, "family params")
        return family(tag.removeprefix("fam-"), d["enum"], params)
    if tag == "ex":
        return Exists(_json_names(d["vars"]), from_json_dict(d["body"]))
    if tag == "all":
        return Forall(_json_names(d["vars"]), from_json_dict(d["body"]))
    raise ValueError(f"unknown formula tag: {tag!r}")


def dumps(f: Formula, **kwargs) -> str:
    return json.dumps(to_json_dict(f), sort_keys=True, **kwargs)


def loads(text: str) -> Formula:
    return from_json_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Shared axiom bundles
# ---------------------------------------------------------------------------

def _v(name: str, kind: str) -> Term:
    return lin({name: 1}) if kind == ADD else gword([(name, 1)])


def group_axioms(kind: str = MUL) -> FiniteAnd:
    """Finitary Pi(1) group axioms in the requested notation."""
    x, y, z = (_v(n, kind) for n in ("x", "y", "z"))
    ident = ZERO if kind == ADD else IDENT
    assoc = Forall(("x", "y", "z"),
                   Atomic(OpTerm(kind, OpTerm(kind, x, y), z),
                          OpTerm(kind, x, OpTerm(kind, y, z))))
    unit = Forall(("x",), conj(Atomic(OpTerm(kind, x, ident), x),
                               Atomic(OpTerm(kind, ident, x), x)))
    inverse = Forall(("x",), conj(Atomic(OpTerm(kind, x, InvTerm(kind, x)), ident),
                                  Atomic(OpTerm(kind, InvTerm(kind, x), x), ident)))
    return conj(assoc, unit, inverse)


def abelian_axioms() -> FiniteAnd:
    """Group axioms plus commutativity, in additive notation."""
    x, y = _v("x", ADD), _v("y", ADD)
    comm = Forall(("x", "y"), Atomic(OpTerm(ADD, x, y), OpTerm(ADD, y, x)))
    return FiniteAnd(group_axioms(ADD).items + (comm,))
