"""Infinitary group formulas in negation normal form.

A formula is built from atomic (in)equations over group terms, finite
conjunctions/disjunctions, infinite conjunctions/disjunctions presented as
generator functions over natural-number indices ("families"), and quantifier
blocks.  Negation occurs only on atoms.  The module provides

* complexity classification into Sigma(n) / Pi(n) / DSigma(n) /
  QuantifierFree by counting alternations of {or, exists} against
  {and, forall} blocks, reporting the least class; a family counts at the
  level its declaration gives its members, so no member is drawn,
* exact evaluation over finite group tables, with families truncated at a
  caller-supplied bound and an honesty flag saying whether the truncated
  answer is already decided; one backtracking search serves both
  quantifier blocks, each node is compiled once per evaluation and scope,
  and each quantifier-free part the search runs is one generated
  expression of table lookups, whose code is compiled once per text into a
  bounded cache, the one thing kept across evaluations; a node built by
  ``family`` draws each member once and keeps it while the node lives,
* deterministic text / LaTeX rendering,
* a JSON codec: ``dumps`` writes the canonical text directly (sorted keys,
  default separators, ASCII escapes; no keyword arguments), ``to_json_dict``
  parses it, and a family is rebuilt from its enumeration id + parameters by
  the ``FAMILIES`` table of its owner (``dihedral``, ``fgab`` or ``rank1``),
  whose declared parameter kinds ``family`` alone decodes.

Only finite classification levels are supported.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from json.encoder import encode_basestring_ascii as _quote
from types import CodeType, FunctionType
from typing import Any, Callable, Iterator, Mapping, Sequence

from . import is_json_int, json_int, record  # both JSON checks are re-exported

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


def _steps(t: Term) -> list[tuple[str, int]]:
    """``t`` as a product of (variable, exponent) powers, in order: an
    application concatenates, an inverse reverses and negates."""
    if isinstance(t, LinTerm):
        return list(t.coeffs)
    if isinstance(t, WordTerm):
        return list(t.letters)
    if isinstance(t, OpTerm):
        return _steps(t.left) + _steps(t.right)
    if isinstance(t, InvTerm):
        return [(v, -k) for v, k in reversed(_steps(t.arg))]
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
    """Identity of an enumerated family: id, parameters, declared size and
    the members' level.

    Parameters are kept as a canonical JSON string so notes hash, compare,
    and round-trip exactly.  ``size`` is None for genuinely infinite
    enumerations; a non-None size lets the evaluator report exactness once
    every member has been seen.  ``level`` is every member's least (Sigma,
    Pi) pair, as declared; ``classify`` reads it and draws no member.
    """

    enum_id: str
    params: str
    size: int | None
    level: tuple[int, int]


@record(compare=("note",))
class FamilyAnd(Formula):
    note: FamilyNote
    gen: Callable[[int], Formula]


@record(compare=("note",))
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
# Family tables: enumeration id -> (builder, param kinds, member level, bound variables)
# ---------------------------------------------------------------------------

_FAMILY_OWNERS = tuple(f"{__package__}.{name}" for name in ("dihedral", "fgab", "rank1"))


def _is_names(v: Any) -> bool:
    return isinstance(v, list) and all(isinstance(x, str) for x in v)


# kind -> (what a value must be, its test)
_PARAM_KINDS: dict[str, tuple[str, Callable[[Any], bool]]] = {
    "name": ("a string", lambda v: isinstance(v, str)),
    "names": ("a list of strings", _is_names),
    "pair": ("a list of two strings", lambda v: _is_names(v) and len(v) == 2),
    "triple": ("a list of three strings", lambda v: _is_names(v) and len(v) == 3),
    "int": ("an integer", is_json_int),
    "ints": ("a list of integers", lambda v: isinstance(v, list) and all(map(is_json_int, v))),
    "object": ("an object", lambda v: isinstance(v, dict)),
}
_NAME_KINDS = ("name", "names", "pair", "triple")  # the kinds that name variables
# writes what ``json.dumps(value, sort_keys=True)`` writes, without a new encoder per call
_CANONICAL = json.JSONEncoder(sort_keys=True)


def family(kind: str, enum_id: str, params: Mapping[str, Any]) -> FamilyAnd | FamilyOr:
    """Build a family node from its declaration (the only supported path).

    ``dihedral``, ``fgab`` and ``rank1`` declare their families in a table
    ``FAMILIES = {enum_id: (builder, {param: kind}, level, bound)}``: the
    kind of each parameter (a key of ``_PARAM_KINDS``), the members' (Sigma,
    Pi) level, and the variables the members bind.  The tables of those
    already loaded are read first; only an id none of them has imports all
    three.  Each declared parameter is decoded here and passed to
    ``builder`` by keyword; parameters not declared are ignored, and kept in
    the note.  A missing or ill-typed parameter raises ValueError, and so
    does a variable named twice, or named where the members bind it.

    The node draws each member from the builder once and keeps it for as
    long as the node lives, so rendering, ``family_members`` and every
    ``evaluate_exact`` on the node share one copy of member i.
    """
    for name in _FAMILY_OWNERS:
        owner = sys.modules.get(name)
        if owner and enum_id in owner.FAMILIES:
            entry = owner.FAMILIES[enum_id]
            break
    else:
        from . import dihedral, fgab, rank1
        entry = {**dihedral.FAMILIES, **fgab.FAMILIES, **rank1.FAMILIES}.get(enum_id)
    if entry is None:
        raise KeyError(f"unknown family enumeration {enum_id!r}")
    builder, kinds, level, bound = entry
    args, names = {}, [*bound]
    for key, param_kind in kinds.items():
        what, fits = _PARAM_KINDS[param_kind]
        if key not in params:
            raise ValueError(f"family parameter {key!r} is missing")
        if not fits(value := params[key]):
            raise ValueError(f"family parameter {key!r} must be {what}, got {value!r}")
        args[key] = value = tuple(value) if isinstance(value, list) else value
        if param_kind in _NAME_KINDS:
            names.extend((value,) if param_kind == "name" else value)
    for i, var in enumerate(names):
        if var in names[:i]:
            why = ", a variable its members bind" if var in bound else " twice"
            raise ValueError(f"family {enum_id!r} names {var!r}{why}")
    build, size = builder(**args)
    text = _CANONICAL.encode(params if isinstance(params, dict) else dict(params))
    note = FamilyNote(enum_id, text, size, level)
    if kind == "and":
        return FamilyAnd(note, _drawn_once(build))
    if kind == "or":
        return FamilyOr(note, _drawn_once(build))
    raise ValueError(f"family kind must be 'and' or 'or', got {kind!r}")


def _drawn_once(build: Callable[[int], Formula]) -> Callable[[int], Formula]:
    """``build`` with each member kept at its own index once drawn, for as
    long as the family node lives; ``setdefault`` keeps the first of two
    concurrent draws of one index, so both callers share it."""
    members: dict[int, Formula] = {}

    def gen(i: int) -> Formula:
        member = members.get(i)
        return members.setdefault(i, build(i)) if member is None else member
    return gen


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


def _levels(f: Formula) -> tuple[int, int]:
    """Least n with f in Sigma_n, least n with f in Pi_n; (0, 0) exactly when
    f is quantifier-free, and both at least 1 otherwise."""
    if isinstance(f, (Atomic, NegAtomic)):
        return (0, 0)
    if isinstance(f, (FiniteAnd, FiniteOr)):
        # finite connectives never raise the level of their arguments
        child = [_levels(c) for c in f.items]
        return (max((s for s, _ in child), default=0), max((p for _, p in child), default=0))
    if isinstance(f, (FamilyAnd, FamilyOr)):
        if f.note.size == 0:
            return (0, 0)  # empty family is a finitary truth value
        inner = f.note.level  # every member's, as the family declares it
    elif isinstance(f, (Exists, Forall)):
        inner = _levels(f.body)
    else:
        raise TypeError(f"not a formula: {f!r}")
    # an infinite disjunction raises the level as an Exists block does, a conjunction as Forall
    if isinstance(f, (FamilyOr, Exists)):
        s = max(1, inner[0])
        return (s, s + 1)
    p = max(1, inner[1])
    return (p + 1, p)


def classify(f: Formula) -> Complexity:
    """Least complexity class of ``f``.

    A top-level finite conjunction that splits into a Sigma(n) part and a
    Pi(n) part, while not itself being Sigma(n) or Pi(n), reports DSigma(n).
    A family counts at its note's declared member level: no member is drawn.
    """
    # a conjunction's levels are its conjuncts' maxima, so each conjunct is
    # walked once; any other formula is its own one conjunct
    child = [_levels(c) for c in f.items] if isinstance(f, FiniteAnd) else [_levels(f)]
    s, p = max((cs for cs, _ in child), default=0), max((cp for _, cp in child), default=0)
    if s == 0:
        return Complexity("QuantifierFree", 0)
    # the least n at which every conjunct is Sigma(n) or Pi(n)
    n = max(map(min, child))
    if n < min(s, p):
        return Complexity("DSigma", n)
    if p < s:
        return Complexity("Pi", p)
    return Complexity("Sigma", s)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _combine(results: Iterator[tuple[bool, bool]], complete: bool,
             goal: bool) -> tuple[bool, bool]:
    """Combine members' (truth, exact) results: a member whose truth is
    ``goal`` (True for a disjunction, False for a conjunction) decides."""
    hit, exact = False, True
    for t, e in results:
        if t == goal:
            if e:
                return (goal, True)
            hit = True
        exact = exact and e
    if hit:
        return (goal, False)
    return (not goal, exact and complete)


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


def _atom_steps(f: Atomic | NegAtomic, scope: frozenset[str]) -> list[tuple[str, int]]:
    """``lhs * rhs^-1`` as (variable, exponent) powers, in order; the first
    variable outside ``scope`` raises ValueError."""
    steps = _steps(f.lhs) + [(v, -k) for v, k in reversed(_steps(f.rhs))]
    for v, _ in steps:
        if v not in scope:
            raise ValueError(f"not a sentence: variable {v!r} is free")
    return steps


def _block_plan(f: Exists | Forall, scope: frozenset[str]) -> tuple[list[list], list[Formula]]:
    """The body's conjuncts (Exists) or disjuncts (Forall), split into the
    plans of the atoms each depth of the search completes and the items left
    for a full assignment.  Every atom is checked against ``scope``, the
    variables the body sees, even one at a depth the search never reaches."""
    split = FiniteAnd if isinstance(f, Exists) else FiniteOr
    position = {v: i for i, v in enumerate(f.vars)}
    ready: list[list[tuple]] = [[] for _ in f.vars]
    others: list[Formula] = []
    todo = [f.body]
    while todo:
        c = todo.pop()
        if isinstance(c, split):
            todo.extend(reversed(c.items))
        elif isinstance(c, (Atomic, NegAtomic)):
            # an atom is checkable as soon as its last quantified variable is set
            steps = _atom_steps(c, scope)
            depths = [position[v] for v, _ in steps if v in position]
            if depths:
                ready[max(depths)].append(("atom", isinstance(c, Atomic), steps))
            else:
                others.append(c)
        else:
            others.append(c)
    return ready, others


def _reduced(steps: list[tuple[str, int]]) -> list[tuple[str, int]]:
    """``steps`` with adjacent powers of one variable merged and the powers
    that cancel dropped, as in free reduction."""
    out: list[tuple[str, int]] = []
    for v, k in steps:
        if out and out[-1][0] == v:
            k += out.pop()[1]
        if k:
            out.append((v, k))
    return out


# ---------------------------------------------------------------------------
# Generated code of quantifier-free parts
# ---------------------------------------------------------------------------

# source text -> the code of its function; the oldest entry goes first once
# full.  Evaluations in several threads share it: the lock keeps its bound.
_CODE: dict[str, CodeType] = {}
_CODE_LIMIT = 512
_CODE_LOCK = threading.Lock()
# the brackets one generated expression may nest before a connective becomes
# a function of its own: CPython's parser stops at 200
_NESTING = 40
_NO_BUILTINS: dict[str, Any] = {"__builtins__": {}}


def _code(source: str) -> CodeType:
    code = _CODE.get(source)
    if code is None:
        code = eval(source, _NO_BUILTINS).__code__  # the text holds no formula data
        with _CODE_LOCK:
            while len(_CODE) >= _CODE_LIMIT:
                del _CODE[next(iter(_CODE))]
            _CODE[source] = code
    return code


def _fold(op: tuple[tuple[int, ...], ...], acc: int, *values: int) -> int:
    """The product of ``acc`` and ``values``, in order, under the table ``op``."""
    for x in values:
        acc = op[acc][x]
    return acc


class _Source:
    """One generated function under construction: the text of its
    expression, and the value of each generated name the text uses.  ``env``,
    ``op``, ``e`` and ``fold`` name the evaluation's environment, operation
    table, identity and ``_fold``; ``V<i>`` a variable, ``T<i>`` the table
    of x^k for one exponent k other than 1, and ``F<i>`` a connective
    generated as a function of its own.  Names are numbered in order of
    first use, so parts of one shape share one text whatever their
    variables and exponents, and a variable reaches the text only by its
    generated name.  Every name is a parameter whose default is its value,
    so the function reads it as a local."""

    def __init__(self, ev: _Evaluation):
        self.ev = ev
        self.vars: dict[Any, str] = {}  # variable -> V<i>
        self.tables: dict[int, str] = {}  # exponent -> T<i>
        self.names: list[str] = []
        self.values: list[Any] = []

    def _bind(self, prefix: str, value: Any) -> str:
        name = f"{prefix}{len(self.names)}"
        self.names.append(name)
        self.values.append(value)
        return name

    def _power(self, v: Any, k: int) -> str:
        """The text of ``v``'s value to the ``k``th power."""
        var = self.vars.get(v)
        if var is None:
            var = self.vars[v] = self._bind("V", v)
        if k == 1:
            return f"env[{var}]"
        table = self.tables.get(k)
        if table is None:
            table = self.tables[k] = self._bind("T", self.ev.powers[k])
        return f"{table}[env[{var}]]"

    def _atom(self, equal: bool, steps: list[tuple[Any, int]]) -> str:
        # lhs * rhs^-1 is the identity exactly when the product of all powers
        # but the last is the inverse of the last
        powers = _reduced(steps)
        if not powers:
            return str(equal)
        v, k = powers.pop()
        rel = " == " if equal else " != "
        if not powers:
            return self._power(v, -k) + rel + "e"
        terms = [self._power(u, j) for u, j in powers]
        if len(terms) == 1:
            return terms[0] + rel + self._power(v, -k)
        if len(terms) == 2:
            return f"op[{terms[0]}][{terms[1]}]{rel}{self._power(v, -k)}"
        # one flat call, however many powers
        return f"fold(op, {', '.join(terms)}){rel}{self._power(v, -k)}"

    def _expr(self, plan: tuple, depth: int) -> str:
        tag, flag, body = plan
        if tag == "atom":
            return self._atom(flag, body)
        if len(body) < 2:
            return self._expr(body[0], depth) if body else str(flag)
        if depth == _NESTING:
            return self._bind("F", _Source(self.ev).function(plan)) + "()"
        parts = [self._expr(part, depth + 1) for part in body]
        return "(" + (" and " if flag else " or ").join(parts) + ")"

    def function(self, plan: tuple, pair: tuple[bool, bool] | None = None) -> Callable:
        """``plan`` as a ``() -> bool`` function, or, given ``pair``, as a
        ``() -> (truth, exact)`` one whose exactness is ``pair[truth]``.  A
        plan is ``("atom", is an equation, steps)`` or ``("join", is a
        conjunction, plans)``."""
        body = self._expr(plan, 0)
        if pair is not None:
            body = f"(True, {pair[1]}) if {body} else (False, {pair[0]})"
        code = _code(f"lambda env, op, e, fold, {', '.join(self.names)}: {body}")
        ev = self.ev
        return FunctionType(code, _NO_BUILTINS, None,
                            (ev.env, ev.s.op, ev.s.identity, _fold, *self.values))


class _PowerTables(dict):
    """k -> the table of x^k over the domain of one structure, each built
    when first asked for."""

    def __init__(self, s: FiniteStructure):
        super().__init__()
        self.s = s

    def __missing__(self, k: int) -> tuple[int, ...]:
        table = self[k] = tuple(self.s.power(x, k) for x in range(self.s.size))
        return table


class _Evaluation:
    """The state of one ``evaluate_exact`` call: the structure, the family
    bound, the values of the bound variables, which quantifiers assign in
    place and restore on leaving, and each node compiled so far, keyed by
    node identity and scope, the variables bound where the node sits.
    Compiled families keep the members they draw, so every key stays valid
    until ``ev`` returns and drops the memo.  A quantifier-free node
    compiles to a plan, which ``_Source`` turns into a generated function
    when the search first runs it; any other node to a closure.

    One backtracking search serves both quantifier blocks: Exists looks for
    an assignment that makes its body exactly true, Forall for one that
    makes its body exactly false."""

    def __init__(self, s: FiniteStructure, bound: int, env: dict[str, int] | None = None):
        self.s = s
        self.domain = range(s.size)
        self.bound = bound
        self.env = {} if env is None else env
        self._compiled: dict[tuple[int, frozenset[str]], tuple[bool, Any]] = {}
        self.powers = _PowerTables(s)

    def ev(self, f: Formula) -> tuple[bool, bool]:
        try:
            return self._run(*self._compile(f, frozenset(self.env)))()
        finally:  # the closures refer back to this state: free them without the cycle collector
            self._compiled.clear()

    def _run(self, qf: bool, part: Any) -> Callable[[], tuple[bool, bool]]:
        """A compiled part as a ``() -> (truth, exact)`` evaluation."""
        return _Source(self).function(part, (True, True)) if qf else part

    def _compile(self, f: Formula, scope: frozenset[str]) -> tuple[bool, Any]:
        """Whether ``f`` is quantifier-free, and its compiled part, once per
        call and scope: its plan if it is, else a ``() -> (truth, exact)``
        closure.  A plan is ``("atom", is an equation, steps)`` or
        ``("join", is a conjunction, plans)``.  ``scope`` holds the variables
        of the initial environment and of the enclosing blocks; an atom with
        a variable outside it raises ValueError."""
        key = (id(f), scope)
        if key in self._compiled:
            return self._compiled[key]
        if isinstance(f, (Atomic, NegAtomic)):
            compiled = True, ("atom", isinstance(f, Atomic), _atom_steps(f, scope))
        elif isinstance(f, (FiniteAnd, FiniteOr)):
            compiled = self._join(isinstance(f, FiniteAnd),
                                  [self._compile(c, scope) for c in f.items])
        elif isinstance(f, (FamilyAnd, FamilyOr)):
            compiled = False, self._family(f, scope)
        elif isinstance(f, (Exists, Forall)):
            compiled = False, self._block(f, scope)
        else:
            raise TypeError(f"not a formula: {f!r}")
        self._compiled[key] = compiled
        return compiled

    def _join(self, every: bool, parts: list[tuple[bool, Any]]) -> tuple[bool, Any]:
        """The conjunction (``every``) or disjunction of compiled parts: one
        plan if all are quantifier-free."""
        if len(parts) == 1:
            return parts[0]
        if all(qf for qf, _ in parts):
            return True, ("join", every, [plan for _, plan in parts])
        runs = [self._run(*part) for part in parts]
        return False, lambda: _combine((run() for run in runs), True, not every)

    def _family(self, f: FamilyAnd | FamilyOr, scope: frozenset[str]) -> Callable:
        size = f.note.size
        complete = size is not None and size <= self.bound
        count = size if complete else self.bound
        goal = isinstance(f, FamilyOr)  # a member with this value decides the family
        drawn: list[tuple[bool, Any, Callable]] = []  # (quantifier-free, part, run)
        whole: list[Callable] = []  # set once all members are drawn and quantifier-free

        def results() -> Iterator[tuple[bool, bool]]:
            # each member is drawn once, in index order, when first reached
            for i in range(count):
                if i == len(drawn):
                    qf, part = self._compile(f.gen(i), scope)
                    drawn.append((qf, part, _Source(self).function(part) if qf else part))
                    if i == count - 1 and all(qf for qf, _, _ in drawn):
                        plan = ("join", not goal, [part for _, part, _ in drawn])
                        exact = (complete, True) if goal else (True, complete)
                        whole.append(_Source(self).function(plan, exact))
                qf, _, run = drawn[i]
                yield (run(), True) if qf else run()

        def evaluate() -> tuple[bool, bool]:
            if whole:
                return whole[0]()
            return _combine(results(), complete, goal)
        return evaluate

    def _block(self, f: Exists | Forall, scope: frozenset[str]) -> Callable:
        goal = isinstance(f, Exists)  # a witness gives the body this value, and so the block
        shortcut = None if goal else _all_distinct_shortcut(f, self.s)
        if shortcut is not None:
            return lambda: shortcut
        scope = scope | frozenset(f.vars)
        ready, others = _block_plan(f, scope)
        # each depth's checks are generated when the search first reaches it
        search = (f.vars, goal, ready, [None] * len(ready),
                  self._run(*self._join(goal, [self._compile(c, scope) for c in others])))
        env = self.env

        def run() -> tuple[bool, bool]:
            saved = {v: env[v] for v in f.vars if v in env}
            inexact: set[bool] = set()  # body values of full assignments not yet decided
            try:
                found = self._descend(search, 0, inexact)
            finally:
                for v in f.vars:
                    env.pop(v, None)
                env.update(saved)
            if found:
                return (goal, True)
            if inexact:  # the truncated values of the undecided assignments decide, inexactly
                return ((goal in inexact) == goal, False)
            return (not goal, True)
        return run

    def _descend(self, search: tuple, depth: int, inexact: set[bool]) -> bool:
        """Whether values of the block's variables from ``depth`` on give its
        body the goal value exactly.  A value whose ready atoms already give
        the body the other value is not extended.  A method, so that no
        closure calling itself outlives the call in a cycle."""
        names, goal, ready, checks, rest = search
        if depth == len(names):
            t, e = rest()
            if not e:
                inexact.add(t)
            return t == goal and e
        var, check, env = names[depth], checks[depth], self.env
        if check is None:
            check = checks[depth] = _Source(self).function(("join", goal, ready[depth]))
        for val in self.domain:
            env[var] = val
            if check() == goal and self._descend(search, depth + 1, inexact):
                return True
        return False


def evaluate_exact(f: Formula, s: FiniteStructure, family_bound: int = 8) -> tuple[bool, bool]:
    """Evaluate a sentence on a finite group table.

    Quantifiers range over the whole domain.  Families are truncated at
    ``family_bound`` members; the second component reports whether the
    truncated value is already the exact one (a disjunction with a true
    member, a conjunction with a false member, or a family whose declared
    size fits under the bound).  A free variable raises ValueError before
    the evaluation starts, or, in a family member, when the member is
    first drawn.

    Each node is compiled once per call and scope.  Each quantifier-free
    part the search runs (the atoms one search depth completes, a block's
    other items, a connective of atoms, a family once all its members are
    drawn and quantifier-free) becomes one Python expression of table
    lookups.  The code of each expression text is compiled once and kept in
    ``_CODE``, a bounded cache shared by all calls; the text names
    variables, tables and helpers only by generated names, so it holds no
    formula data, and each call binds the code to its own environment,
    operation table, identity and power tables.  Each family member is
    drawn and compiled at most once, when the evaluation first reaches it,
    however many assignments read it.  The closures, the bound code and the
    power tables belong to this call alone.  The members of a node built by
    ``family`` live as long as that node, so a later call or ``render`` on
    the node reuses them; a family node built directly draws its members
    anew in each call.
    """
    if family_bound < 1:
        raise ValueError("family_bound must be >= 1")
    return _Evaluation(s, family_bound).ev(f)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_SYM = {
    "text": {"and": " ∧ ", "or": " ∨ ", "top": "⊤", "bot": "⊥", "eq": " = ", "neq": " ≠ ",
             "Exists": "∃", "Forall": "∀", "bind": " ", "fam-and": "⋀", "fam-or": "⋁",
             "family": "%s[%s](%s)", "dots": "…", "page": "%s",
             "times": "·", "juxt": "·", "scale": "·", "inverse": "^-1"},
    "latex": {"and": r" \wedge ", "or": r" \vee ", "top": r"\top", "bot": r"\bot",
              "eq": " = ", "neq": r" \ne ", "Exists": r"\exists ", "Forall": r"\forall ",
              "bind": r"\, ", "fam-and": r"\bigwedge", "fam-or": r"\bigvee",
              "family": r"%s_{\text{%s}} (%s)", "dots": r"\dots", "page": r"\[ %s \]",
              "times": r"\cdot", "juxt": " ", "scale": "", "inverse": "^{-1}"},
}


class _Names(dict):
    """Variable -> its name as shown, worked out once per ``render`` call: in
    LaTeX a trailing number becomes a subscript."""

    def __init__(self, latex: bool):
        self.latex = latex

    def __missing__(self, var: str) -> str:
        name = var
        if self.latex and var and var[-1].isdigit():
            head = var.rstrip("0123456789")
            name = f"{head}_{{{var[len(head):]}}}"
        self[var] = name
        return name


# no comprehensions below: one would make the arguments closure cells on every call
def _render_term(t: Term, sym: dict, names: _Names) -> str:
    cls = t.__class__
    if cls is LinTerm:
        if not t.coeffs:
            return "0"
        out = None
        for var, k in t.coeffs:
            v = names[var]
            chunk = v if k == 1 else f"-{v}" if k == -1 else f"{k}{sym['scale']}{v}"
            if out is None:
                out = chunk
            else:
                out += f" - {chunk[1:]}" if chunk.startswith("-") else f" + {chunk}"
        return out
    if cls is WordTerm:
        if not t.letters:
            return "e"
        bits = []
        for var, e in t.letters:
            bits.append(names[var] if e == 1 else names[var] + sym["inverse"])
        return sym["juxt"].join(bits)
    if cls is OpTerm:
        op = "+" if t.kind == ADD else sym["times"]
        return f"({_render_term(t.left, sym, names)} {op} {_render_term(t.right, sym, names)})"
    if cls is InvTerm:
        inner = _render_term(t.arg, sym, names)
        return f"-({inner})" if t.kind == ADD else f"({inner}){sym['inverse']}"
    raise TypeError(f"not a term: {t!r}")


def _render(f: Formula, sym: dict, bound: int, names: _Names) -> str:
    cls = f.__class__
    if cls is Atomic or cls is NegAtomic:
        rel = sym["eq"] if cls is Atomic else sym["neq"]
        return _render_term(f.lhs, sym, names) + rel + _render_term(f.rhs, sym, names)
    if cls is FiniteAnd or cls is FiniteOr:
        if not f.items:
            return sym["top"] if cls is FiniteAnd else sym["bot"]
        parts = []
        for c in f.items:
            parts.append(_render(c, sym, bound, names))
        return "(" + (sym["and"] if cls is FiniteAnd else sym["or"]).join(parts) + ")"
    if cls is FamilyAnd or cls is FamilyOr:
        note = f.note.enum_id + ("" if f.note.params in ("{}", "") else "; " + f.note.params)
        members = []
        for m in family_members(f, bound):
            members.append(_render(m, sym, bound, names))
        if f.note.size is None or f.note.size > bound:
            members.append(sym["dots"])
        head, joint = ("fam-and", "and") if cls is FamilyAnd else ("fam-or", "or")
        return sym["family"] % (sym[head], note, sym[joint].join(members))
    if cls is Exists or cls is Forall:
        q = sym["Exists"] if cls is Exists else sym["Forall"]
        vs = ", ".join(map(names.__getitem__, f.vars))
        return q + vs + sym["bind"] + _render(f.body, sym, bound, names)
    raise TypeError(f"not a formula: {f!r}")


def render(f: Formula, fmt: str = "text", family_bound: int = 3) -> str:
    """Deterministic rendering; families show ``family_bound`` members.

    A bound of 0 shows each family by its note alone; a negative one raises
    ValueError."""
    if fmt not in ("text", "latex"):
        raise ValueError("format must be 'text' or 'latex'")
    if family_bound < 0:
        raise ValueError(f"family_bound must be >= 0, got {family_bound}")
    return _SYM[fmt]["page"] % _render(f, _SYM[fmt], family_bound, _Names(fmt == "latex"))


# ---------------------------------------------------------------------------
# JSON codec
# ---------------------------------------------------------------------------

def _term_json(t: Term) -> str:
    cls = t.__class__
    if cls is LinTerm or cls is WordTerm:
        key, pairs = ('{"lin": [', t.coeffs) if cls is LinTerm else ('{"word": [', t.letters)
        return key + ", ".join([f"[{_quote(v)}, {k}]" for v, k in pairs]) + "]}"
    if cls is OpTerm or cls is InvTerm:  # a decoded kind may be any JSON value
        kind = _quote(t.kind) if t.kind.__class__ is str else _CANONICAL.encode(t.kind)
        if cls is InvTerm:
            return f'{{"arg": {_term_json(t.arg)}, "inv": {kind}}}'
        return f'{{"left": {_term_json(t.left)}, "op": {kind}, "right": {_term_json(t.right)}}}'
    raise TypeError(f"not a term: {t!r}")


def dumps(f: Formula) -> str:
    """``f`` as ``json.dumps(to_json_dict(f), sort_keys=True)`` would write it."""
    cls = f.__class__
    if cls is Atomic or cls is NegAtomic:
        tag = '"atom"' if cls is Atomic else '"natom"'
        return f'{{"lhs": {_term_json(f.lhs)}, "rhs": {_term_json(f.rhs)}, "t": {tag}}}'
    if cls is FiniteAnd or cls is FiniteOr:
        tag = '"and"' if cls is FiniteAnd else '"or"'
        return f'{{"items": [{", ".join(map(_dumps, f.items))}], "t": {tag}}}'
    if cls is FamilyAnd or cls is FamilyOr:
        tag = '"fam-and"' if cls is FamilyAnd else '"fam-or"'
        # ``family`` stored the params as their canonical text
        return f'{{"enum": {_quote(f.note.enum_id)}, "params": {f.note.params}, "t": {tag}}}'
    if cls is Exists or cls is Forall:
        tag = '"ex"' if cls is Exists else '"all"'
        names = ", ".join(map(_quote, f.vars))
        return f'{{"body": {_dumps(f.body)}, "t": {tag}, "vars": [{names}]}}'
    raise TypeError(f"not a formula: {f!r}")


# the package's own calls go through this name, so a wrapper on ``dumps`` sees only outside calls
_dumps = dumps


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
    if isinstance(pairs, list):
        out = [(pair[0], pair[1]) for pair in pairs
               if isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str)
               and is_json_int(pair[1])]
        if len(out) == len(pairs):
            return tuple(out)
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


def from_json_dict(d: Any) -> Formula:
    if not isinstance(d, dict):
        raise ValueError(f"a formula must be an object, got {d!r}")
    tag = d.get("t")
    if tag == "atom" or tag == "natom":
        atom = Atomic if tag == "atom" else NegAtomic
        return atom(_term_from_json(d["lhs"]), _term_from_json(d["rhs"]))
    if tag == "and" or tag == "or":
        items = tuple(map(from_json_dict, _expect(d["items"], list, "items")))
        return FiniteAnd(items) if tag == "and" else FiniteOr(items)
    if tag in ("fam-and", "fam-or"):
        if not isinstance(d["enum"], str):
            raise ValueError(f"a family enumeration is named by a string, got {d['enum']!r}")
        params = _expect(d["params"], dict, "family params")
        return family(tag.removeprefix("fam-"), d["enum"], params)
    if tag == "ex" or tag == "all":
        block = Exists if tag == "ex" else Forall
        return block(_json_names(d["vars"]), from_json_dict(d["body"]))
    raise ValueError(f"unknown formula tag: {tag!r}")


def to_json_dict(f: Formula) -> dict:
    return json.loads(_dumps(f))


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
