"""Stage-driven simulators for limit constructions over approximation traces.

Each simulator consumes a finite trace of per-stage membership guesses
(s1, s2) and enumerates a monotone partial atomic diagram together with a
stage-wise partial map into the current target structure.  When a guess
reverts, the map falls back to the latest stage that had the same target,
and elements introduced meanwhile are re-expressed so that every recorded
sentence stays true.  The four constructions:

* run_abelian   targets Z^{k-1} / Z^k / Z^{k+1}, collapsing generators
* run_dihedral  targets the infinite dihedral group, a reflection-tower
                group, or a frozen finite fragment
* run_rank1     targets H / G / K for a rank-1 characteristic, moving the
                designated unit
* run_cofinality builds a divisibility table whose agreement with the base
                characteristic is controlled by an enumerated index set

The three stage-based simulators share one core, ``_Run``, which names
constants, records facts, checks each fact as it is recorded, checks each
rewrite of the map once on the named values, and writes the stage reports; a
simulator adds only its value algebra and its stage policy.  The algebras
compute on integers: integer vectors (abelian), ``(num, den, flip)`` triples
(dihedral, shown as ``DihedralElement`` in the reports), and ``Fraction``
values whose relations are tested by cross-multiplying numerators and
denominators (rank-1).  Each reports
``diagram-monotone``, ``stage-soundness`` (every fact recorded by stage s
holds in stage s's map) and ``final-replay``, then its own: ``final-rank``
(abelian); ``involutions-consistent``, ``frozen-adds-nothing`` and
``tower-depth-replay`` (dihedral); ``members-in-final-group`` (rank1).
``run_cofinality`` is not stage-based and reports ``rule-conformance`` and,
on an "isomorphic" verdict, ``multiplier-restores-window``.

Traces are finite, so "limit" verdicts are relative to the final stage's
belief; every report says so.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub
from typing import Any, Callable, Iterator, Sequence

from . import dihedral as D
from . import rank1 as R
from .fgab import int_tuple
from .numtheory import primes_upto, valuation

PREFIX_CAVEAT = ("verdicts describe the final stage's belief; a genuine limit "
                 "is not observable on a finite trace prefix")


@dataclass(frozen=True)
class ConstructionTrace:
    """Per-stage guesses: steps[s] = (n in S1 at stage s, n in S2 at stage s)."""

    steps: tuple[tuple[bool, bool], ...]

    def __post_init__(self):
        if not self.steps:
            raise ValueError("trace must be nonempty")

    @classmethod
    def from_bits(cls, bits: Sequence[Sequence[int]]) -> "ConstructionTrace":
        return cls(tuple((bool(a), bool(b)) for a, b in bits))

    def to_json(self) -> dict:
        return {"steps": [[int(a), int(b)] for a, b in self.steps]}


def trace_from_json(data) -> ConstructionTrace:
    steps = data.get("steps") if isinstance(data, dict) else None
    if not isinstance(steps, list) or not all(
            isinstance(step, list) and len(step) == 2 for step in steps):
        raise ValueError(f'a trace is a JSON object {{"steps": [[0, 1], ...]}}, got {data!r}')
    return ConstructionTrace.from_bits(steps)


@dataclass(frozen=True)
class StageReport:
    stage: int
    target_tag: str
    partial_map: dict[int, Any]
    diagram_delta: tuple[tuple, ...]
    fact_count: int
    resumed_from: int | None = None


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    checks: tuple[tuple[str, bool, str], ...]
    caveat: str = PREFIX_CAVEAT


def _check(checks: list, name: str, ok: bool, detail: str = "") -> None:
    checks.append((name, bool(ok), detail))


# ---------------------------------------------------------------------------
# The stage-based core
# ---------------------------------------------------------------------------

class _Run:
    """Constants with their values in the current target, the recorded facts
    and one report per stage.  A subclass supplies ``relations(c)``, the
    facts a fresh constant c takes part in, and ``holds_relation(fact)``.

    ``stage-soundness`` (every fact recorded by stage s holds in stage s's
    map) is proved without replaying the facts.  Each fact is checked once,
    as it is recorded.  Values change only through ``rewrite``, which maps
    integer vectors (only the abelian run rewrites) and is checked once, on
    the named values: the new value of every constant is the old one's image
    under the linear map whose columns are f(e_i), f(0) = 0, and the new
    values are pairwise distinct.  A linear map keeps every sum fact
    x + y = z true, and a map injective on the named values keeps every
    ``neq`` fact true, so by induction over the rewrites every recorded fact
    holds in every stage's map.  This costs O(values · dim²) a rewrite
    instead of O(facts); ``final-replay`` still re-checks every fact once,
    at the end of the run."""

    def __init__(self, growth: int):
        if growth < 1:
            raise ValueError("growth must be >= 1")
        self.growth = growth
        self.values: dict[int, Any] = {}
        self.used: dict[Any, int] = {}
        self.facts: list[tuple] = []
        self._seen: set[tuple] = set()
        self.reports: list[StageReport] = []
        self.last_stage_for_tag: dict[str, int] = {}
        self.sound = True

    def new_const(self, value) -> int:
        c = len(self.values)
        self.values[c] = value
        self.used[value] = c
        return c

    def add(self, fact: tuple, delta: list) -> None:
        if fact in self._seen:
            return
        self._seen.add(fact)
        self.facts.append(fact)
        delta.append(fact)
        if not self.holds(fact):
            self.sound = False

    def record(self, c: int, delta: list) -> None:
        for fact in self.relations(c):
            self.add(fact, delta)

    def ensure(self, value, delta: list) -> int:
        """The constant holding ``value``; a new one is recorded first."""
        c = self.used.get(value)
        if c is None:
            c = self.new_const(value)
            self.record(c, delta)
        return c

    def rewrite(self, f: Callable[[tuple], tuple]) -> None:
        """Re-express every constant's value, an integer vector, through
        ``f``; stage-soundness fails unless f is linear and injective on the
        named values."""
        dim = len(self.values[0])
        rows = list(zip(*(f(_unit_vector(dim, i)) for i in range(dim))))
        new = {c: f(v) for c, v in self.values.items()}
        linear = not any(f((0,) * dim)) and all(
            w == tuple(sum(map(mul, v, row)) for row in rows)
            for v, w in zip(self.values.values(), new.values()))
        self.values = new
        self.used = {v: c for c, v in new.items()}
        if not linear or len(self.used) != len(new):
            self.sound = False

    def inequations(self, c: int) -> Iterator[tuple]:
        vc = self.values[c]
        for other, vo in self.values.items():
            if other != c and vo != vc:
                yield ("neq", min(c, other), max(c, other))

    def holds(self, fact: tuple) -> bool:
        if fact[0] == "neq":
            return self.values[fact[1]] != self.values[fact[2]]
        return self.holds_relation(fact)

    def partial_map(self) -> dict[int, Any]:
        """The map a stage report shows: each constant's current value."""
        return dict(self.values)

    def end_stage(self, stage: int, tag: str, delta: list, resumes: bool) -> None:
        """Report the stage; ``resumes`` marks a return to an earlier target,
        whose latest stage the report names."""
        resumed = self.last_stage_for_tag.get(tag) if resumes else None
        self.reports.append(StageReport(stage, tag, self.partial_map(), tuple(delta),
                                        len(self.facts), resumed))
        self.last_stage_for_tag[tag] = stage

    def verify(self, *extra_checks: tuple[str, bool, str],
               caveat: str = PREFIX_CAVEAT) -> VerificationReport:
        counts = [r.fact_count for r in self.reports]
        checks = [("diagram-monotone", all(a <= b for a, b in zip(counts, counts[1:])),
                   f"fact counts {counts}"),
                  ("stage-soundness", self.sound, ""),
                  ("final-replay", all(self.holds(f) for f in self.facts), ""),
                  *extra_checks]
        return VerificationReport(all(ok for _, ok, _ in checks), tuple(checks), caveat)


# ---------------------------------------------------------------------------
# Abelian construction: Z^{k-1} / Z^k / Z^{k+1}
# ---------------------------------------------------------------------------

def _vec_add(u: tuple, v: tuple) -> tuple:
    return tuple(map(add, u, v))


def _pad(v: tuple, dim: int) -> tuple:
    return v + (0,) * (dim - len(v))


def _squash(v: tuple, coord: int, m: int) -> tuple:
    """Fold coordinate ``coord`` into coordinate 0 with weight ``m`` and drop
    it; injective on vectors whose entries are below m/2 in absolute value."""
    folded = list(v)
    folded[0] += m * v[coord]
    del folded[coord]
    return tuple(folded)


def _unit_vector(dim: int, i: int) -> tuple:
    return tuple(1 if j == i else 0 for j in range(dim))


def _matrix_rank(rows: list[tuple]) -> int:
    """Rank over Q of an integer matrix, by Bareiss fraction-free
    elimination: each entry stays an integer minor of the input, so every
    division by the previous pivot is exact."""
    m = [list(row) for row in rows if any(row)]
    rank = 0
    prev = 1
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        p = top[col]
        for r in range(rank + 1, len(m)):
            a = m[r][col]
            m[r] = [(p * x - a * y) // prev for x, y in zip(m[r], top)]
        prev = p
        rank += 1
    return rank


class _AbelianRun(_Run):
    def __init__(self, k: int, growth: int):
        super().__init__(growth)
        self.dim = k - 1
        self.gen_layers: dict[str, int] = {}  # "s1"/"s2" -> coordinate index

    def relations(self, c: int) -> Iterator[tuple]:
        yield from self.inequations(c)
        vc = self.values[c]
        used = self.used
        for other, vo in self.values.items():
            s = used.get(_vec_add(vc, vo))
            if s is not None:
                yield ("sum", c, other, s)
                yield ("sum", other, c, s)
            diff = used.get(tuple(map(sub, vc, vo)))
            if diff is not None:
                yield ("sum", other, diff, c)

    def holds_relation(self, fact: tuple) -> bool:
        _, i, j, k = fact
        return _vec_add(self.values[i], self.values[j]) == self.values[k]

    def seed(self, delta: list) -> None:
        self.record(self.new_const((0,) * self.dim), delta)
        for i in range(self.dim):
            self.record(self.new_const(_unit_vector(self.dim, i)), delta)

    def expand(self, layer: str, delta: list) -> None:
        self.rewrite(lambda v: _pad(v, self.dim + 1))
        self.dim += 1
        self.gen_layers[layer] = self.dim - 1
        self.record(self.new_const(_unit_vector(self.dim, self.dim - 1)), delta)

    def collapse(self, layer: str) -> None:
        coord = self.gen_layers.pop(layer)
        maxabs = max((abs(x) for v in self.values.values() for x in v), default=0)
        m = 1 + 2 * maxabs  # _squash is then injective on the named values
        self.rewrite(lambda v: _squash(v, coord, m))
        self.dim -= 1
        # surviving layer coordinates shift down past the removed one
        for name, idx in list(self.gen_layers.items()):
            if idx > coord:
                self.gen_layers[name] = idx - 1

    def grow(self, delta: list) -> None:
        cursor = 0
        added = 0
        while added < self.growth:
            cand = int_tuple(self.dim, cursor, include_zero=True)
            cursor += 1
            if cand in self.used:
                continue
            self.record(self.new_const(cand), delta)
            added += 1


def _abelian_dim(k: int, s1: bool, s2: bool) -> int:
    return (k - 1) + (1 if s1 else 0) + (1 if s1 and s2 else 0)


def run_abelian(k: int, trace: ConstructionTrace, growth: int = 1,
                ) -> tuple[list[StageReport], str, VerificationReport]:
    """Build a diagram whose limit target tracks the trace's final belief."""
    if k < 2:
        raise ValueError("k must be >= 2")
    run = _AbelianRun(k, growth)
    prev = (False, False)  # construction starts believing n outside S1
    for stage, (s1, s2) in enumerate(trace.steps):
        delta: list[tuple] = []
        if stage == 0:
            run.seed(delta)
        # layer transitions, s2 first on the way down so indices stay sane
        if "s2" in run.gen_layers and not (s1 and s2):
            run.collapse("s2")
        if "s1" in run.gen_layers and not s1:
            run.collapse("s1")
        if s1 and "s1" not in run.gen_layers:
            run.expand("s1", delta)
        if s1 and s2 and "s2" not in run.gen_layers:
            run.expand("s2", delta)
        run.grow(delta)
        tag = f"Z{_abelian_dim(k, s1, s2)}"
        run.end_stage(stage, tag, delta,
                      resumes=_abelian_dim(k, *prev) > _abelian_dim(k, s1, s2))
        prev = (s1, s2)
    want_dim = _abelian_dim(k, s1, s2)
    got_rank = _matrix_rank(list(run.values.values()))
    verification = run.verify(("final-rank", got_rank == want_dim,
                               f"rank {got_rank} vs {want_dim}"))
    return run.reports, tag, verification


# ---------------------------------------------------------------------------
# Dihedral construction
# ---------------------------------------------------------------------------

def _dmul(x: tuple, y: tuple) -> tuple:
    """``DihedralElement.__mul__`` on integer triples (num, den, flip), the
    translation num/den in lowest terms with den > 0."""
    n1, d1, f1 = x
    n2, d2, f2 = y
    if f1:
        n2 = -n2
    if d1 == d2:
        n, d = n1 + n2, d1
    else:
        n, d = n1 * d2 + n2 * d1, d1 * d2
    g = gcd(n, d)
    return (n // g, d // g, f1 != f2)


def _triple(e: D.DihedralElement) -> tuple:
    t = e.translation
    return (t.numerator, t.denominator, e.flip)


def _element(x: tuple) -> D.DihedralElement:
    return D.DihedralElement(Fraction(x[0], x[1]), x[2])


def _reflection(num: int, den: int) -> tuple:
    """The reflection at position num/den."""
    g = gcd(num, den)
    return (num // g, den // g, True)


_E = _triple(D.E_ELEM)
_B = _triple(D.B_ELEM)


class _DihedralRun(_Run):
    def __init__(self, growth: int):
        super().__init__(growth)
        self.depth = 0
        self.a = _reflection(0, 1)  # the current a
        self.enum_cursor = 0
        self._elements: list[D.DihedralElement] = []  # values[c] as shown, by c

    def relations(self, c: int) -> Iterator[tuple]:
        yield from self.inequations(c)
        vc = self.values[c]
        used = self.used
        for other, vo in self.values.items():
            prod = used.get(_dmul(vc, vo))
            if prod is not None:
                yield ("mul", c, other, prod)
            prod = used.get(_dmul(vo, vc))
            if prod is not None:
                yield ("mul", other, c, prod)

    def holds_relation(self, fact: tuple) -> bool:
        _, i, j, k = fact
        return _dmul(self.values[i], self.values[j]) == self.values[k]

    def partial_map(self) -> dict[int, D.DihedralElement]:
        # values never change here, so each constant is converted once
        shown = self._elements
        for c in range(len(shown), len(self.values)):
            shown.append(_element(self.values[c]))
        return dict(enumerate(shown))

    def seed(self, delta: list) -> None:
        self.record(self.new_const(_E), delta)
        self.record(self.new_const(self.a), delta)  # a
        self.record(self.new_const(_B), delta)      # b

    def deepen(self, delta: list) -> None:
        """Express the current a as a'·b·a' for a fresh deeper reflection a'."""
        old_a = self.used[self.a]
        num, den, _ = self.a
        self.a = _reflection(num + den, 2 * den)  # midpoint of the old reflection and b
        self.depth += 1
        a_new = self.ensure(self.a, delta)
        aux = self.ensure(_dmul(self.a, _B), delta)
        # the defining relation a_old = a' b a' arrives as two product facts
        # recorded by the relation lookups; assert them explicitly too
        self.add(("mul", a_new, 2, aux), delta)
        self.add(("mul", aux, a_new, old_a), delta)

    def grow(self, delta: list) -> None:
        added = 0
        while added < self.growth:
            word = D.nth_normal_form(self.enum_cursor)
            self.enum_cursor += 1
            value = _E
            for ch in word.letters:
                value = _dmul(value, self.a if ch == "a" else _B)
            if value in self.used:
                continue
            self.record(self.new_const(value), delta)
            added += 1


def run_dihedral(trace: ConstructionTrace, growth: int = 1,
                 ) -> tuple[list[StageReport], str, VerificationReport]:
    """Targets: settled in S1-S2 builds the dihedral group; repeated S1
    departures deepen a reflection tower; settling in S1∩S2 freezes the
    diagram at a finite fragment."""
    run = _DihedralRun(growth)
    prev = (True, False)  # conventional starting belief
    for stage, (s1, s2) in enumerate(trace.steps):
        delta: list[tuple] = []
        if stage == 0:
            run.seed(delta)
        if prev[0] and not s1:
            run.deepen(delta)
        frozen = s1 and s2
        if not frozen:
            run.grow(delta)
        tag = "Dinf" if (s1 and not s2) else ("H" if not s1 else "FiniteFragment")
        # unfreezing resumes the target held before the freeze
        run.end_stage(stage, tag, delta, resumes=prev == (True, True) and not frozen)
        prev = (s1, s2)
    caveat = PREFIX_CAVEAT
    if tag == "H":
        caveat += f"; reported H at achieved tower depth {run.depth}, not certified infinite"
    verification = run.verify(
        ("involutions-consistent",
         all(_dmul(v, v) == _E for v in run.values.values() if v[2]), ""),
        ("frozen-adds-nothing",
         all(not r.diagram_delta for r in run.reports
             if r.target_tag == "FiniteFragment" and r.stage > 0), ""),
        ("tower-depth-replay", dihedral_tower_depth(run.reports) == run.depth,
         f"depth {run.depth}"),
        caveat=caveat)
    return run.reports, tag, verification


def dihedral_tower_depth(reports: list[StageReport]) -> int:
    """Count deepening steps by walking the recorded defining relations.

    A deepening leaves the pair of facts x·b = aux and aux·x = current top,
    where x is the fresh deeper reflection; the chain is followed from the
    original generator down.
    """
    facts = {f for r in reports for f in r.diagram_delta if f[0] == "mul"}
    values = reports[-1].partial_map
    b_const = 2  # seeded third, after the identity and the first reflection
    current = 1
    depth = 0
    while True:
        step = None
        for (_, x, y, aux) in facts:
            if y == b_const and x != current and ("mul", aux, x, current) in facts \
                    and values[x].flip:
                step = x
                break
        if step is None:
            return depth
        current = step
        depth += 1


# ---------------------------------------------------------------------------
# Rank-1 construction: H / G / K
# ---------------------------------------------------------------------------

def _scale_factor(nx: int, dx: int, ny: int, dy: int) -> int:
    """The integer m > 1 with nx/dx = m·(ny/dy), or 0 if there is none;
    denominators are positive and ny is nonzero."""
    num, den = nx * dy, dx * ny
    if den < 0:
        num, den = -num, -den
    if num > den and num % den == 0:
        return num // den
    return 0


class _Rank1Run(_Run):
    def relations(self, c: int) -> Iterator[tuple]:
        vc = self.values[c]
        nc, dc = vc.numerator, vc.denominator
        for other, vo in self.values.items():
            if other == c:
                continue
            yield ("neq", min(c, other), max(c, other))
            no, do = vo.numerator, vo.denominator
            m = _scale_factor(nc, dc, no, do)
            if m:
                yield ("scale", m, other, c)
            m = _scale_factor(no, do, nc, dc)
            if m:
                yield ("scale", m, c, other)

    def holds_relation(self, fact: tuple) -> bool:
        _, m, i, j = fact
        x, y = self.values[i], self.values[j]
        return m * x.numerator * y.denominator == y.numerator * x.denominator

    def depth(self, unit_value: Fraction, prime: int) -> int:
        """Highest power of ``prime`` dividing the unit in the built group,
        the subgroup of Q that the current constants generate."""
        values = self.values.values()
        generator = Fraction(gcd(*(v.numerator for v in values)),
                             lcm(*(v.denominator for v in values)))
        x = unit_value / generator
        return valuation(x.numerator, prime) - valuation(x.denominator, prime)

    def divide(self, unit_value: Fraction, prime: int, delta: list) -> None:
        d = self.depth(unit_value, prime)
        prev = self.ensure(unit_value / prime ** d, delta)
        new = self.ensure(unit_value / prime ** (d + 1), delta)
        self.add(("scale", prime, new, prev), delta)


def run_rank1(c: R.Rank1Char, p: int, q: int, trace: ConstructionTrace,
              growth: int = 1) -> tuple[list[StageReport], R.Rank1Char, VerificationReport]:
    """Move the designated unit between H, G and K as the trace directs.

    While targeting H the original unit is divided by p; switching to G
    designates p^k/p^{k_s} as the unit, k_s being the p-depth the original
    unit has reached in the group built so far; while targeting G the unit
    is divided by q; switching to K designates the q-undivided scaling of
    the G unit.  Depths are read off the generated subgroup, so revisits
    account for elements introduced by abandoned phases.
    """
    run = _Rank1Run(growth)
    if R.exponent(c, p) == R.INF:
        raise ValueError("p must lie in P0 or Pfin (finite exponent)")
    if R.exponent(c, q) != R.INF:
        raise ValueError("q must lie in Pinf (infinite exponent)")
    k = int(R.exponent(c, p))
    one = Fraction(1)
    unit_g = unit_k = None  # constants of the designated G and K units
    mult_cursor = 2
    for stage, (s1, s2) in enumerate(trace.steps):
        delta: list[tuple] = []
        if stage == 0:
            unit_h = run.ensure(one, delta)
        target = "H" if not s1 else ("G" if not s2 else "K")
        if target == "H":
            for _ in range(growth):
                run.divide(one, p, delta)
            unit_g = None  # a later G phase designates a fresh unit
        else:
            if unit_g is None:
                k_s = run.depth(one, p)
                unit_g = run.ensure(Fraction(p ** k, p ** k_s), delta)
            if target == "G":
                for _ in range(growth):
                    run.divide(run.values[unit_g], q, delta)
            else:  # K: freeze q at the unit and keep adding integer multiples
                u_g = run.values[unit_g]
                l_s = run.depth(u_g, q)
                unit_k = run.ensure(u_g / q ** l_s, delta)
                base = run.values[unit_k]
                for _ in range(growth):
                    new = run.ensure(base * mult_cursor, delta)
                    run.add(("scale", mult_cursor, unit_k, new), delta)
                    mult_cursor += 1
        run.end_stage(stage, target, delta, resumes=True)
    if not s1:
        final_char = R.extend_infinite_at(c, p)
        final_unit = unit_h
    elif not s2:
        final_char = c
        final_unit = unit_g
    else:
        final_char = R.kill_prime_at(c, q)
        final_unit = unit_k
    unit_val = run.values[final_unit]
    member = all(R.contains(final_char, v / unit_val) for v in run.values.values())
    verification = run.verify(("members-in-final-group", member,
                               f"designated unit {unit_val}"))
    return run.reports, final_char, verification


# ---------------------------------------------------------------------------
# Cofinality construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CofinalityResult:
    table: dict[int, int | float]
    verdict: str
    multiplier: int
    missed: tuple[int, ...]
    a_primes: tuple[int, ...]


def run_cofinality(c: R.Rank1Char, m: int, w_enum: set[int] | Sequence[int],
                   bound: int) -> tuple[CofinalityResult, VerificationReport]:
    """Build divisibility exponents that match the base characteristic except
    at the chosen Pfin primes, where agreement is decided by w_enum.

    The window verdict declares the complement finite when no missed index
    falls in the window's upper half; a finite window cannot certify
    cofiniteness, which the report's caveat records.
    """
    if not R._rule_class_flags(c)[1]:
        raise ValueError("Pfin must be infinite under the representation")
    w = set(int(x) for x in w_enum)
    window = primes_upto(bound)
    a_primes: list[int] = []
    for p in window:
        if len(a_primes) >= m:
            break
        v = R.exponent(c, p)
        if v != R.INF and v > 0:
            a_primes.append(p)
    if len(a_primes) < m:
        raise ValueError(f"only {len(a_primes)} Pfin primes under bound {bound}, need {m}")
    table: dict[int, int | float] = {}
    for p in window:
        v = R.exponent(c, p)
        if p in a_primes:
            idx = a_primes.index(p)
            e = int(v)
            table[p] = e if idx in w else e - 1
        else:
            table[p] = v
    missed = tuple(sorted(k for k in range(m) if k not in w))
    declared_finite = not missed or max(missed) < m // 2
    multiplier = 1
    for kk in missed:
        multiplier *= a_primes[kk]
    verdict = "isomorphic" if declared_finite else "not-isomorphic-at-window"
    result = CofinalityResult(table, verdict, multiplier, missed, tuple(a_primes))
    verification = _verify_cofinality(c, result, w, bound)
    return result, verification


def _verify_cofinality(c: R.Rank1Char, result: CofinalityResult, w: set[int],
                       bound: int) -> VerificationReport:
    checks: list = []
    conform = True
    for p in primes_upto(bound):
        v = R.exponent(c, p)
        got = result.table[p]
        if p in result.a_primes:
            k = result.a_primes.index(p)
            want = int(v) if k in w else int(v) - 1
        else:
            want = v
        if got != want:
            conform = False
    _check(checks, "rule-conformance", conform)
    if result.verdict == "isomorphic":
        fixed = all(result.table[p] + valuation(result.multiplier, p)
                    == R.exponent(c, p) for p in result.a_primes)
        _check(checks, "multiplier-restores-window", fixed,
               f"multiplier {result.multiplier}")
    return VerificationReport(all(ok for _, ok, _ in checks), tuple(checks))

