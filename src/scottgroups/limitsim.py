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
rewrite of the map once on the named values, and drives the stages
(``advance``, ``simulate``, and ``fork``, which the acceptance sweep uses to
share trace prefixes); a simulator adds only its value algebra plus ``seed``,
``step`` and ``result``.  The algebras compute on integers: integer vectors
(abelian), ``(num, den, flip)`` triples (dihedral, shown as
``DihedralElement`` in the reports) and reduced ``(num, den)`` pairs
(rank-1, shown as ``Fraction``).  Each reports
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

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub
from typing import Any, Callable, Sequence

from . import dihedral as D
from . import rank1 as R
from . import record
from .fgab import int_tuple
from .formula import is_json_int
from .numtheory import primes_upto, valuation

PREFIX_CAVEAT = ("verdicts describe the final stage's belief; a genuine limit "
                 "is not observable on a finite trace prefix")


@record
class ConstructionTrace:
    """Per-stage guesses: steps[s] = (n in S1 at stage s, n in S2 at stage s)."""

    steps: tuple[tuple[bool, bool], ...]

    def __post_init__(self):
        if not self.steps:
            raise ValueError("trace must be nonempty")

    @classmethod
    def from_bits(cls, bits: Sequence[Sequence[int]]) -> "ConstructionTrace":
        return cls(tuple((bool(a), bool(b)) for a, b in bits))


def trace_from_json(data) -> ConstructionTrace:
    steps = data.get("steps") if isinstance(data, dict) else None
    if not isinstance(steps, list) or not all(
            isinstance(step, list) and len(step) == 2 and all(
                is_json_int(bit) and bit in (0, 1) for bit in step) for step in steps):
        raise ValueError(f'a trace is a JSON object {{"steps": [[0, 1], ...]}}, got {data!r}')
    return ConstructionTrace.from_bits(steps)


@record
class StageReport:
    stage: int
    target_tag: str
    partial_map: dict[int, Any]
    diagram_delta: tuple[tuple, ...]
    fact_count: int
    resumed_from: int | None = None


@record
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
    and one report per stage.  A subclass supplies ``record(c, delta)``,
    which appends to the stage's delta the facts a fresh constant c takes
    part in, ``holds_relation(fact)``, ``seed(delta)`` for stage 0,
    ``step(s1, s2, delta) -> (target, resumes)`` and ``result()``.  A
    subclass whose values never change sets ``show`` to convert each value
    once for the reports.  ``belief`` is the last stage's (s1, s2); the
    class attribute is the belief before stage 0.  ``facts`` is the
    concatenation of the stage deltas.

    Facts come in two kinds.  An inequation ``("neq", other, c)`` names the
    newest constant c, so it cannot repeat; it is emitted only after the two
    values compare unequal, and that comparison is its check, so it goes
    straight into the delta.  A ``sum``, ``mul`` or ``scale`` fact can
    repeat, so it goes through ``add``, which keeps it once in ``_seen``
    (which holds only these) and checks it with ``holds_relation``.

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
    instead of O(facts); ``final-replay`` still re-checks every recorded
    fact, inequations included, once at the end of the run."""

    belief = (False, False)
    show: Callable[[Any], Any] | None = None

    def __init__(self, growth: int):
        if growth < 1:
            raise ValueError("growth must be >= 1")
        self.growth = growth
        self.values: dict[int, Any] = {}
        self.used: dict[Any, int] = {}
        self.facts: list[tuple] = []
        self._seen: set[tuple] = set()
        self._shown: list = []  # show(values[c]), by c, where ``show`` is set
        self.reports: list[StageReport] = []
        self.last_stage_for_tag: dict[str, int] = {}
        self.sound = True

    def add(self, fact: tuple, delta: list) -> None:
        """Record a fact that can repeat, once, and check it."""
        if fact in self._seen:
            return
        self._seen.add(fact)
        delta.append(fact)
        if not self.holds_relation(fact):
            self.sound = False

    def ensure(self, value, delta: list) -> int:
        """The constant holding ``value``; a new one is recorded first."""
        c = self.used.get(value)
        if c is None:
            c = self.used[value] = len(self.values)
            self.values[c] = value
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

    def inequations(self, c: int) -> list[tuple]:
        """``("neq", other, c)`` for every other constant whose value
        compares unequal to the newest constant c's."""
        vc = self.values[c]
        return [("neq", other, c) for other, vo in self.values.items() if vo != vc]

    def replay(self) -> bool:
        """Whether every recorded fact holds in the current map."""
        values, holds_relation = self.values, self.holds_relation
        for fact in self.facts:
            if fact[0] == "neq":
                if values[fact[1]] == values[fact[2]]:
                    return False
            elif not holds_relation(fact):
                return False
        return True

    def partial_map(self) -> dict[int, Any]:
        """The map a stage report shows: each constant's current value, or
        its ``show``, converted once, where values never change."""
        if self.show is None:
            return dict(self.values)
        shown = self._shown
        for c in range(len(shown), len(self.values)):
            shown.append(self.show(self.values[c]))
        return dict(enumerate(shown))

    def advance(self, s1: bool, s2: bool) -> None:
        """Run the next stage on the belief (s1, s2) and report it; a resumed
        target's report names that target's latest stage."""
        stage = len(self.reports)
        delta: list[tuple] = []
        if stage == 0:
            self.seed(delta)
        tag, resumes = self.step(s1, s2, delta)
        self.facts += delta
        resumed = self.last_stage_for_tag.get(tag) if resumes else None
        self.reports.append(StageReport(stage, tag, self.partial_map(), tuple(delta),
                                        len(self.facts), resumed))
        self.last_stage_for_tag[tag] = stage
        self.belief = (s1, s2)

    def simulate(self, trace: ConstructionTrace):
        for s1, s2 in trace.steps:
            self.advance(s1, s2)
        return self.result()

    def fork(self) -> "_Run":
        """A copy that advances independently: dicts, lists and sets are
        copied, and the values, facts and reports in them are immutable."""
        twin = object.__new__(type(self))
        twin.__dict__ = {name: value.copy() if isinstance(value, (dict, list, set)) else value
                         for name, value in self.__dict__.items()}
        return twin

    def verify(self, *extra_checks: tuple[str, bool, str],
               caveat: str = PREFIX_CAVEAT) -> VerificationReport:
        counts = [r.fact_count for r in self.reports]
        checks = [("diagram-monotone", all(a <= b for a, b in zip(counts, counts[1:])),
                   f"fact counts {counts}"),
                  ("stage-soundness", self.sound, ""),
                  ("final-replay", self.replay(), ""),
                  *extra_checks]
        return VerificationReport(all(ok for _, ok, _ in checks), tuple(checks), caveat)


# ---------------------------------------------------------------------------
# Abelian construction: Z^{k-1} / Z^k / Z^{k+1}
# ---------------------------------------------------------------------------

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
        if k < 2:
            raise ValueError("k must be >= 2")
        super().__init__(growth)
        self.k, self.dim = k, k - 1
        self.gen_layers: dict[str, int] = {}  # "s1"/"s2" -> coordinate index

    def record(self, c: int, delta: list) -> None:
        delta += self.inequations(c)
        vc = self.values[c]
        used, add_fact = self.used, self.add
        for other, vo in self.values.items():
            s = used.get(tuple(map(add, vc, vo)))
            if s is not None:
                add_fact(("sum", c, other, s), delta)
                add_fact(("sum", other, c, s), delta)
            diff = used.get(tuple(map(sub, vc, vo)))
            if diff is not None:
                add_fact(("sum", other, diff, c), delta)

    def holds_relation(self, fact: tuple) -> bool:
        _, i, j, k = fact
        return tuple(map(add, self.values[i], self.values[j])) == self.values[k]

    def seed(self, delta: list) -> None:
        self.ensure((0,) * self.dim, delta)
        for i in range(self.dim):
            self.ensure(_unit_vector(self.dim, i), delta)

    def expand(self, layer: str, delta: list) -> None:
        self.rewrite(lambda v: _pad(v, self.dim + 1))
        self.dim += 1
        self.gen_layers[layer] = self.dim - 1
        self.ensure(_unit_vector(self.dim, self.dim - 1), delta)

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
        """Name the first ``growth`` vectors of Z^dim not yet named."""
        size, cursor = len(self.values) + self.growth, 0
        while len(self.values) < size:
            self.ensure(int_tuple(self.dim, cursor, include_zero=True), delta)
            cursor += 1

    def step(self, s1: bool, s2: bool, delta: list) -> tuple[str, bool]:
        # layer transitions, s2 first on the way down so indices stay sane
        if "s2" in self.gen_layers and not (s1 and s2):
            self.collapse("s2")
        if "s1" in self.gen_layers and not s1:
            self.collapse("s1")
        if s1 and "s1" not in self.gen_layers:
            self.expand("s1", delta)
        if s1 and s2 and "s2" not in self.gen_layers:
            self.expand("s2", delta)
        self.grow(delta)
        dim = _abelian_dim(self.k, s1, s2)
        return f"Z{dim}", _abelian_dim(self.k, *self.belief) > dim

    def result(self) -> tuple[list[StageReport], str, VerificationReport]:
        want_dim = _abelian_dim(self.k, *self.belief)
        got_rank = _matrix_rank(list(self.values.values()))
        verification = self.verify(("final-rank", got_rank == want_dim,
                                    f"rank {got_rank} vs {want_dim}"))
        return self.reports, self.reports[-1].target_tag, verification


def _abelian_dim(k: int, s1: bool, s2: bool) -> int:
    return (k - 1) + (1 if s1 else 0) + (1 if s1 and s2 else 0)


def run_abelian(k: int, trace: ConstructionTrace, growth: int = 1,
                ) -> tuple[list[StageReport], str, VerificationReport]:
    """Build a diagram whose limit target tracks the trace's final belief."""
    return _AbelianRun(k, growth).simulate(trace)


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
    belief = (True, False)  # conventional starting belief
    show = staticmethod(_element)

    def __init__(self, growth: int):
        super().__init__(growth)
        self.depth = 0
        self.a = _reflection(0, 1)  # the current a
        self.enum_cursor = 0

    def record(self, c: int, delta: list) -> None:
        delta += self.inequations(c)
        vc = self.values[c]
        used, add_fact = self.used, self.add
        for other, vo in self.values.items():
            prod = used.get(_dmul(vc, vo))
            if prod is not None:
                add_fact(("mul", c, other, prod), delta)
            prod = used.get(_dmul(vo, vc))
            if prod is not None:
                add_fact(("mul", other, c, prod), delta)

    def holds_relation(self, fact: tuple) -> bool:
        _, i, j, k = fact
        return _dmul(self.values[i], self.values[j]) == self.values[k]

    def seed(self, delta: list) -> None:
        self.ensure(_E, delta)
        self.ensure(self.a, delta)  # a
        self.ensure(_B, delta)      # b

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
        """Name the next ``growth`` normal forms, in a and b, not yet named."""
        size = len(self.values) + self.growth
        while len(self.values) < size:
            value = _E
            for ch in D.nth_normal_form(self.enum_cursor).letters:
                value = _dmul(value, self.a if ch == "a" else _B)
            self.enum_cursor += 1
            self.ensure(value, delta)

    def step(self, s1: bool, s2: bool, delta: list) -> tuple[str, bool]:
        if self.belief[0] and not s1:
            self.deepen(delta)
        frozen = s1 and s2
        if not frozen:
            self.grow(delta)
        tag = "Dinf" if (s1 and not s2) else ("H" if not s1 else "FiniteFragment")
        # unfreezing resumes the target held before the freeze
        return tag, self.belief == (True, True) and not frozen

    def result(self) -> tuple[list[StageReport], str, VerificationReport]:
        tag = self.reports[-1].target_tag
        caveat = PREFIX_CAVEAT
        if tag == "H":
            caveat += f"; reported H at achieved tower depth {self.depth}, not certified infinite"
        verification = self.verify(
            ("involutions-consistent",
             all(_dmul(v, v) == _E for v in self.values.values() if v[2]), ""),
            ("frozen-adds-nothing",
             all(not r.diagram_delta for r in self.reports
                 if r.target_tag == "FiniteFragment" and r.stage > 0), ""),
            ("tower-depth-replay", dihedral_tower_depth(self.reports) == self.depth,
             f"depth {self.depth}"),
            caveat=caveat)
        return self.reports, tag, verification


def run_dihedral(trace: ConstructionTrace, growth: int = 1,
                 ) -> tuple[list[StageReport], str, VerificationReport]:
    """Targets: settled in S1-S2 builds the dihedral group; repeated S1
    departures deepen a reflection tower; settling in S1∩S2 freezes the
    diagram at a finite fragment."""
    return _DihedralRun(growth).simulate(trace)


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

def _ratio(num: int, den: int) -> tuple:
    """num/den, den > 0, as a reduced ``(num, den)`` pair."""
    g = gcd(num, den)
    return (num // g, den // g)


def _fraction(x: tuple) -> Fraction:
    return Fraction(*x)


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
    """Values are reduced ``(num, den)`` pairs with den > 0."""

    show = staticmethod(_fraction)

    def __init__(self, c: R.Rank1Char, p: int, q: int, growth: int):
        super().__init__(growth)
        if R.exponent(c, p) == R.INF:
            raise ValueError("p must lie in P0 or Pfin (finite exponent)")
        if R.exponent(c, q) != R.INF:
            raise ValueError("q must lie in Pinf (infinite exponent)")
        self.p, self.q, self.k, self.mult_cursor = p, q, int(R.exponent(c, p)), 2
        self.chars = {"H": R.extend_infinite_at(c, p), "G": c, "K": R.kill_prime_at(c, q)}
        self.units: dict[str, int] = {}  # the constant of each target's designated unit
        # the built group, generated by the constants, is Z·(num_gcd/den_lcm)
        self.num_gcd, self.den_lcm = 0, 1

    def record(self, c: int, delta: list) -> None:
        # each inequation is followed by the scale facts of the same pair;
        # x = m·y needs den(x) | den(y), as both pairs are reduced
        vc = nc, dc = self.values[c]
        self.num_gcd, self.den_lcm = gcd(self.num_gcd, nc), lcm(self.den_lcm, dc)
        add_fact = self.add
        for other, vo in self.values.items():
            if vo == vc:
                continue
            delta.append(("neq", other, c))
            no, do = vo
            if not do % dc:
                m = _scale_factor(nc, dc, no, do)
                if m:
                    add_fact(("scale", m, other, c), delta)
            if not dc % do:
                m = _scale_factor(no, do, nc, dc)
                if m:
                    add_fact(("scale", m, c, other), delta)

    def holds_relation(self, fact: tuple) -> bool:
        _, m, i, j = fact
        (xn, xd), (yn, yd) = self.values[i], self.values[j]
        return m * xn * yd == yn * xd

    def depth(self, unit: tuple, prime: int) -> int:
        """Highest power of ``prime`` dividing the unit in the built group,
        the subgroup of Q that the current constants generate."""
        un, ud = unit
        return valuation(un * self.den_lcm, prime) - valuation(ud * self.num_gcd, prime)

    def divide(self, unit: tuple, prime: int, delta: list) -> None:
        d = self.depth(unit, prime)
        un, ud = unit
        prev = self.ensure(_ratio(un, ud * prime ** d), delta)
        new = self.ensure(_ratio(un, ud * prime ** (d + 1)), delta)
        self.add(("scale", prime, new, prev), delta)

    def seed(self, delta: list) -> None:
        self.units["H"] = self.ensure((1, 1), delta)

    def step(self, s1: bool, s2: bool, delta: list) -> tuple[str, bool]:
        target = "H" if not s1 else ("G" if not s2 else "K")
        one, p, q = (1, 1), self.p, self.q
        if target == "H":
            for _ in range(self.growth):
                self.divide(one, p, delta)
            self.units.pop("G", None)  # a later G phase designates a fresh unit
            return target, True
        if "G" not in self.units:
            k_s = self.depth(one, p)
            self.units["G"] = self.ensure(_ratio(p ** self.k, p ** k_s), delta)
        u_g = self.values[self.units["G"]]
        if target == "G":
            for _ in range(self.growth):
                self.divide(u_g, q, delta)
        else:  # K: freeze q at the unit and keep adding integer multiples
            gn, gd = u_g
            unit_k = self.units["K"] = self.ensure(
                _ratio(gn, gd * q ** self.depth(u_g, q)), delta)
            bn, bd = self.values[unit_k]
            for _ in range(self.growth):
                new = self.ensure(_ratio(bn * self.mult_cursor, bd), delta)
                self.add(("scale", self.mult_cursor, unit_k, new), delta)
                self.mult_cursor += 1
        return target, True

    def result(self) -> tuple[list[StageReport], R.Rank1Char, VerificationReport]:
        target = self.reports[-1].target_tag
        final_char = self.chars[target]
        shown = self.partial_map()
        unit_val = shown[self.units[target]]
        member = all(R.contains(final_char, v / unit_val) for v in shown.values())
        verification = self.verify(("members-in-final-group", member,
                                    f"designated unit {unit_val}"))
        return self.reports, final_char, verification


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
    return _Rank1Run(c, p, q, growth).simulate(trace)


# ---------------------------------------------------------------------------
# Cofinality construction
# ---------------------------------------------------------------------------

@record
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
    verification = _verify_cofinality(c, result, m, w, bound)
    return result, verification


def _verify_cofinality(c: R.Rank1Char, result: CofinalityResult, m: int, w: set[int],
                       bound: int) -> VerificationReport:
    """``rule-conformance``: the window primes are the first m primes under
    the bound with a finite positive exponent, and the table lowers the
    exponent by exactly 1 at the window primes whose index is missing from w
    and keeps it everywhere else."""
    checks: list = []
    exponents = {p: R.exponent(c, p) for p in primes_upto(bound)}
    pfin = [p for p, v in exponents.items() if 0 < v != R.INF][:m]
    lowered = {p for k, p in enumerate(pfin) if k not in w}
    conform = tuple(pfin) == result.a_primes
    for p, v in exponents.items():
        got = result.table[p]
        if (0 if got == v else v - got) != (1 if p in lowered else 0):
            conform = False
    _check(checks, "rule-conformance", conform)
    if result.verdict == "isomorphic":
        fixed = all(result.table[p] + valuation(result.multiplier, p)
                    == R.exponent(c, p) for p in result.a_primes)
        _check(checks, "multiplier-restores-window", fixed,
               f"multiplier {result.multiplier}")
    return VerificationReport(all(ok for _, ok, _ in checks), tuple(checks))

