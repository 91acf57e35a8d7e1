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
and indexes constants, records and checks facts and drives the stages
(``advance``, ``simulate``, and ``fork``, which the acceptance sweep uses to
share trace prefixes); a simulator adds only ``seed``, ``step``, ``result``,
``record`` and ``facts_hold`` (its fact checks, one loop or kernel for a
list of facts) and its value algebra, on integers: integer vectors (abelian),
``(num, den, flip)`` triples (dihedral, shown as ``DihedralElement``) and
reduced ``(num, den)`` pairs (rank-1, shown as ``Fraction``).  Each reports
``diagram-monotone``, ``stage-soundness`` and ``final-replay`` (see
``_Run``), then its own: ``final-rank`` (abelian); ``involutions-consistent``,
``frozen-adds-nothing`` and ``tower-depth-replay`` (dihedral);
``members-in-final-group`` (rank1).  ``run_cofinality`` is not stage-based
and reports ``rule-conformance`` and, on an "isomorphic" verdict,
``multiplier-restores-window``.

A ``StageReport`` is stored compact, and nothing in a run expands it.
Its map is the run's list of values with the number the stage had named,
an O(1) prefix view that stays exact: a run only appends to its list, an
abelian rewrite assigns a new list, and ``fork`` gives the twin a copy.
Its delta holds each new constant c's inequations with the c earlier
constants as one ``Inequations`` marker, not c facts.  ``partial_map`` and
``diagram_delta`` expand both on each read, to the same values and facts
in the same order as a full copy would hold.

Traces are finite, so "limit" verdicts are relative to the final stage's
belief; every report says so.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from math import gcd, lcm
from operator import add, itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from . import is_json_int, record
from .numtheory import int_tuple, primes_upto, valuation

if TYPE_CHECKING:
    from fractions import Fraction
    from . import dihedral as D, rank1 as R

PREFIX_CAVEAT = ("verdicts describe the final stage's belief; a genuine limit "
                 "is not observable on a finite trace prefix")
NAMED_BUDGET = 600  # the most values a trace may name; the costliest runs take 3-5 s


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


class Inequations:
    """The compact form of a constant c's inequation block in a stage delta:
    ``("neq", o, c)`` for every earlier constant o, each followed by the
    facts in ``facts`` (rank-1 scale facts) that o and c take part in, in
    the order given.  ``facts`` are relation facts of the delta as well."""

    __slots__ = ("c", "facts")

    def __init__(self, c: int, facts: tuple[tuple, ...] = ()):
        self.c, self.facts = c, facts

    def expand(self) -> list[tuple]:
        c = self.c
        if not self.facts:
            return [("neq", o, c) for o in range(c)]
        out: list[tuple] = []
        pending = iter(self.facts)
        fact = next(pending, None)
        for o in range(c):
            out.append(("neq", o, c))
            # the constant of a fact other than c is its two indices' sum less c
            while fact is not None and fact[2] + fact[3] - c == o:
                out.append(fact)
                fact = next(pending, None)
        return out


def expand(delta: Iterable) -> list[tuple]:
    """The facts of a compact delta, each ``Inequations`` expanded in place."""
    out: list[tuple] = []
    for item in delta:
        if type(item) is Inequations:
            out += item.expand()
        else:
            out.append(item)
    return out


@record(compare=("stage", "target_tag", "partial_map", "diagram_delta", "fact_count",
                 "resumed_from"))
class StageReport:
    """One stage, stored compact and expanded on each read of a view.
    ``values`` is the run's list of values as the stage ended, of which the
    first ``named`` are the stage's: a run only appends to its list, a
    rewrite assigns a new one and ``fork`` gives the twin a copy, so that
    prefix never changes.  ``show``, where set, converts the values for
    ``partial_map``.  ``delta`` holds each new constant's inequation block as
    one ``Inequations``.  Equality, hash and repr are over the views."""

    stage: int
    target_tag: str
    values: list
    named: int
    show: Callable[[list], list] | None
    delta: tuple
    fact_count: int
    resumed_from: int | None = None

    @property
    def partial_map(self) -> dict[int, Any]:
        values = self.values[:self.named]
        return dict(enumerate(values if self.show is None else self.show(values)))

    @property
    def diagram_delta(self) -> tuple[tuple, ...]:
        return tuple(expand(self.delta))

    def relations(self) -> Iterable[tuple]:
        """The delta's relation facts, in order, with no inequation."""
        for item in self.delta:
            if type(item) is Inequations:
                yield from item.facts
            else:
                yield item


@record
class VerificationReport:
    ok: bool
    checks: tuple[tuple[str, bool, str], ...]
    caveat: str = PREFIX_CAVEAT


def _ratio(num: int, den: int) -> tuple:
    """num/den, den > 0, as a reduced ``(num, den)`` pair."""
    g = gcd(num, den)
    return (num // g, den // g)


# ---------------------------------------------------------------------------
# The stage-based core
# ---------------------------------------------------------------------------

class _Run:
    """Constants with their values in the current target, the index of the
    named values and one report per stage.  A subclass supplies ``record(c,
    key, delta)``, which appends to the stage's delta the facts a fresh
    constant c (index key ``key``) takes part in, ``facts_hold(facts)``,
    ``seed(delta)`` (naming ``seeds`` values), ``step(s1, s2, delta) ->
    (target, resumes)`` and ``result()``; ``show``, where set, converts
    values for the reports' ``partial_map``.  ``belief`` is the last stage's
    (s1, s2), the class attribute the one before stage 0.  The reports'
    compact deltas are the one copy of the recorded facts; ``fact_count``
    counts them expanded, as ``keep`` and ``inequations`` record them.

    ``used``, the one index of the named values, maps ``key(value)`` to the
    constant.  The key is the value itself (rank-1) or an integer (abelian,
    dihedral), injective on the named values and their sums or products,
    that turns the group operation into integer addition or subtraction, so
    ``record`` finds a candidate's constant with one integer operation and
    one lookup.  When a value about to be named needs wider keys, ``key``
    re-keys by ``reindex``, the one rebuild of ``used``, which takes the
    keys in constant order and fails ``stage-soundness`` on a shared one.
    ``ensure`` names a value only after its key misses ``used``, so the
    index proves the named values distinct, and c's inequations with every
    earlier constant go into the delta, as one marker, without a comparison.
    A ``sum``, ``mul`` or ``scale`` fact can repeat, so ``record`` and ``add``
    keep it once in ``_seen`` and check it on the values, a batch at a time,
    save the scale facts of a rank-1 ``record``: each is found by an exact
    division, which is its relation, so ``final-replay`` alone checks them.

    ``stage-soundness`` is proved without replaying facts: values change
    only by ``_AbelianRun.rewrite``, checked linear (and, by the re-index,
    injective) on the named values, so it keeps every sum and ``neq`` fact
    true, at O(values · dim) a rewrite; for the inequations it rests on the
    index alone.  ``final-replay`` re-checks without the index: the relations
    in ``_seen`` (``facts_hold``) and, for all inequations at once, that
    the final values are pairwise distinct.  ``simulate`` refuses a trace
    that could name more than ``NAMED_BUDGET`` values."""

    belief = (False, False)
    show: Callable[[list], list] | None = None
    seeds = 1  # the values ``seed`` names

    def __init__(self, growth: int):
        if growth < 1:
            raise ValueError("growth must be >= 1")
        self.growth = growth
        self.values: list = []  # values[c], by constant
        self.used: dict[Any, int] = {}  # key(value) -> constant
        self.fact_count = 0
        self._seen: set[tuple] = set()
        self.reports: list[StageReport] = []
        self.last_stage_for_tag: dict[str, int] = {}
        self.sound = True

    def keep(self, facts: list[tuple], delta: list) -> list[tuple]:
        """The facts new to ``_seen``, once each and in order, now recorded there and in delta."""
        seen, kept = self._seen, []
        for fact in facts:
            if fact not in seen:
                seen.add(fact)
                kept.append(fact)
        delta += kept
        self.fact_count += len(kept)
        return kept

    def add(self, facts: list[tuple], delta: list) -> None:
        """Record facts that can repeat, once each, and check the new ones."""
        if not self.facts_hold(self.keep(facts, delta)):
            self.sound = False

    def key(self, value):
        """The index key of a value that is or is about to be named."""
        return value

    def reindex(self, keys: Iterable) -> None:
        """Rebuild ``used`` from the named values' keys, in constant order;
        stage-soundness fails if two constants share a key, as their values
        are then not distinct."""
        self.used = {k: c for c, k in enumerate(keys)}
        if len(self.used) != len(self.values):
            self.sound = False

    def ensure(self, value, delta: list) -> int:
        """The constant holding ``value``; a new one is recorded first."""
        key = self.key(value)  # may re-key ``used``, so it is read after
        c = self.used.get(key)
        if c is None:
            c = self.used[key] = len(self.values)
            self.values.append(value)
            self.record(c, key, delta)
        return c

    def inequations(self, c: int, delta: list, facts: tuple[tuple, ...] = ()) -> None:
        """Record ``("neq", other, c)`` for every earlier constant, with the
        relation facts ``facts`` interleaved, as one ``Inequations``: the
        index has just found the newest constant c's key unused.  Constant 0
        has no inequation, so a delta is empty exactly when it expands to
        nothing."""
        if c:
            delta.append(Inequations(c, facts))
        self.fact_count += c + len(facts)

    def replay(self) -> bool:
        """Whether every recorded fact holds in the current map."""
        values = self.values
        return self.facts_hold(self._seen) and len(set(values)) == len(values)

    def advance(self, s1: bool, s2: bool) -> None:
        """Run the next stage on the belief (s1, s2) and report it; a resumed
        target's report names that target's latest stage."""
        stage = len(self.reports)
        delta: list[tuple] = []
        if stage == 0:
            self.seed(delta)
        tag, resumes = self.step(s1, s2, delta)
        resumed = self.last_stage_for_tag.get(tag) if resumes else None
        values = self.values
        self.reports.append(StageReport(stage, tag, values, len(values), self.show,
                                        tuple(delta), self.fact_count, resumed))
        self.last_stage_for_tag[tag] = stage
        self.belief = (s1, s2)

    def simulate(self, trace: ConstructionTrace):
        """Run the trace, once the values it can name, ``seeds`` plus at
        most 2·growth + 2 a stage, are found within ``NAMED_BUDGET``."""
        reach = self.seeds + len(trace.steps) * (2 * self.growth + 2)
        if reach > NAMED_BUDGET:
            raise ValueError(f"budget exhausted: the trace can name {reach} values "
                             f"(seeds + stages·(2·growth + 2)), above {NAMED_BUDGET}")
        for s1, s2 in trace.steps:
            self.advance(s1, s2)
        return self.result()

    def fork(self) -> "_Run":
        """A copy that advances independently: dicts, lists and sets are
        copied, and the values and reports in them are immutable; the
        reports so far keep the list of values they were made with."""
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
    return (0,) * i + (1,) + (0,) * (dim - i - 1)


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
            if a or p != prev:  # else the update leaves the row as it is
                m[r] = [(p * x - a * y) // prev for x, y in zip(m[r], top)]
        prev = p
        rank += 1
    return rank


def _pack(v: tuple, width: int) -> int:
    """Σ v_i·2^(width·i), a linear map."""
    key = 0
    for x in reversed(v):
        key = (key << width) + x
    return key


class _AbelianRun(_Run):
    """Values are integer vectors, keyed by ``_pack`` at a ``width`` with
    4·``maxabs`` < 2^width, ``maxabs`` being the largest absolute entry of
    a named value.  Vectors whose entries differ by less than 2^width have
    equal keys only if they are equal, and a sum or difference of two named
    values differs from a named value by at most 3·maxabs in each entry, so
    the lookups in ``record`` find exactly the named sums and differences.

    ``cursor`` is the index in ``int_tuple`` order of the first vector that
    ``grow`` has not seen named.  Between rewrites the named set only grows,
    so no vector before it becomes unnamed and ``grow`` resumes there;
    ``rewrite`` changes the vectors and resets it to 0.

    ``rewrite``, ``rekey`` and ``facts_hold`` (``final-replay``) work a coordinate
    at a time, on the columns of the named values; ``record`` checks inline."""

    def __init__(self, k: int, growth: int):
        if k < 2:
            raise ValueError("k must be >= 2")
        super().__init__(growth)
        self.k, self.dim, self.seeds = k, k - 1, k
        self.gen_layers: dict[str, int] = {}  # "s1"/"s2" -> coordinate index
        self.maxabs = self.width = self.cursor = 0

    def rekey(self) -> None:
        """Choose the least width for ``maxabs`` and re-key: ``_pack`` of the
        columns, joined pairwise into ever longer runs of coordinates."""
        self.width = shift = (4 * self.maxabs).bit_length()
        runs = list(zip(*self.values))
        while len(runs) > 1:
            pairs = [[lo + (hi << shift) for lo, hi in zip(a, b)]
                     for a, b in zip(runs[::2], runs[1::2])]
            runs, shift = pairs + runs[2 * len(pairs):], 2 * shift
        self.reindex(runs[0])

    def key(self, v: tuple) -> int:
        top = max(map(abs, v))
        if top > self.maxabs:  # v is about to be named
            self.maxabs = top
            if 4 * top >= 1 << self.width:
                self.rekey()
        return _pack(v, self.width)

    def record(self, c: int, kc: int, delta: list) -> None:
        self.inequations(c, delta)
        used, values, facts = self.used, self.values, []
        for ko, other in used.items():
            s = used.get(kc + ko)
            if s is not None:
                facts += (("sum", c, other, s), ("sum", other, c, s))
            diff = used.get(kc - ko)
            if diff is not None:
                facts.append(("sum", other, diff, c))
        for _, i, j, k in self.keep(facts, delta):
            if tuple(map(add, values[i], values[j])) != values[k]:
                self.sound = False

    def facts_hold(self, facts: Iterable[tuple]) -> bool:
        """values[I[n]] + values[J[n]] = values[K[n]], the facts unzipped into
        I, J, K; the first fact is taken twice, so that each getter gives a tuple."""
        _, i, j, k = zip(*facts)
        get_i, get_j, get_k = itemgetter(i[0], *i), itemgetter(j[0], *j), itemgetter(k[0], *k)
        return all(tuple(map(add, get_i(col), get_j(col))) == get_k(col)
                   for col in zip(*self.values))

    def rewrite(self, f: Callable[[tuple], tuple]) -> None:
        """Re-express every constant's value through ``f`` and re-key;
        stage-soundness fails unless f is linear and (by ``reindex``)
        injective on the named values: column j of their image under the
        linear map with columns f(e_i) sums the old columns i by f(e_i)[j].
        The one scan for the new ``maxabs`` serves the keys and collapses."""
        olds = self.values
        dim = len(olds[0])
        news = [f(v) for v in olds]
        cols = list(zip(*olds))
        image: list[Iterable[int]] = []
        for weights in zip(*(f(_unit_vector(dim, i)) for i in range(dim))):
            col = None
            for w, old in compress(zip(weights, cols), weights):
                term = old if w == 1 else [w * x for x in old]
                col = term if col is None else list(map(add, col, term))
            image.append(repeat(0, len(olds)) if col is None else col)
        if any(f((0,) * dim)) or list(zip(*image)) != news:
            self.sound = False
        self.values = news
        self.maxabs = max(map(abs, chain.from_iterable(news)))
        self.rekey()
        self.cursor = 0

    def seed(self, delta: list) -> None:
        self.ensure((0,) * self.dim, delta)
        for i in range(self.dim):
            self.ensure(_unit_vector(self.dim, i), delta)

    def expand(self, layers: list[str], delta: list) -> None:
        """Give each layer a fresh coordinate, in one rewrite, and name its
        unit vector."""
        first = self.dim
        self.dim += len(layers)
        self.rewrite(lambda v: _pad(v, self.dim))
        for coord, layer in enumerate(layers, first):
            self.gen_layers[layer] = coord
            self.ensure(_unit_vector(self.dim, coord), delta)

    def collapse(self, layers: list[str]) -> None:
        """Fold each layer's coordinate into coordinate 0 and drop it, in one
        rewrite.  Each fold weighs its coordinate by m = 1 + 2·(the largest
        entry before it), so it is injective on the named values."""
        folds: list[tuple[int, int]] = []

        def fold(v: tuple) -> tuple:
            for coord, m in folds:
                v = _squash(v, coord, m)
            return v

        maxabs = self.maxabs
        for layer in layers:
            if folds:
                # the largest entry after the folds so far, exactly: entries
                # off coordinate 0 are old, and the last fold put m > maxabs
                # at coordinate 0 of its coordinate's named unit vector
                maxabs = max(maxabs, max(abs(fold(v)[0]) for v in self.values))
            coord = self.gen_layers.pop(layer)
            folds.append((coord, 1 + 2 * maxabs))
            self.dim -= 1
            # surviving layer coordinates shift down past the removed one
            for name, idx in self.gen_layers.items():
                if idx > coord:
                    self.gen_layers[name] = idx - 1
        self.rewrite(fold)

    def grow(self, delta: list) -> None:
        """Name the first ``growth`` vectors of Z^dim not yet named."""
        size = len(self.values) + self.growth
        while len(self.values) < size:
            self.ensure(int_tuple(self.dim, self.cursor, include_zero=True), delta)
            self.cursor += 1

    def step(self, s1: bool, s2: bool, delta: list) -> tuple[str, bool]:
        # s2 collapses first so indices stay sane; a stage that collapses
        # expands nothing (s2 is a layer only while s1 is)
        down = [layer for layer, keep in (("s2", s1 and s2), ("s1", s1))
                if layer in self.gen_layers and not keep]
        up = [layer for layer, want in (("s1", s1), ("s2", s1 and s2))
              if want and layer not in self.gen_layers]
        if down:
            self.collapse(down)
        if up:
            self.expand(up, delta)
        self.grow(delta)
        dim = _abelian_dim(self.k, s1, s2)
        return f"Z{dim}", _abelian_dim(self.k, *self.belief) > dim

    def result(self) -> tuple[list[StageReport], str, VerificationReport]:
        want_dim = _abelian_dim(self.k, *self.belief)
        got_rank = _matrix_rank(self.values)
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
        return (*_ratio(n1 + n2, d1), f1 != f2)
    return (*_ratio(n1 * d2 + n2 * d1, d1 * d2), f1 != f2)


def _normal_form(i: int, num: int, den: int) -> tuple:
    """The value of ``dihedral.nth_normal_form(i)`` for a = the reflection
    at α = num/den and b = the reflection at 1, in closed form: ab and ba
    translate by α − 1 and 1 − α, so (ab)^k = k(α − 1), (ab)^k·a =
    k(α − 1) + α, (ba)^k = k(1 − α) and (ba)^k·b = k(1 − α) + 1.  Form i
    has (i + 1) // 2 letters and starts with a when i is odd."""
    k, odd = divmod((i + 1) // 2, 2)
    n = k * (num - den) + odd * num if i % 2 else k * (den - num) + odd * den
    return (*_ratio(n, den), bool(odd))


def _elements(xs: list[tuple]) -> list[D.DihedralElement]:
    import fractions
    from . import dihedral as D
    return [D.DihedralElement(fractions.Fraction(n, d), flip) for n, d, flip in xs]


_E = (0, 1, False)  # the identity
_B = (1, 1, True)  # b, the reflection at 1


class _DihedralRun(_Run):
    """Values are ``(num, den, flip)`` triples, keyed by ``key``.
    ``facts_hold`` checks each x·y = z with no gcd and no new triple:
    n1/d1 ± n2/d2 = n3/d3 cross-multiplied, exact as every den is positive.
    ``grow`` names the normal forms in a and b, each in closed form
    (``_normal_form``), in order from ``enum_cursor``; ``deepen`` moves a
    to the reflection midway between a and b, one tower level deeper."""

    belief = (True, False)  # conventional starting belief
    show = staticmethod(_elements)
    seeds = 3

    def __init__(self, growth: int):
        super().__init__(growth)
        self.depth = 0
        self.a = (0, 1, True)  # the current a, the reflection at 0
        self.enum_cursor = 0
        self.den_lcm = 1  # L, the lcm of the named denominators

    def key(self, v: tuple) -> int:
        """2·(t·L) + flip for the translation t = num/den: the key of x·y is
        kx + ky when x is a translation (kx even) and kx - ky when it is a
        reflection.  Keys are distinct on elements whose translations lie in
        (1/L)·Z, as the named values and their products do; a denominator
        outside L widens L and re-keys."""
        num, den, flip = v
        if self.den_lcm % den:  # v is about to be named
            self.den_lcm = lcm(self.den_lcm, den)
            self.reindex(map(self.key, self.values))
        return 2 * num * (self.den_lcm // den) + flip

    def record(self, c: int, kc: int, delta: list) -> None:
        self.inequations(c, delta)
        used, facts = self.used, []
        sign = -1 if kc & 1 else 1
        for ko, other in used.items():
            prod = used.get(kc + sign * ko)
            if prod is not None:
                facts.append(("mul", c, other, prod))
            prod = used.get(ko - kc if ko & 1 else ko + kc)
            if prod is not None:
                facts.append(("mul", other, c, prod))
        self.add(facts, delta)

    def facts_hold(self, facts: Iterable[tuple]) -> bool:
        values = self.values
        for _, i, j, k in facts:
            (n1, d1, f1), (n2, d2, f2), (n3, d3, f3) = values[i], values[j], values[k]
            if f3 != (f1 != f2) or (n1 * d2 + (-n2 if f1 else n2) * d1) * d3 != n3 * d1 * d2:
                return False
        return True

    def seed(self, delta: list) -> None:
        self.ensure(_E, delta)
        self.ensure(self.a, delta)  # a
        self.ensure(_B, delta)      # b

    def deepen(self, delta: list) -> None:
        """Express the current a as a'·b·a' for a fresh deeper reflection a'."""
        old_a = self.used[self.key(self.a)]
        num, den, _ = self.a
        self.a = (*_ratio(num + den, 2 * den), True)  # midway between the old a and b
        self.depth += 1
        a_new = self.ensure(self.a, delta)
        aux = self.ensure(_dmul(self.a, _B), delta)
        # the defining relation a_old = a' b a' arrives as two product facts
        # recorded by the relation lookups; assert them explicitly too
        self.add([("mul", a_new, 2, aux), ("mul", aux, a_new, old_a)], delta)

    def grow(self, delta: list) -> None:
        """Name the next ``growth`` normal forms, in a and b, not yet named."""
        num, den, _ = self.a
        size = len(self.values) + self.growth
        while len(self.values) < size:
            self.ensure(_normal_form(self.enum_cursor, num, den), delta)
            self.enum_cursor += 1

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
             all(_dmul(v, v) == _E for v in self.values if v[2]), ""),
            ("frozen-adds-nothing",
             all(not r.delta for r in self.reports
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
    """Count deepening steps by walking the recorded defining relations: a
    deepening leaves the facts x·b = aux and aux·x = the current top, x the
    fresh deeper reflection, followed from the original generator down by
    an index of the facts aux·x = z by z, built once.  It reads the relation
    facts and the raw ``(num, den, flip)`` values, not the views."""
    facts = set(chain.from_iterable(map(StageReport.relations, reports)))  # all "mul"
    by_product: dict[int, list[tuple]] = {}
    for f in facts:
        by_product.setdefault(f[3], []).append(f)
    values = reports[-1].values
    current, depth = 1, 0  # a is seeded second, after the identity, and b third
    while True:
        current = next((x for _, aux, x, _ in by_product.get(current, ())
                        if x != current and ("mul", x, 2, aux) in facts and values[x][2]), None)
        if current is None:
            return depth
        depth += 1


# ---------------------------------------------------------------------------
# Rank-1 construction: H / G / K
# ---------------------------------------------------------------------------

def _fractions(xs: list[tuple]) -> list[Fraction]:
    import fractions
    return [fractions.Fraction(*x) for x in xs]


class _Rank1Run(_Run):
    """Values are reduced ``(num, den)`` pairs with den > 0."""

    show = staticmethod(_fractions)

    def __init__(self, c: R.Rank1Char, p: int, q: int, growth: int):
        from . import rank1 as R
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

    def record(self, c: int, _key: tuple, delta: list) -> None:
        # the scale facts of each pair follow its inequation, so they ride in
        # c's ``Inequations``; x = m·y needs den(x) | den(y), as both pairs
        # are reduced, and then m = num(x)·(den(y)/den(x)) / num(y), an
        # integer m > 1 or no fact.  ``keep`` is inlined as the seen-set; remainder
        # 0 is the fact's relation, so only ``final-replay`` checks it
        nc, dc = self.values[c]
        self.num_gcd, self.den_lcm = gcd(self.num_gcd, nc), lcm(self.den_lcm, dc)
        seen, scales = self._seen, []
        for other, (no, do) in zip(range(c), self.values):
            if not do % dc:  # c = m·other
                m, r = divmod(nc * (do // dc), no)
                if m > 1 and not r and (fact := ("scale", m, other, c)) not in seen:
                    seen.add(fact)
                    scales.append(fact)
            if not dc % do:  # other = m·c
                m, r = divmod(no * (dc // do), nc)
                if m > 1 and not r and (fact := ("scale", m, c, other)) not in seen:
                    seen.add(fact)
                    scales.append(fact)
        self.inequations(c, delta, tuple(scales))

    def facts_hold(self, facts: Iterable[tuple]) -> bool:
        values = self.values
        for _, m, i, j in facts:
            (xn, xd), (yn, yd) = values[i], values[j]
            if m * xn * yd != yn * xd:
                return False
        return True

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
        self.add([("scale", prime, new, prev)], delta)

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
                self.add([("scale", self.mult_cursor, unit_k, new)], delta)
                self.mult_cursor += 1
        return target, True

    def result(self) -> tuple[list[StageReport], R.Rank1Char, VerificationReport]:
        from . import rank1 as R
        target = self.reports[-1].target_tag
        final_char = self.chars[target]
        un, ud = unit = self.values[self.units[target]]
        # v / unit = (vn·ud) / (vd·un), whose reduced denominator is tested
        member = all(R.admits_denominator(final_char, abs(vd * un) // gcd(vn * ud, vd * un))
                     for vn, vd in self.values)
        verification = self.verify(("members-in-final-group", member,
                                    f"designated unit {_fractions([unit])[0]}"))
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
    from . import rank1 as R
    if m < 1:
        raise ValueError("m must be >= 1")
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
    table = {p: R.exponent(c, p) for p in window}
    missed = tuple(k for k in range(m) if k not in w)
    multiplier = 1
    for k in missed:
        table[a_primes[k]] -= 1
        multiplier *= a_primes[k]
    declared_finite = not missed or max(missed) < m // 2
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
    from . import rank1 as R
    exponents = {p: R.exponent(c, p) for p in primes_upto(bound)}
    pfin = [p for p, v in exponents.items() if 0 < v != R.INF][:m]
    lowered = {p for k, p in enumerate(pfin) if k not in w}
    conform = tuple(pfin) == result.a_primes
    for p, v in exponents.items():
        got = result.table[p]
        if (0 if got == v else v - got) != (1 if p in lowered else 0):
            conform = False
    checks = [("rule-conformance", conform, "")]
    if result.verdict == "isomorphic":
        fixed = all(result.table[p] + valuation(result.multiplier, p)
                    == R.exponent(c, p) for p in result.a_primes)
        checks.append(("multiplier-restores-window", fixed, f"multiplier {result.multiplier}"))
    return VerificationReport(all(ok for _, ok, _ in checks), tuple(checks))

