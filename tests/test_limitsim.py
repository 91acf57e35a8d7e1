import itertools
import operator
import random
from fractions import Fraction
from math import gcd

import pytest

from scottgroups import dihedral as D
from scottgroups import limitsim as L
from scottgroups import rank1 as R
from scottgroups.numtheory import int_tuple

T = L.ConstructionTrace.from_bits


def triple(e: D.DihedralElement) -> tuple:
    """A dihedral element as the simulator's (num, den, flip) triple."""
    t = e.translation
    return (t.numerator, t.denominator, e.flip)


def all_traces(length):
    for bits in itertools.product([0, 1], repeat=2 * length):
        yield T([[bits[2 * i], bits[2 * i + 1]] for i in range(length)])


class TestTrace:
    def test_nonempty(self):
        with pytest.raises(ValueError):
            L.ConstructionTrace(())

    def test_json_round_trip(self):
        tr = T([[0, 0], [1, 0], [1, 1]])
        assert L.trace_from_json({"steps": [[0, 0], [1, 0], [1, 1]]}) == tr


class TestAbelian:
    def test_settled_outside_s1(self):
        reports, tag, ver = L.run_abelian(2, T([[0, 0]] * 5), growth=1)
        assert tag == "Z1" and ver.ok

    def test_settled_in_s1_minus_s2(self):
        _, tag, ver = L.run_abelian(2, T([[0, 0], [1, 0], [1, 0]]), growth=1)
        assert tag == "Z2" and ver.ok

    def test_collapse_preserves_inequations(self):
        reports, tag, ver = L.run_abelian(2, T([[0, 0], [1, 0], [0, 0]]), growth=1)
        assert tag == "Z1" and ver.ok
        names = [c[0] for c in ver.checks]
        assert "stage-soundness" in names and all(ok for _, ok, _ in ver.checks)

    def test_fallback_extends_previous_map(self):
        reports, _, _ = L.run_abelian(2, T([[0, 0], [1, 0], [0, 0]]), growth=1)
        assert reports[2].resumed_from == 0
        earlier = reports[0].partial_map
        later = reports[2].partial_map
        assert all(later[c] == v for c, v in earlier.items())

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            L.run_abelian(1, T([[0, 0]]))

    def test_stage_soundness_catches_a_faulty_rewrite(self, monkeypatch):
        # expanding pads every value with 1 instead of 0, so 0 + 0 = 0 breaks
        monkeypatch.setattr(L, "_pad", lambda v, dim: v + (1,) * (dim - len(v)))
        _, _, ver = L.run_abelian(2, T([[0, 0], [1, 0], [0, 0]]), growth=1)
        checks = {name: ok for name, ok, _ in ver.checks}
        assert checks["stage-soundness"] is False
        assert not ver.ok

    def test_stage_soundness_catches_a_collapse_that_is_not_injective(self, monkeypatch):
        # dropping the collapsed coordinate without folding it in is linear,
        # but it sends the collapsed generator onto the zero vector
        monkeypatch.setattr(L, "_squash", lambda v, m: v[:-1])
        _, _, ver = L.run_abelian(2, T([[0, 0], [1, 0], [0, 0]]), growth=1)
        checks = {name: ok for name, ok, _ in ver.checks}
        assert checks["stage-soundness"] is False
        assert not ver.ok

    def test_stage_soundness_catches_an_injective_rewrite_that_is_not_linear(self, monkeypatch):
        # cubing the first coordinate fixes 0 and is injective, but 1 + 1 = 2
        # becomes 1 + 1 = 8
        monkeypatch.setattr(L, "_pad", lambda v, dim: (v[0] ** 3,) + v[1:] + (0,) * (dim - len(v)))
        _, _, ver = L.run_abelian(2, T([[0, 0]] * 3 + [[1, 0], [0, 0]]), growth=1)
        checks = {name: ok for name, ok, _ in ver.checks}
        assert checks["stage-soundness"] is False
        assert checks["final-replay"] is False

    def test_double_jump(self):
        _, tag, ver = L.run_abelian(3, T([[0, 0], [1, 1], [0, 0], [1, 1]]), growth=1)
        assert tag == "Z4" and ver.ok

    def test_exhaustive_short_traces(self):
        for trace in all_traces(3):
            for k in (2, 3):
                _, tag, ver = L.run_abelian(k, trace, growth=1)
                s1, s2 = trace.steps[-1]
                want = (k - 1) + (1 if s1 else 0) + (1 if s1 and s2 else 0)
                assert tag == f"Z{want}" and ver.ok


class TestMatrixRank:
    @staticmethod
    def fraction_rank(rows):
        m = [[Fraction(x) for x in row] for row in rows]
        rank = 0
        for col in range(len(m[0]) if m else 0):
            pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
            if pivot is None:
                continue
            m[rank], m[pivot] = m[pivot], m[rank]
            for r in range(len(m)):
                if r != rank and m[r][col] != 0:
                    f = m[r][col] / m[rank][col]
                    m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
            rank += 1
        return rank

    def test_matches_fraction_elimination(self):
        rng = random.Random(17)
        for _ in range(400):
            rows, cols = rng.randint(0, 7), rng.randint(1, 5)
            width = rng.choice((1, 3, 50, 10 ** 12))
            m = [tuple(rng.randint(-width, width) for _ in range(cols)) for _ in range(rows)]
            if m and rng.random() < 0.5:
                # rank-deficient: add integer combinations of a few rows
                basis = m[:rng.randint(1, len(m))]
                m = [tuple(sum(rng.randint(-3, 3) * b[j] for b in basis) for j in range(cols))
                     for _ in range(rows)]
            if m and rng.random() < 0.3:
                zero_col = rng.randrange(cols)
                m = [row[:zero_col] + (0,) + row[zero_col + 1:] for row in m]
            assert L._matrix_rank(m) == self.fraction_rank(m), m

    def test_small_cases(self):
        assert L._matrix_rank([]) == 0
        assert L._matrix_rank([(0, 0), (0, 0)]) == 0
        assert L._matrix_rank([(2, 4), (1, 2), (3, 6)]) == 1
        assert L._matrix_rank([(0, 1, 0), (0, 0, 1), (0, 1, 1)]) == 2
        # a row with a zero in the pivot column is still scaled when the
        # pivot differs from the previous one, or a later division is inexact
        assert L._matrix_rank([(0, 2, 0), (0, -1, -1), (3, -1, 3)]) == 3


class TestIntegerArithmetic:
    def test_dihedral_product_matches_dihedral_element(self):
        rng = random.Random(23)

        def dyadic():
            t = Fraction(rng.randint(-200, 200), 2 ** rng.randint(0, 8))
            return D.DihedralElement(t, rng.random() < 0.5)

        for _ in range(3000):
            x, y = dyadic(), dyadic()
            got = L._dmul(triple(x), triple(y))
            assert got == triple(x * y)
            assert L._elements([got]) == [x * y]

    def test_dihedral_check_matches_the_product(self):
        # facts_hold cross-multiplies; it agrees with forming x·y and
        # comparing, on true facts and on false ones perturbed from them
        rng = random.Random(37)

        def element():
            den = rng.choice((rng.randint(1, 60), 2 ** rng.randint(0, 12)))
            return (*L._ratio(rng.randint(-400, 400), den), rng.random() < 0.5)

        run, agree = L._DihedralRun(growth=1), set()
        for n in range(4000):
            x, y = element(), element()
            z = L._dmul(x, y)
            if n % 4 == 1:
                z = (z[0], z[1], not z[2])
            elif n % 4 == 2:
                z = (*L._ratio(z[0] * 3 + rng.choice((-1, 1)) * z[1], 3 * z[1]), z[2])
            elif n % 4 == 3:
                z = element()
            run.values = [x, y, z]
            want = L._dmul(x, y) == z
            assert run.facts_hold([("mul", 0, 1, 2)]) == want, (x, y, z)
            agree.add(want)
        assert agree == {True, False}

    def test_rank1_scale_matches_fraction_ratio(self):
        rng = random.Random(29)

        def rational():
            num = rng.choice((-1, 1)) * rng.randint(1, 60)
            return Fraction(num * rng.choice((1, 2, 3, 5, 12)), rng.randint(1, 40))

        run = L._Rank1Run(R.char({2: R.INF}), 3, 2, growth=1)
        for _ in range(3000):
            x, y = rational(), rational()
            if rng.random() < 0.3:
                x = y * rng.randint(-4, 6)
            if x == 0:
                continue
            # ("scale", m, i, j) says m·value(i) = value(j); y is constant 0
            # and x, recorded next, constant 1
            want = [("scale", int(ratio), i, j) for ratio, i, j in ((x / y, 0, 1), (y / x, 1, 0))
                    if ratio.denominator == 1 and ratio > 1]
            run.values = [(y.numerator, y.denominator), (x.numerator, x.denominator)]
            run._seen, run.sound, delta = set(), True, []
            run.record(1, (x.numerator, x.denominator), delta)
            # record trusts the index, so a value equal to y still gets its
            # inequation; ``ensure`` never names such a value.  The scale
            # facts ride in the one inequation block
            assert len(delta) == 1 and L.expand(delta) == [("neq", 0, 1)] + want, (x, y)
            assert run._seen == set(want) and run.sound
            ratio = x / y
            for m in (-2, 1, 2, 3, int(ratio) if ratio.denominator == 1 else 0):
                assert run.facts_hold([("scale", m, 0, 1)]) == (m * y == x)


def facts(run) -> list[tuple]:
    """The recorded facts: the concatenation of the stage deltas."""
    return [f for r in run.reports for f in r.diagram_delta]


class TestFactBookkeeping:
    """Inequations skip the seen-set; every recorded fact is still replayed."""

    TRACE = T([[0, 0], [1, 0], [1, 1], [0, 0], [1, 0], [1, 1], [1, 0], [0, 0], [1, 1], [0, 1]])
    # len(facts) for TRACE at commit e6e12fe, whose inequations went through
    # the seen-set and a record-time check like every other fact
    RUNS = {
        "abelian": (lambda: L._AbelianRun(3, growth=2), 573),
        "dihedral": (lambda: L._DihedralRun(growth=2), 501),
        "rank1": (lambda: L._Rank1Run(R.char({2: R.INF}), 3, 2, growth=2), 341),
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_fact_count_and_seen_set(self, name):
        make, count = self.RUNS[name]
        run = make()
        _, _, ver = run.simulate(self.TRACE)
        assert ver.ok
        recorded = facts(run)
        assert len(recorded) == run.fact_count == run.reports[-1].fact_count == count
        assert not any(f[0] == "neq" for f in run._seen)
        assert run._seen == {f for f in recorded if f[0] != "neq"}
        # every inequation names the newest of its two constants last
        assert all(f[1] < f[2] for f in recorded if f[0] == "neq")

    @pytest.mark.parametrize("name", ["abelian", "rank1"])
    def test_final_replay_checks_inequations(self, name):
        make, _ = self.RUNS[name]
        run = make()
        run.simulate(self.TRACE)
        assert run.replay()
        # with every sum and scale fact passing, only an inequation can fail
        run.facts_hold = lambda facts: True
        _, i, j = next(f for f in facts(run) if f[0] == "neq")
        run.values[j] = run.values[i]
        assert run.replay() is False
        checks = {check: ok for check, ok, _ in run.result()[2].checks}
        assert checks["final-replay"] is False

    def test_rank1_partial_map_shows_fractions(self):
        make, _ = self.RUNS["rank1"]
        run = make()
        reports, _, _ = run.simulate(self.TRACE)
        for report in reports:
            assert all(type(v) is Fraction for v in report.partial_map.values())
        assert reports[-1].partial_map == {c: Fraction(n, d) for c, (n, d) in enumerate(run.values)}
        assert all(d > 0 and gcd(n, d) == 1 for n, d in run.values)


class TestDistinctnessByIndex:
    """The key index is the one proof that the named values are distinct.
    With one constant's entry deleted from ``used``, the next stage names
    that constant's value again, and ``final-replay`` finds the inequation
    between the two constants false.  ``stage-soundness`` rests on that
    same index for the inequations, so it still reads true: the broken
    index shows up only in ``final-replay``."""

    # (run, the two stages' beliefs, the constant whose entry is deleted)
    CASES = {
        "abelian": (lambda: L._AbelianRun(3, growth=1), ((1, 0), (1, 0)), 2),
        "dihedral": (lambda: L._DihedralRun(growth=1), ((0, 0), (0, 1)), 1),
        "rank1": (lambda: L._Rank1Run(R.char({2: R.INF}), 3, 2, growth=1), ((0, 0), (0, 0)), 1),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_final_replay_catches_a_value_named_twice(self, name):
        make, (first, second), c = self.CASES[name]
        run = make()
        run.advance(*first)
        del run.used[run.key(run.values[c])]
        run.advance(*second)
        twice = run.values.index(run.values[c], c + 1)
        assert ("neq", c, twice) in facts(run)
        _, _, ver = run.result()
        checks = {check: ok for check, ok, _ in ver.checks}
        assert checks["stage-soundness"] is True
        assert checks["final-replay"] is False and not ver.ok

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_reindex_fails_stage_soundness_on_a_shared_key(self, name):
        make, (first, _), _ = self.CASES[name]
        run = make()
        run.advance(*first)
        run.reindex(map(run.key, run.values))
        assert run.sound
        run.reindex([0] * len(run.values))
        assert run.sound is False
        checks = {check: ok for check, ok, _ in run.result()[2].checks}
        assert checks["stage-soundness"] is False


class TestFactOracle:
    """Each stage's delta holds exactly the facts a brute-force scan of the
    reported values finds, by plain arithmetic on tuples, ``Fraction`` and
    ``DihedralElement`` (no ``_dmul``, no key index, no ``record``).

    The recording rule: when a constant c is named, it is recorded unequal
    to every earlier constant, and every relation among constants up to c
    that involves c is recorded: a sum fact with c in any place, a product
    or scale fact with c as a factor.  Values change only at the start of a
    stage, before anything is named, so the end-of-stage values serve for
    every constant the stage names.  A dihedral deepening also records its
    two defining relations."""

    CHAR = R.char({2: R.INF})
    RUNS = {
        "abelian": lambda growth, rng: L._AbelianRun(rng.choice((2, 3)), growth),
        "dihedral": lambda growth, rng: L._DihedralRun(growth),
        "rank1": lambda growth, rng: L._Rank1Run(TestFactOracle.CHAR, 3, 2, growth),
    }

    @staticmethod
    def scan(sim: str, values: dict, new: set) -> set:
        """Relation facts whose newest constant is in ``new``, over every
        ordered pair of named values (for products and scales, every pair
        whose newer member is in ``new``)."""
        index = {v: c for c, v in values.items()}
        if sim == "abelian":
            pairs = itertools.product(values, repeat=2)
        else:
            pairs = {pair for c in new for o in range(c + 1) for pair in ((c, o), (o, c))}
        facts = set()
        for x, y in pairs:
            vx, vy = values[x], values[y]
            if sim == "abelian":
                z = index.get(tuple(map(operator.add, vx, vy)))
                if z is not None and max(x, y, z) in new:
                    facts.add(("sum", x, y, z))
            elif sim == "dihedral":
                z = index.get(vx * vy)
                if z is not None and z <= max(x, y):
                    facts.add(("mul", x, y, z))
            elif x != y:
                m = vy / vx
                if m.denominator == 1 and m > 1:
                    facts.add(("scale", int(m), x, y))
        return facts

    @classmethod
    def expected_deltas(cls, sim: str, steps, reports) -> list[set]:
        recorded, deltas, named, depth = set(), [], 0, 0
        belief = L._DihedralRun.belief
        for (s1, s2), report in zip(steps, reports):
            values = report.partial_map
            assert sorted(values) == list(range(len(values)))
            new = set(range(named, len(values)))
            named = len(values)
            facts = {("neq", o, c) for c in new for o in range(c) if values[o] != values[c]}
            facts |= cls.scan(sim, values, new)
            if sim == "dihedral" and belief[0] and not s1:
                # a_d, the reflection at 1 - 2^-d, defines a_(d-1) = a_d b a_d
                depth += 1
                index = {v: c for c, v in values.items()}
                a_new = index[D.DihedralElement(1 - Fraction(1, 2 ** depth), True)]
                a_old = index[D.DihedralElement(1 - Fraction(2, 2 ** depth), True)]
                aux = index[values[a_new] * D.B_ELEM]
                facts |= {("mul", a_new, 2, aux), ("mul", aux, a_new, a_old)}
            facts -= recorded
            recorded |= facts
            deltas.append(facts)
            belief = (s1, s2)
        return deltas

    @classmethod
    def assert_matches_oracle(cls, sim, trace, reports):
        for stage, (report, want) in enumerate(
                zip(reports, cls.expected_deltas(sim, trace.steps, reports))):
            got = report.diagram_delta
            assert len(set(got)) == len(got), (sim, stage)
            assert set(got) == want, (sim, stage, set(got) ^ want)

    @pytest.mark.parametrize("growth", [1, 2])
    @pytest.mark.parametrize("sim", sorted(RUNS))
    def test_deltas_match_brute_force(self, sim, growth):
        rng = random.Random(f"oracle {sim} {growth}")
        for length in (1, rng.randint(2, 12), rng.randint(13, 25), 40):
            trace = T([[rng.randint(0, 1), rng.randint(0, 1)] for _ in range(length)])
            reports, _, ver = self.RUNS[sim](growth, rng).simulate(trace)
            assert ver.ok
            self.assert_matches_oracle(sim, trace, reports)

    def test_abelian_entries_past_64_bits(self):
        # each collapse weighs the folded coordinate by 1 + 2·max|entry|, so
        # the largest entry doubles with every fold: five folds a cycle
        trace = T([[1, 1], [0, 0], [1, 1], [0, 0], [1, 0], [0, 0]] * 14)
        run = L._AbelianRun(2, growth=1)
        reports, tag, ver = run.simulate(trace)
        assert tag == "Z1" and ver.ok
        assert max(abs(x) for v in reports[-1].partial_map.values() for x in v).bit_length() > 64
        self.assert_matches_oracle("abelian", trace, reports)

    def test_dihedral_tower_past_depth_64(self):
        trace = T([[1, 0], [0, 0]] * 65)
        run = L._DihedralRun(growth=1)
        reports, tag, ver = run.simulate(trace)
        assert tag == "H" and ver.ok and run.depth == 65
        assert max(v.translation.denominator for v in reports[-1].partial_map.values()) == 2 ** 65
        self.assert_matches_oracle("dihedral", trace, reports)


class _RestartingAbelianRun(L._AbelianRun):
    """The abelian run whose ``grow`` scans Z^dim from index 0 every stage."""

    def grow(self, delta: list) -> None:
        size, cursor = len(self.values) + self.growth, 0
        while len(self.values) < size:
            self.ensure(int_tuple(self.dim, cursor, include_zero=True), delta)
            cursor += 1


class TestAbelianGrowCursor:
    def test_matches_a_grow_that_restarts_from_zero(self):
        rng = random.Random(31)
        for _ in range(200):
            k, growth = rng.randint(2, 4), rng.randint(1, 3)
            trace = T([[rng.randint(0, 1), rng.randint(0, 1)] for _ in range(rng.randint(1, 30))])
            reports, tag, ver = L._AbelianRun(k, growth).simulate(trace)
            assert ver.ok
            want = _RestartingAbelianRun(k, growth).simulate(trace)
            assert (reports, tag, ver) == want, (k, growth, trace.steps)


class TestDihedral:
    def test_settled_dinf(self):
        reports, tag, ver = L.run_dihedral(T([[1, 0]] * 6), growth=2)
        assert tag == "Dinf" and ver.ok
        assert L.dihedral_tower_depth(reports) == 0

    def test_alternating_builds_tower(self):
        bits = [[1, 0], [0, 0]] * 4
        reports, tag, ver = L.run_dihedral(T(bits), growth=1)
        assert ver.ok and tag == "H"
        assert L.dihedral_tower_depth(reports) >= 4

    def test_frozen_fragment(self):
        reports, tag, ver = L.run_dihedral(T([[1, 0], [1, 1], [1, 1]]), growth=1)
        assert tag == "FiniteFragment" and ver.ok
        assert all(not r.diagram_delta for r in reports[1:])

    def test_unfreeze_resumes(self):
        reports, tag, ver = L.run_dihedral(T([[1, 0], [1, 1], [1, 0]]), growth=1)
        assert tag == "Dinf" and ver.ok
        assert reports[2].resumed_from == 0
        assert reports[2].diagram_delta

    def test_sampled_soundness(self):
        rng = random.Random(41)
        for _ in range(60):
            steps = [[rng.randint(0, 1), rng.randint(0, 1)]
                     for _ in range(rng.randint(1, 10))]
            _, _, ver = L.run_dihedral(T(steps), growth=rng.randint(1, 2))
            assert ver.ok, (steps, ver)


def full_scan_tower_depth(reports) -> int:
    """The tower depth by a scan of every ``mul`` fact at every level, the
    walk ``dihedral_tower_depth`` makes through its index of the facts."""
    facts = {f for r in reports for f in r.diagram_delta if f[0] == "mul"}
    values = reports[-1].partial_map
    current, depth = 1, 0
    while True:
        step = None
        for (_, x, y, aux) in facts:
            if y == 2 and x != current and ("mul", aux, x, current) in facts and values[x].flip:
                step = x
                break
        if step is None:
            return depth
        current = step
        depth += 1


class TestDihedralKernels:
    def test_normal_forms_in_closed_form(self):
        # at tower depth d, a is the reflection at 1 - 2^-d; the closed form
        # of each normal form is the product of its letters
        for depth in range(12):
            a = (2 ** depth - 1, 2 ** depth, True)
            for i in range(400):
                want = L._E
                for ch in D.nth_normal_form(i).letters:
                    want = L._dmul(want, a if ch == "a" else L._B)
                assert L._normal_form(i, a[0], a[1]) == want, (depth, i)

    def test_grow_names_the_normal_forms_in_order(self):
        run = L._DihedralRun(growth=50)
        run.grow([])
        assert L._elements(run.values) == [D.to_element(D.nth_normal_form(i)) for i in range(50)]

    def test_tower_depth_matches_a_full_scan(self):
        rng = random.Random(43)
        for _ in range(80):
            steps = [[rng.randint(0, 1), rng.randint(0, 1)] for _ in range(rng.randint(1, 40))]
            reports, _, ver = L.run_dihedral(T(steps), growth=rng.randint(1, 2))
            assert ver.ok
            assert L.dihedral_tower_depth(reports) == full_scan_tower_depth(reports), steps
        reports, _, _ = L.run_dihedral(T([[1, 0], [0, 0]] * 65), growth=1)
        assert L.dihedral_tower_depth(reports) == full_scan_tower_depth(reports) == 65


class TestAbelianReplay:
    """``final-replay`` checks the abelian sum facts a coordinate at a time."""

    @staticmethod
    def finished_run():
        run = L._AbelianRun(3, growth=2)
        _, _, ver = run.simulate(TestFactBookkeeping.TRACE)
        assert ver.ok and run.replay()
        return run

    @staticmethod
    def checks(run) -> dict:
        return {check: ok for check, ok, _ in run.result()[2].checks}

    def test_a_false_sum_fact_fails_final_replay(self):
        run = self.finished_run()
        assert run.values[3] != tuple(map(operator.add, run.values[1], run.values[2]))
        run._seen.add(("sum", 1, 2, 3))
        assert run.facts_hold(run._seen) is False
        checks = self.checks(run)
        assert checks["final-replay"] is False and checks["stage-soundness"] is True

    def test_a_changed_coordinate_fails_final_replay(self):
        run = self.finished_run()
        _, i, j, k = next(f for f in sorted(run._seen) if 0 not in f[1:])
        for coord in range(len(run.values[k])):
            twin = run.fork()
            value = list(twin.values[k])
            value[coord] += 10 ** 30  # far from every named value: still distinct
            twin.values[k] = tuple(value)
            assert len(set(twin.values)) == len(twin.values)
            assert twin.facts_hold(twin._seen) is False, (i, j, k, coord)
            assert self.checks(twin)["final-replay"] is False


class TestReplayFaults:
    """A false relation fact fails ``final-replay`` when it is only in
    ``_seen``, and ``stage-soundness`` when ``add`` records it in a run."""

    TRACE = TestFactBookkeeping.TRACE
    RUNS = {  # (run, a fact that is false on its seed values)
        "dihedral": (lambda: L._DihedralRun(growth=2), ("mul", 0, 0, 1)),  # e·e = a
        "rank1": (lambda: L._Rank1Run(R.char({2: R.INF}), 3, 2, growth=2),
                  ("scale", 2, 0, 0)),  # 2·1 = 1
    }

    @staticmethod
    def checks(run) -> dict:
        return {check: ok for check, ok, _ in run.result()[2].checks}

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_a_false_fact_in_seen_fails_final_replay(self, name):
        make, false = self.RUNS[name]
        run = make()
        _, _, ver = run.simulate(self.TRACE)
        assert ver.ok and run.replay() and false not in run._seen
        assert run.facts_hold([false]) is False
        run._seen.add(false)
        assert run.facts_hold(run._seen) is False
        checks = self.checks(run)
        assert checks["final-replay"] is False and checks["stage-soundness"] is True

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_a_false_fact_added_in_a_run_fails_stage_soundness(self, name):
        make, false = self.RUNS[name]
        run = make()
        half = len(self.TRACE.steps) // 2
        for s1, s2 in self.TRACE.steps[:half]:
            run.advance(s1, s2)
        assert run.sound
        delta: list = []
        run.add([false], delta)
        assert delta == [false] and not run.sound
        for s1, s2 in self.TRACE.steps[half:]:
            run.advance(s1, s2)
        checks = self.checks(run)
        assert checks["stage-soundness"] is False and not run.result()[2].ok


class TestRecordChecks:
    """``record`` checks the facts it keeps: with two constants' index
    entries swapped, lookups name false sums or products, and
    ``stage-soundness`` fails.  The traces only grow, so nothing re-keys."""

    RUNS = {
        "abelian": (lambda: L._AbelianRun(3, growth=2), [[0, 0]] * 8),
        "dihedral": (lambda: L._DihedralRun(growth=2), [[1, 0]] * 8),
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_a_corrupt_index_fails_stage_soundness(self, name):
        make, steps = self.RUNS[name]
        run = make()
        run.advance(*steps[0])
        assert run.sound
        (k1, c1), (k2, c2) = [(k, c) for k, c in run.used.items() if c in (1, 2)]
        run.used[k1], run.used[k2] = c2, c1
        for s1, s2 in steps[1:]:
            run.advance(s1, s2)
        assert not run.sound
        assert {check: ok for check, ok, _ in run.result()[2].checks}["stage-soundness"] is False


class TestMembersInFinalGroup:
    """``members-in-final-group`` tests each value over the unit on integer
    pairs; it agrees with ``rank1.contains`` on the ``Fraction`` quotients."""

    CASES = [(R.char({2: R.INF}), 3, 2), (R.char({5: R.INF}), 2, 5),
             (R.char({7: 0}, default=R.INF_RULE), 7, 2),
             (R.char(default=("residue", (R.ZERO_RULE, R.INF_RULE))), 2, 3),
             (R.char({2: 6, 13: R.INF}), 2, 13)]

    @staticmethod
    def members_check(run) -> tuple[bool, str]:
        return next((ok, detail) for check, ok, detail in run.result()[2].checks
                    if check == "members-in-final-group")

    @staticmethod
    def oracle(run) -> bool:
        target = run.reports[-1].target_tag
        unit = Fraction(*run.values[run.units[target]])
        return all(R.contains(run.chars[target], Fraction(*v) / unit) for v in run.values)

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_matches_contains_on_fraction_quotients(self, case):
        c, p, q = self.CASES[case]
        rng = random.Random(f"members {case}")
        outcomes = set()
        for _ in range(25):
            steps = [[rng.randint(0, 1), rng.randint(0, 1)] for _ in range(rng.randint(1, 30))]
            run = L._Rank1Run(c, p, q, growth=rng.randint(1, 2))
            run.simulate(T(steps))
            unit = run.units[run.reports[-1].target_tag]
            # the values as run; all negated, so the unit is negative; and
            # one value other than the unit replaced by a random rational
            negated, replaced = run.fork(), run.fork()
            negated.values = [(-n, d) for n, d in run.values]
            other = rng.choice([i for i in range(len(run.values)) if i != unit] or [unit])
            den = rng.choice((1, p, q, 2 * 3 * 5 * 7, p ** 9, q ** 3 * 11))
            replaced.values[other] = L._ratio(rng.choice((-1, 1)) * rng.randint(1, 50), den)
            for twin in (run, negated, replaced):
                ok, detail = self.members_check(twin)
                assert ok == self.oracle(twin), steps
                assert detail == f"designated unit {Fraction(*twin.values[unit])}"
                outcomes.add(ok)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_a_value_outside_the_final_group_fails(self, case):
        c, p, q = self.CASES[case]
        run = L._Rank1Run(c, p, q, growth=1)
        _, _, ver = run.simulate(T([[0, 0], [1, 0], [1, 0], [1, 1], [1, 1]]))
        assert ver.ok and run.reports[-1].target_tag == "K"
        un, ud = run.values[run.units["K"]]
        named = len(run.values)
        run.ensure(L._ratio(un, ud * q), [])  # unit/q, and K has q-exponent 0
        assert len(run.values) == named + 1
        assert self.oracle(run) is False
        ver = run.result()[2]
        checks = {check: ok for check, ok, _ in ver.checks}
        assert checks["members-in-final-group"] is False and ver.ok is False
        assert checks["stage-soundness"] and checks["final-replay"]


class TestBudget:
    """``simulate`` refuses a trace that could name more than
    ``NAMED_BUDGET`` values: the seeds plus 2·growth + 2 a stage."""

    RUNS = {  # (run, its seeds)
        "abelian": (lambda growth: L._AbelianRun(4, growth), 4),
        "dihedral": (lambda growth: L._DihedralRun(growth), 3),
        "rank1": (lambda growth: L._Rank1Run(R.char({2: R.INF}), 3, 2, growth), 1),
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_reach_bounds_the_named_values(self, name):
        make, seeds = self.RUNS[name]
        rng = random.Random(f"reach {name}")
        for _ in range(30):
            growth = rng.randint(1, 4)
            run = make(growth)
            for stage in range(rng.randint(1, 30)):
                run.advance(rng.random() < 0.5, rng.random() < 0.5)
                assert len(run.values) <= seeds + (stage + 1) * (2 * growth + 2)

    @pytest.mark.parametrize("growth", [1, 3])
    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_the_last_admitted_stage_count(self, name, growth):
        make, seeds = self.RUNS[name]
        stages = (L.NAMED_BUDGET - seeds) // (2 * growth + 2)
        _, _, ver = make(growth).simulate(T([[0, 0]] * stages))
        assert ver.ok
        with pytest.raises(ValueError, match=f"^budget exhausted: .* above {L.NAMED_BUDGET}$"):
            make(growth).simulate(T([[0, 0]] * (stages + 1)))

    def test_rank_above_the_budget(self):
        with pytest.raises(ValueError, match="budget exhausted"):
            L.run_abelian(L.NAMED_BUDGET, T([[0, 0]]))


class TestRank1:
    CHAR = R.char({2: R.INF})

    def test_settled_h(self):
        _, fc, ver = L.run_rank1(self.CHAR, 3, 2, T([[0, 0]] * 4), growth=1)
        assert fc == R.extend_infinite_at(self.CHAR, 3) and ver.ok

    def test_settled_k(self):
        _, fc, ver = L.run_rank1(self.CHAR, 3, 2, T([[0, 0], [1, 0], [1, 1]]), growth=1)
        assert fc == R.kill_prime_at(self.CHAR, 2) and ver.ok

    def test_hand_traced_unit_moves(self):
        reports, fc, ver = L.run_rank1(self.CHAR, 3, 2,
                                       T([[0, 0], [1, 0], [1, 1]]), growth=1)
        assert ver.ok
        stage0 = set(reports[0].partial_map.values())
        assert stage0 == {Fraction(1), Fraction(1, 3)}
        stage1 = set(reports[1].partial_map.values())
        # the G unit becomes 3^0/3^1 = 1/3 and is divided once by 2
        assert Fraction(1, 6) in stage1
        checks = dict((n, d) for n, _, d in ver.checks)
        assert "1/6" in checks["members-in-final-group"]

    def test_preconditions(self):
        with pytest.raises(ValueError):
            L.run_rank1(self.CHAR, 2, 2, T([[0, 0]]))   # p has infinite exponent
        with pytest.raises(ValueError):
            L.run_rank1(self.CHAR, 3, 5, T([[0, 0]]))   # q has finite exponent

    def test_exhaustive_short_traces(self):
        for trace in all_traces(3):
            _, fc, ver = L.run_rank1(self.CHAR, 3, 2, trace, growth=1)
            s1, s2 = trace.steps[-1]
            if not s1:
                want = R.extend_infinite_at(self.CHAR, 3)
            elif not s2:
                want = self.CHAR
            else:
                want = R.kill_prime_at(self.CHAR, 2)
            assert fc == want and ver.ok, trace.steps

    def test_revisits_account_for_old_divisions(self):
        # an abandoned G phase leaves q-divisible elements; the later K unit
        # must absorb them
        trace = T([[0, 0], [1, 0], [0, 0], [1, 1]])
        _, fc, ver = L.run_rank1(self.CHAR, 3, 2, trace, growth=1)
        assert fc == R.kill_prime_at(self.CHAR, 2) and ver.ok


class TestCofinality:
    CHAR = R.char(default=("linear", 1, 1))

    def test_all_enumerated(self):
        res, ver = L.run_cofinality(self.CHAR, 10, set(range(10)), 60)
        assert res.verdict == "isomorphic" and res.multiplier == 1 and ver.ok

    def test_one_missing_low_index(self):
        res, ver = L.run_cofinality(self.CHAR, 10, set(range(10)) - {2}, 60)
        assert res.verdict == "isomorphic" and ver.ok
        assert res.multiplier == res.a_primes[2]

    def test_evens_only(self):
        res, ver = L.run_cofinality(self.CHAR, 10, {0, 2, 4, 6, 8}, 60)
        assert res.verdict == "not-isomorphic-at-window" and ver.ok
        decremented = [p for p in res.a_primes
                       if res.table[p] == R.exponent(self.CHAR, p) - 1]
        assert len(decremented) == 5

    def test_requires_infinite_pfin(self):
        with pytest.raises(ValueError):
            L.run_cofinality(R.Z_CHAR, 3, set(), 60)

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            L.run_cofinality(self.CHAR, 10, set(), 10)

    @pytest.mark.parametrize("change", ["missed", "enumerated", "outside", "inf"])
    def test_one_wrong_entry_fails_rule_conformance(self, change):
        c = R.char({2: R.INF}, default=("linear", 1, 1))
        w = {0, 1, 3, 4}
        res, ver = L.run_cofinality(c, 5, w, 60)
        assert ver.ok
        p = {"missed": res.a_primes[2], "enumerated": res.a_primes[0],
             "outside": 59, "inf": 2}[change]
        table = dict(res.table)
        table[p] = 5 if table[p] == R.INF else table[p] + 1
        wrong = L.CofinalityResult(table, res.verdict, res.multiplier, res.missed,
                                   res.a_primes)
        ver = L._verify_cofinality(c, wrong, 5, w, 60)
        checks = {name: ok for name, ok, _ in ver.checks}
        assert checks["rule-conformance"] is False and not ver.ok

    def test_wrong_window_primes_fail_rule_conformance(self):
        c = R.char(default=("linear", 1, 1))
        w = {0, 2}
        res, _ = L.run_cofinality(c, 4, w, 60)
        # the same table, credited to window primes shifted by one
        shifted = L.CofinalityResult(res.table, res.verdict, res.multiplier, res.missed,
                                     res.a_primes[1:] + (res.a_primes[0],))
        ver = L._verify_cofinality(c, shifted, 4, w, 60)
        assert dict((n, ok) for n, ok, _ in ver.checks)["rule-conformance"] is False

    def test_non_window_primes_unchanged(self):
        c = R.char({2: R.INF}, default=("linear", 1, 1))
        res, ver = L.run_cofinality(c, 5, {0, 1, 2, 3, 4}, 60)
        assert ver.ok and res.table[2] == R.INF


class TestDiagramMonotonicity:
    def test_across_all_runners(self):
        rng = random.Random(4)
        for _ in range(40):
            steps = [[rng.randint(0, 1), rng.randint(0, 1)]
                     for _ in range(rng.randint(1, 12))]
            trace = T(steps)
            for reports, _, ver in (
                L.run_abelian(2, trace, growth=1),
                L.run_dihedral(trace, growth=1),
                L.run_rank1(R.char({2: R.INF}), 3, 2, trace, growth=1),
            ):
                counts = [r.fact_count for r in reports]
                assert all(a <= b for a, b in zip(counts, counts[1:]))
                assert "stage-soundness" in [name for name, _, _ in ver.checks]
                assert all(ok for _, ok, _ in ver.checks), (steps, ver)


class TestFork:
    RUNS = {
        "abelian k=2": lambda: L._AbelianRun(2, growth=1),
        "abelian k=3": lambda: L._AbelianRun(3, growth=2),
        "dihedral": lambda: L._DihedralRun(growth=1),
        "rank1": lambda: L._Rank1Run(R.char({2: R.INF}), 3, 2, growth=1),
    }

    @staticmethod
    def random_steps(rng, length):
        return [(rng.random() < 0.5, rng.random() < 0.5) for _ in range(length)]

    @staticmethod
    def summary(result):
        reports, final, ver = result
        return list(reports), final, ver.checks

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_fork_continues_independently(self, name):
        make = self.RUNS[name]
        rng = random.Random(f"fork {name}")
        for _ in range(150):
            steps = self.random_steps(rng, rng.randint(1, 10))
            split = rng.randint(0, len(steps))
            run = make()
            for belief in steps[:split]:
                run.advance(*belief)
            twin = run.fork()
            assert twin.used == run.used and twin.used is not run.used
            # the original moves on first, along another suffix
            for belief in self.random_steps(rng, rng.randint(1, 4)):
                run.advance(*belief)
            for belief in steps[split:]:
                twin.advance(*belief)
            got = self.summary(twin.result())
            assert got == self.summary(make().simulate(T(steps))), (name, steps, split)
            kept = (list(twin.reports), list(twin.values), twin.fact_count, dict(twin.used))
            for belief in self.random_steps(rng, rng.randint(1, 4)):
                run.advance(*belief)
            assert (twin.reports, twin.values, twin.fact_count, twin.used) == kept, \
                (name, steps, split)


class TestCompactReports:
    """A report holds a prefix of the run's list of values and one marker per
    inequation block.  Read after the run and its forks have moved on, its
    views still equal the full copies taken as its stage ended."""

    RUNS = {
        "abelian": lambda rng: L._AbelianRun(rng.randint(2, 4), rng.randint(1, 2)),
        "dihedral": lambda rng: L._DihedralRun(rng.randint(1, 2)),
        "rank1": lambda rng: L._Rank1Run(R.char({2: R.INF}), 3, 2, rng.randint(1, 2)),
    }

    @staticmethod
    def advance(run, steps, snapshots: list) -> None:
        """Advance ``run`` through ``steps``, snapshotting each report eagerly:
        a full copy of the shown map, the expanded delta and the count."""
        for belief in steps:
            run.advance(*belief)
            shown = run.values if run.show is None else run.show(run.values)
            report = run.reports[-1]
            snapshots.append((report, dict(enumerate(shown)), report.diagram_delta,
                              report.fact_count))

    @pytest.mark.parametrize("sim", sorted(RUNS))
    def test_views_keep_their_stage(self, sim):
        rng = random.Random(f"compact {sim}")

        def steps(length):
            return [(rng.random() < 0.5, rng.random() < 0.5) for _ in range(length)]

        for length in (1, 2, *(rng.randint(3, 40) for _ in range(8)), 40):
            trace, split = steps(length), rng.randint(0, length)
            run, snapshots = self.RUNS[sim](rng), []
            self.advance(run, trace[:split], snapshots)
            twin = run.fork()
            # the sibling moves on before, while and after the twin runs
            self.advance(run, steps(rng.randint(0, 6)), snapshots)
            self.advance(twin, trace[split:], snapshots)
            self.advance(run, steps(rng.randint(1, 6)), snapshots)
            for report, partial_map, delta, count in snapshots:
                assert report.partial_map == partial_map, (sim, trace, split, report.stage)
                assert report.diagram_delta == delta, (sim, trace, split, report.stage)
                assert report.fact_count == count
            for reports in (run.reports, twin.reports):
                total = 0
                for report in reports:
                    expanded = report.diagram_delta
                    total += len(expanded)
                    assert report.fact_count == total, (sim, trace, split, report.stage)
                    assert bool(report.delta) == bool(expanded)
                    assert list(report.relations()) == [f for f in expanded if f[0] != "neq"]
