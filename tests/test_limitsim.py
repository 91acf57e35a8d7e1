import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from scottgroups import dihedral as D
from scottgroups import limitsim as L
from scottgroups import rank1 as R

T = L.ConstructionTrace.from_bits


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
        monkeypatch.setattr(L, "_squash", lambda v, coord, m: v[:coord] + v[coord + 1:])
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


class TestIntegerArithmetic:
    def test_dihedral_product_matches_dihedral_element(self):
        rng = random.Random(23)

        def dyadic():
            t = Fraction(rng.randint(-200, 200), 2 ** rng.randint(0, 8))
            return D.DihedralElement(t, rng.random() < 0.5)

        for _ in range(3000):
            x, y = dyadic(), dyadic()
            got = L._dmul(L._triple(x), L._triple(y))
            assert got == L._triple(x * y)
            assert L._element(got) == x * y

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
            ratio = x / y
            want = int(ratio) if ratio.denominator == 1 and ratio > 1 else 0
            assert L._scale_factor(x.numerator, x.denominator,
                                   y.numerator, y.denominator) == want
            run.values = {0: (y.numerator, y.denominator), 1: (x.numerator, x.denominator)}
            for m in (-2, 1, 2, 3, want):
                assert run.holds_relation(("scale", m, 0, 1)) == (m * y == x)


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
        assert len(run.facts) == count
        assert run.facts == [f for r in run.reports for f in r.diagram_delta]
        assert not any(f[0] == "neq" for f in run._seen)
        assert run._seen == {f for f in run.facts if f[0] != "neq"}
        # every inequation names the newest of its two constants last
        assert all(f[1] < f[2] for f in run.facts if f[0] == "neq")

    @pytest.mark.parametrize("name", ["abelian", "rank1"])
    def test_final_replay_checks_inequations(self, name):
        make, _ = self.RUNS[name]
        run = make()
        run.simulate(self.TRACE)
        assert run.replay()
        # with every sum and scale fact passing, only an inequation can fail
        run.holds_relation = lambda fact: True
        _, i, j = next(f for f in run.facts if f[0] == "neq")
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
        assert reports[-1].partial_map == {c: Fraction(n, d) for c, (n, d) in run.values.items()}
        assert all(d > 0 and gcd(n, d) == 1 for n, d in run.values.values())


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
            # the original moves on first, along another suffix
            for belief in self.random_steps(rng, rng.randint(1, 4)):
                run.advance(*belief)
            for belief in steps[split:]:
                twin.advance(*belief)
            got = self.summary(twin.result())
            assert got == self.summary(make().simulate(T(steps))), (name, steps, split)
            kept = (list(twin.reports), dict(twin.values), list(twin.facts))
            for belief in self.random_steps(rng, rng.randint(1, 4)):
                run.advance(*belief)
            assert (twin.reports, twin.values, twin.facts) == kept, (name, steps, split)
