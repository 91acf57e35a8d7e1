"""The package's acceptance checks, shared by the test suite and the CLI.

Each criterion returns (ok, detail).  Oracles here are deliberately
independent of the code paths they judge: primitivity is checked against a
breadth-first closure of the move graph, dihedral generation against
semidirect-product arithmetic, finite Scott sentences against brute-force
isomorphism (the non-abelian tables built here from permutation and matrix
products), and the simulators against their own recorded diagrams.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import deque

from . import dihedral as D
from . import fgab
from . import formula as F
from . import limitsim as L
from . import rank1 as R
from . import words as W


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def primitive_closure(rank: int, max_total: int) -> set:
    """All primitive tuples of total length <= max_total, by breadth-first
    closure of the elementary-move graph from the identity basis."""
    moves = W.all_moves(rank)
    start = W.WordTuple(rank, tuple(W.generator(rank, i) for i in range(rank)))
    seen = {start.key()}
    queue = deque([start])
    while queue:
        t = queue.popleft()
        for m in moves:
            c = W.apply_move(t, m)
            if c.total_length() <= max_total and c.key() not in seen:
                seen.add(c.key())
                queue.append(c)
    return seen


def all_reduced_words(rank: int, max_len: int) -> list[W.FreeWord]:
    out = [W.identity_word(rank)]
    frontier = out[:]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for g in range(rank):
                for e in (1, -1):
                    if w.letters and w.letters[-1] == (g, -e):
                        continue
                    nxt.append(W.FreeWord(rank, w.letters + ((g, e),)))
        out.extend(nxt)
        frontier = nxt
    return out


def group_table(gens: list, mul) -> F.FiniteStructure:
    """Operation table of the finite group that ``gens`` generate under
    ``mul``, elements numbered in the order the closure reaches them."""
    elements = list(gens)
    index = {g: i for i, g in enumerate(elements)}
    for a in elements:  # the list grows as the closure reaches new elements
        for g in gens:
            c = mul(a, g)
            if c not in index:
                index[c] = len(elements)
                elements.append(c)
    return F.FiniteStructure.from_table([[index[mul(a, b)] for b in elements]
                                         for a in elements])


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[k] for k in q)


def dihedral_group(n: int) -> F.FiniteStructure:
    """D_n, of order 2n: the symmetries of an n-gon, as permutations of its vertices."""
    return group_table([tuple((k + 1) % n for k in range(n)),
                        tuple(-k % n for k in range(n))], _compose)


def dicyclic_group(n: int, p: int, root: int) -> F.FiniteStructure:
    """Dic_n, of order 4n, as 2x2 matrices over Z/p: diag(r, 1/r) for a
    ``root`` r of order 2n mod p, and [[0, 1], [-1, 0]]."""
    def mul(x, y):
        (a, b), (c, d) = x
        (e, f), (g, h) = y
        return (((a * e + b * g) % p, (a * f + b * h) % p),
                ((c * e + d * g) % p, (c * f + d * h) % p))
    return group_table([((root, 0), (0, pow(root, -1, p))), ((0, 1), (p - 1, 0))], mul)


def nonabelian_tables() -> list[tuple[str, F.FiniteStructure]]:
    """The non-abelian groups of order <= 12, by name: D3..D6, Q8, A4, Dic3."""
    return [("D3", dihedral_group(3)), ("D4", dihedral_group(4)), ("Q8", dicyclic_group(2, 5, 2)),
            ("D5", dihedral_group(5)), ("D6", dihedral_group(6)),
            ("A4", group_table([(1, 2, 0, 3), (1, 0, 3, 2)], _compose)),
            ("Dic3", dicyclic_group(3, 7, 3))]


def relabel(t: F.FiniteStructure, rng: random.Random) -> F.FiniteStructure:
    """An isomorphic copy of ``t`` under a random renaming of its elements."""
    perm = list(range(t.size))
    rng.shuffle(perm)
    rows = [[0] * t.size for _ in range(t.size)]
    for a in range(t.size):
        for b in range(t.size):
            rows[perm[a]][perm[b]] = perm[t.op[a][b]]
    return F.FiniteStructure.from_table(rows)


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def criterion_words_oracle(max_total: int = 8) -> tuple[bool, str]:
    """1: primitivity decision agrees with the BFS closure on all F2 pairs."""
    t0 = time.time()
    closure = primitive_closure(2, max_total)
    by_len: dict[int, list[W.FreeWord]] = {}
    for w in all_reduced_words(2, max_total):
        by_len.setdefault(len(w), []).append(w)
    checked = disagreements = 0
    for l1 in range(max_total + 1):
        for l2 in range(max_total + 1 - l1):
            for w1 in by_len[l1]:
                for w2 in by_len[l2]:
                    t = W.WordTuple(2, (w1, w2))
                    if W.is_primitive(t) != (t.key() in closure):
                        disagreements += 1
                    checked += 1
    detail = f"{checked} pairs, {disagreements} disagreements, {time.time()-t0:.1f}s"
    return disagreements == 0, detail


def criterion_dinf_oracle(max_len: int = 10) -> tuple[bool, str]:
    """2: generation and primitivity decisions agree with semidirect-product
    arithmetic; a pair is primitive exactly when it generates and both of its
    elements are reflections."""
    t0 = time.time()
    forms = [D.nth_normal_form(i) for i in range(2 * max_len + 1)]
    disagreements = 0
    primitive_mismatches = 0
    primitive_count = 0
    for u in forms:
        for v in forms:
            generating = D.oracle_is_generating_pair(u, v)
            if D.is_generating_pair(u, v) != generating:
                disagreements += 1
            primitive = D.is_primitive_pair(u, v)
            primitive_count += primitive
            if primitive != (generating and D.to_element(u).flip and D.to_element(v).flip):
                primitive_mismatches += 1
    detail = (f"{len(forms)**2} pairs, {disagreements} generation disagreements, "
              f"{primitive_mismatches} primitivity disagreements, "
              f"{primitive_count} primitive pairs, {time.time()-t0:.1f}s")
    return disagreements == 0 and primitive_mismatches == 0, detail


def criterion_finite_scott(max_order: int = 12) -> tuple[bool, str]:
    """3: the finite sentence is true exactly on the isomorphism class.

    The sentence of every group of order <= ``max_order`` (the abelian ones
    and D3, D4, D5, D6, Q8, A4, Dic3) is evaluated on a relabelled copy of
    every group of order <= ``max_order + 1``: it must hold on its own group
    and fail on every other, and the isomorphism oracle must agree that the
    listed classes are pairwise distinct."""
    t0 = time.time()
    classes = [(str(factors), t) for factors, t in fgab.abelian_tables_upto(max_order + 1)]
    classes += [(name, t) for name, t in nonabelian_tables() if t.size <= max_order]
    rng = random.Random(20160301)
    targets = [(name, relabel(t, rng)) for name, t in classes]
    mismatches = evaluations = 0
    for name1, t1 in classes:
        if t1.size > max_order:
            continue
        sentence = fgab.scott_sentence_finite(t1)
        for name2, t2 in targets:
            same = name1 == name2
            truth, exact = F.evaluate_exact(sentence, t2, 4)
            evaluations += 1
            if (truth, exact) != (same, True) or fgab.tables_isomorphic(t1, t2) != same:
                mismatches += 1
    detail = (f"{len(classes)} classes, {evaluations} evaluations, "
              f"{mismatches} mismatches, {time.time()-t0:.1f}s")
    return mismatches == 0, detail


def criterion_classifier() -> tuple[bool, str]:
    """4: the six named sentences classify exactly as stated."""
    cases = [
        ("generating-tuple Sigma3", fgab.scott_sentence_sigma3_fg(fgab.FgAbelianDesc(2, (2,))),
         ("Sigma", 3)),
        ("rank1 Sigma3", R.scott_sentence_sigma3(R.Z_CHAR), ("Sigma", 3)),
        ("Zn d-Sigma2", fgab.scott_sentence_zn(2), ("DSigma", 2)),
        ("fg-abelian d-Sigma2", fgab.scott_sentence_fg_abelian(fgab.FgAbelianDesc(1, (2,))),
         ("DSigma", 2)),
        ("dihedral d-Sigma2", D.scott_sentence_dinf(), ("DSigma", 2)),
        ("rationals Pi2", R.scott_sentence_rationals(), ("Pi", 2)),
    ]
    failures = []
    for name, sentence, want in cases:
        got = F.classify(sentence)
        if (got.kind, got.level) != want:
            failures.append(f"{name}: got {got}")
    return not failures, f"{len(cases) - len(failures)}/{len(cases)} exact" + \
        (f"; {failures}" if failures else "")


ROW_EXAMPLES: dict[int | str, R.Rank1Char] = {
    "All0": R.Z_CHAR,
    "AllInf": R.Q_CHAR,
    1: R.char({2: R.INF}),
    2: R.char(default=("linear", 1, 0)),
    3: R.char({2: 0, 3: 5}, default=R.INF_RULE),
    4: R.char(default=("residue", (("linear", 1, 1), R.INF_RULE))),
    5: R.char(default=("residue", (R.ZERO_RULE, R.INF_RULE))),
    6: R.char(default=("residue", (R.ZERO_RULE, ("linear", 1, 1)))),
    7: R.char(default=("residue", (R.ZERO_RULE, ("linear", 1, 1), R.INF_RULE))),
}

_ROW_BOUNDS = {
    1: ("dSigma02", "dSigma02"), 2: ("Sigma03", "Sigma03"),
    3: ("dSigma02", "dSigma02"), 4: ("dSigma02", "Sigma03"),
    5: ("dSigma02", "Sigma03"), 6: ("Sigma03", "Sigma03"),
    7: ("dSigma02", "Sigma03"),
    "All0": ("dSigma02", "dSigma02"), "AllInf": ("Pi02", "Pi02"),
}


def criterion_rank1_table() -> tuple[bool, str]:
    """5: classification reproduces the seven rows plus both degenerate cases."""
    failures = []
    for row, c in ROW_EXAMPLES.items():
        cls = R.classify(c)
        if cls.case.row != row or (cls.lower, cls.upper) != _ROW_BOUNDS[row]:
            failures.append(f"row {row}: got {cls.case.row} {cls.lower}/{cls.upper}")
    return not failures, f"{len(ROW_EXAMPLES) - len(failures)}/9 rows exact" + \
        (f"; {failures}" if failures else "")


def _final_abelian_tag(k: int, s1: bool, s2: bool) -> str:
    return f"Z{(k - 1) + (1 if s1 else 0) + (1 if s1 and s2 else 0)}"


def _final_rank1_char(c, p, q, s1: bool, s2: bool):
    if not s1:
        return R.extend_infinite_at(c, p)
    return c if not s2 else R.kill_prime_at(c, q)


_BELIEFS = tuple(itertools.product([False, True], repeat=2))


def _walk_traces(run, length: int, steps: tuple = ()):
    """Every continuation of ``run`` by ``length`` more stages, depth first:
    yields (steps, run at the leaf).  Each prefix is advanced once and
    continued in forks, the last child reusing the run itself."""
    for i, belief in enumerate(_BELIEFS):
        child = run if i == len(_BELIEFS) - 1 else run.fork()
        child.advance(*belief)
        if length == 1:
            yield steps + (belief,), child
        else:
            yield from _walk_traces(child, length - 1, steps + (belief,))


def criterion_construction_sweep(exhaustive_len: int = 7,
                                 samples: int = 200) -> tuple[bool, str]:
    """6: soundness sweep — every trace of length ``exhaustive_len`` for the
    abelian (k = 2, 3) and rank-1 simulators (4^len traces = 2^14 at len 7),
    walked as a tree through the same ``advance`` the CLI runs; randomized
    samples for the dihedral and cofinality ones."""
    t0 = time.time()
    failures = []
    c = R.char({2: R.INF})
    runs = 0
    for k in (2, 3):
        for steps, run in _walk_traces(L._AbelianRun(k, growth=1), exhaustive_len):
            runs += 1
            _, tag, ver = run.result()
            if not ver.ok or tag != _final_abelian_tag(k, *steps[-1]):
                failures.append(f"abelian k={k} {steps}")
    for steps, run in _walk_traces(L._Rank1Run(c, 3, 2, growth=1), exhaustive_len):
        runs += 1
        _, fc, ver = run.result()
        if not ver.ok or fc != _final_rank1_char(c, 3, 2, *steps[-1]):
            failures.append(f"rank1 {steps}")
    rng = random.Random(20130905)
    case2 = R.char(default=("linear", 1, 1))
    for _ in range(samples):
        length = rng.randint(1, 12)
        trace = L.ConstructionTrace(tuple((rng.random() < 0.5, rng.random() < 0.5)
                                          for _ in range(length)))
        reports, tag, ver = L.run_dihedral(trace, growth=rng.randint(1, 2))
        if not ver.ok:
            failures.append(f"dihedral {trace.steps}")
        m = rng.randint(1, 12)
        w = {k for k in range(m) if rng.random() < 0.7}
        res, ver = L.run_cofinality(case2, m, w, 60)
        if not ver.ok:
            failures.append(f"cofinality m={m} w={sorted(w)}")
    detail = (f"{runs} exhaustive runs + {2 * samples} sampled, "
              f"{len(failures)} failures, {time.time()-t0:.1f}s")
    return not failures, detail


def criterion_derived_separation() -> tuple[bool, str]:
    """7: H, G, K are pairwise non-isomorphic for sampled characteristics."""
    sample = [
        (R.char({2: R.INF}), 3, 2),
        (R.char({2: R.INF, 3: 4}), 3, 2),
        (R.char({5: R.INF}), 2, 5),
        (R.char({2: 0, 3: 5}, default=R.INF_RULE), 3, 5),
        (R.char({7: 0}, default=R.INF_RULE), 7, 2),
        (R.char(default=("residue", (("linear", 1, 1), R.INF_RULE))), 2, 3),
        (R.char(default=("residue", (R.ZERO_RULE, R.INF_RULE))), 2, 3),
        (R.char(default=("residue", (R.ZERO_RULE, ("linear", 1, 1), R.INF_RULE))), 2, 5),
        (R.char({11: 2}, default=("residue", (R.ZERO_RULE, R.INF_RULE))), 11, 3),
        (R.char({2: 6, 13: R.INF}), 2, 13),
    ]
    checks = failures = 0
    for c, p, q in sample:
        if R.exponent(c, p) == R.INF or R.exponent(c, q) != R.INF:
            failures += 1
            continue
        h = R.extend_infinite_at(c, p)
        k = R.kill_prime_at(c, q)
        for x, y in ((h, c), (c, k), (h, k)):
            checks += 1
            if R.is_isomorphic(x, y):
                failures += 1
    return failures == 0, f"{checks} pairwise checks, {failures} failures"


ALL_CRITERIA = [
    ("words-primitivity-oracle", criterion_words_oracle),
    ("dinf-generation-oracle", criterion_dinf_oracle),
    ("finite-scott-sentences", criterion_finite_scott),
    ("classifier-conformance", criterion_classifier),
    ("rank1-case-table", criterion_rank1_table),
    ("construction-soundness", criterion_construction_sweep),
    ("derived-structure-separation", criterion_derived_separation),
]


def run_all(report=print) -> bool:
    ok_all = True
    for name, fn in ALL_CRITERIA:
        ok, detail = fn()
        ok_all = ok_all and ok
        report(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return ok_all
