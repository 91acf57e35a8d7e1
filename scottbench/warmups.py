"""Fixed warm-up calls of each workload, the same for every seed.

They fill the process caches that do not depend on the workload's inputs,
such as rank1's prime tables up to 2003.  This module imports nothing but
the standard library, so that a set-up sample (``setup_child.py``) costs the
package import and these calls and nothing of the benchmark's own.  The
workload's seeded inputs are warmed by an untimed pass in ``run.py``.
"""

from __future__ import annotations

from fractions import Fraction

# one characteristic per classification row of the paper's table
ROW_CHARS = [
    {"exceptions": {}, "default": "zero"},
    {"exceptions": {}, "default": "inf"},
    {"exceptions": {"7": 2}, "default": "zero"},
    {"exceptions": {}, "default": {"linear": [1, 1]}},
    {"exceptions": {"5": 1}, "default": "inf"},
    {"exceptions": {}, "default": {"residue": [{"linear": [1, 1]}, "inf"]}},
    {"exceptions": {}, "default": {"residue": ["zero", "inf"]}},
    {"exceptions": {}, "default": {"residue": ["zero", {"linear": [1, 1]}]}},
    {"exceptions": {}, "default": {"residue": ["zero", {"linear": [1, 1]}, "inf"]}},
]


def decide(sg) -> None:
    W, D, R = sg.words, sg.dihedral, sg.rank1
    for rank in (2, 3, 4):
        W.is_primitive(W.WordTuple(rank, tuple(W.generator(rank, i) for i in range(rank))))
    R.contains(R.char(default=("linear", 1, 0)), Fraction(1, 2003))
    D.is_generating_pair(D.A, D.B)
    sg.fgab.normalize_torsion((4, 6))


def sentences(sg) -> None:
    F, G = sg.formula, sg.fgab
    emitters = [sg.dihedral.scott_sentence_dinf, lambda: G.scott_sentence_zn(2)]
    for torsion in ((2,), (2, 2)):
        desc = G.FgAbelianDesc(1, torsion)
        emitters += [lambda d=desc: G.scott_sentence_fg_abelian(d),
                     lambda d=desc: G.scott_sentence_sigma3_fg(d)]
    for cj in ROW_CHARS:
        emitters.append(lambda c=sg.rank1.char_from_json(cj): sg.rank1.scott_sentence(c))
    for emit in emitters:
        f = emit()
        F.classify(f)
        F.render(f, "text", 3)


def construct(sg) -> None:
    L, R = sg.limitsim, sg.rank1
    trace = L.ConstructionTrace(((True, False), (False, True), (True, True)))
    L.run_abelian(2, trace, 1)
    L.run_dihedral(trace, 1)
    L.run_rank1(R.char({2: R.INF}), 3, 2, trace, 1)
    L.run_cofinality(R.char(default=("linear", 1, 1)), 4, {0, 1}, 40)
