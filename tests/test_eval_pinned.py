"""Byte-for-byte regression of `formula.evaluate_exact` results.

A fixed list of emitted Scott sentences is evaluated on every group of
order at most 6 at family bounds 1, 2, 5 and 8; the sha256 of every
`(truth, exact)` result or error message, in order, is pinned.  The digest
was computed at commit b0d9544, whose evaluator still walked each formula
node by node through an `isinstance` dispatch and evaluated every atom
term by term, so it pins the compiled evaluator to that implementation's
answers, exactness flags included.  It was recomputed once, when the rank-1
Sigma(3) sentence gained its x1 ≠ 0 conjunct, on commit fa1fce0 with only
that conjunct added.
"""

import hashlib

from scottgroups import acceptance
from scottgroups import dihedral as D
from scottgroups import fgab
from scottgroups import formula as F
from scottgroups import rank1 as R

PINNED_SHA256 = "2859c5595ab381208ffa5f91cb846faf11c83ebe0f1cc7e88b79ff026f6710ae"

BOUNDS = (1, 2, 5, 8)

# the invariant factors of every abelian group of order <= 8
ABELIAN_ORDER_8 = [(), (2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4), (2, 2, 2)]


def groups_of_order_8():
    """Every group of order at most 8, up to isomorphism."""
    return ([fgab.table_from_invariant_factors(shape) for shape in ABELIAN_ORDER_8]
            + [acceptance.dihedral_group(3), acceptance.dihedral_group(4),
               acceptance.dicyclic_group(2, 5, 2)])


def sentences():
    out = [D.scott_sentence_dinf()]
    out += [fgab.scott_sentence_zn(n) for n in (1, 2, 3)]
    for torsion in ((2,), (2, 2)):
        desc = fgab.FgAbelianDesc(1, torsion)
        out += [fgab.scott_sentence_fg_abelian(desc), fgab.scott_sentence_sigma3_fg(desc)]
    # one characteristic per recommendation: Pi(2), d-Sigma(2) and Sigma(3)
    out += [R.scott_sentence(c) for c in (R.Q_CHAR, R.Z_CHAR, R.char({2: R.INF, 5: 1}),
                                          R.char(default=("linear", 1, 1)))]
    out += [fgab.scott_sentence_finite(t) for t in groups_of_order_8()]
    return out


def tables():
    """Every group of order at most 6: the abelian ones and D3."""
    return ([fgab.table_from_invariant_factors(shape) for shape in ABELIAN_ORDER_8[:7]]
            + [acceptance.dihedral_group(3)])


def result_digest() -> str:
    digest = hashlib.sha256()
    for f in sentences():
        for s in tables():
            for bound in BOUNDS:
                try:
                    line = repr(F.evaluate_exact(f, s, bound))
                except ValueError as exc:
                    line = f"error {exc}"
                digest.update(f"{line}\n".encode())
    return digest.hexdigest()


def test_evaluation_results_are_pinned():
    assert len(sentences()) == 26 and len(tables()) == 8
    assert result_digest() == PINNED_SHA256
