"""Seeded op lists for the four workloads, with each op's oracle.

An op is a zero-argument call into the package that returns a small digest
of the answer, plus a check of that digest against an answer computed by
``oracle`` (never by the package).  Calls go through module attributes at
call time, so the traced run sees them.  Every op list is stratified: each
stratum has a fixed count and a narrow cost band, and the seed only picks
the instances inside a stratum, so two seeds give the same mix of work.

Inputs stop short of the package's known-slow regions (see README.md): rank-4
tuples keep total length <= 6 and rank >= 5 never occurs; denominators use
primes <= 2003; traces stay at or under 100 stages.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import oracle as O


@dataclass
class Op:
    kind: str                        # stratum name, also the CLI subcommand for `cli`
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    known_defect: bool = False       # wrong today because of a recorded defect


PRIMES = O.Primes(2100)
BASIS_PAIRS = (("a", "b"), ("b", "a"))  # the only D∞ primitive pairs is_primitive_pair accepts

# ---------------------------------------------------------------------------
# Shared input builders
# ---------------------------------------------------------------------------

def random_rule(rng: random.Random):
    kind = rng.choice(("zero", "inf", "linear", "residue"))
    if kind == "linear":
        return {"linear": [rng.randint(0, 2), rng.randint(1, 3)]}
    if kind == "residue":
        subs = [rng.choice(("zero", "inf", {"linear": [1, rng.randint(0, 2)]}))
                for _ in range(rng.randint(2, 3))]
        return {"residue": subs}
    return kind


def random_exceptions(rng: random.Random, count: int, values=(0, 1, 2, 3, "inf"),
                      upto: int = 2003) -> dict:
    primes = rng.sample(PRIMES.between(2, upto), count)
    return {str(p): rng.choice(values) for p in primes}


# One template per classification row: (default rule, exceptions needed?)
ROW_TEMPLATES = {
    "All0": lambda rng: ("zero", 0),
    "AllInf": lambda rng: ("inf", 0),
    1: lambda rng: ("zero", 1),
    2: lambda rng: ({"linear": [rng.randint(1, 2), rng.randint(0, 2)]}, None),
    3: lambda rng: ("inf", 1),
    4: lambda rng: ({"residue": _shuffled(rng, [{"linear": [1, 1]}, "inf"])}, None),
    5: lambda rng: ({"residue": _shuffled(rng, ["zero", "inf"])}, None),
    6: lambda rng: ({"residue": _shuffled(rng, ["zero", {"linear": [1, 1]}])}, None),
    7: lambda rng: ({"residue": _shuffled(rng, ["zero", {"linear": [1, 1]}, "inf"])}, None),
}
# the paper's case table: Pi(2) for Q, d-Sigma(2) when Pfin is finite, else Sigma(3)
RECOMMENDED_EMITTER = {"AllInf": "Pi2", "All0": "dSigma2", 1: "dSigma2", 3: "dSigma2"}
RECOMMENDED_CLASS = {"AllInf": "Pi(2)", "All0": "d-Sigma(2)", 1: "d-Sigma(2)",
                     3: "d-Sigma(2)"}


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def row_char(rng: random.Random, row) -> dict:
    """A characteristic built to land in the given classification row.

    Exceptions sit at primes <= 200: the sentence families walk the primes up
    to each exception, at a cost quadratic in its index.
    """
    default, need = ROW_TEMPLATES[row](rng)
    if need == 0:
        return {"exceptions": {}, "default": default}
    if row == 1:  # a nonzero exception keeps it off the All0 row
        exc = random_exceptions(rng, rng.randint(1, 3), values=(1, 2, "inf"), upto=200)
    elif row == 3:  # a finite exception keeps it off the AllInf row
        exc = random_exceptions(rng, rng.randint(1, 3), values=(0, 1, 2), upto=200)
    else:
        exc = random_exceptions(rng, rng.randint(0, 2), upto=200)
    return {"exceptions": exc, "default": default}


def abelian_shapes(max_order: int) -> list[tuple[int, ...]]:
    """Invariant-factor lists of every abelian group of order 2..max_order."""
    out = []

    def chains(n, smallest):
        if n == 1:
            yield ()
        for d in range(smallest, n + 1):
            if n % d == 0:
                for rest in chains(n // d, d):
                    if not rest or rest[0] % d == 0:
                        yield (d,) + rest

    for order in range(2, max_order + 1):
        out.extend(chains(order, 2))
    return out


def shape_table(shape) -> list[list[int]]:
    if shape[0] == "D":
        return O.dihedral_table(shape[1])
    return O.cyclic_sum_table(shape)


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------

def _moves_digest(moves, W) -> tuple:
    out = []
    for m in moves:
        if isinstance(m, W.Permute):
            out.append(("permute", m.perm))
        elif isinstance(m, W.Invert):
            out.append(("invert", m.i))
        else:
            out.append(("rmul", m.i, m.j))
    return tuple(out)


def _classify_digest(cls) -> tuple:
    return cls.case.row, cls.recommendation


def decide_ops(rng: random.Random, sg) -> list[Op]:
    W, D, R = sg.words, sg.dihedral, sg.rank1
    ops: list[Op] = []

    def tuple_of(rank, words):
        return W.WordTuple(rank, tuple(W.FreeWord(rank, w) for w in words))

    def primitivity(kind, rank, words, want):
        t = tuple_of(rank, words)
        ops.append(Op(kind, lambda: sg.words.is_primitive(t), lambda got: got == want))

    # random tuples: mostly imprimitive, judged by folding
    for rank, count, lengths in ((2, 60, (1, 6)), (3, 40, (1, 3)), (4, 8, (1, 2))):
        for _ in range(count):
            while True:
                words = [O.random_word(rng, rank, rng.randint(*lengths)) for _ in range(rank)]
                if sum(map(len, words)) <= 6 or rank < 4:
                    break
            primitivity(f"primitive-r{rank}-random", rank, words,
                        O.generates_free_group(rank, words))
    # primitive by construction: random Nielsen moves applied to the basis
    moved = []
    for rank, count, nmoves in ((2, 60, 10), (3, 40, 8), (4, 36, 8)):
        for _ in range(count):
            words = O.basis(rank)
            for m in O.random_moves(rng, rank, nmoves):
                words = O.apply_nielsen(words, m)
            if not O.generates_free_group(rank, words):
                raise AssertionError("folding oracle rejected a move-generated basis")
            moved.append((rank, words))
            primitivity(f"primitive-r{rank}-moves", rank, words, True)
    # Nielsen certificates, replayed move by move
    for rank, words in rng.sample([m for m in moved if m[0] < 4], 30):
        t = tuple_of(rank, words)

        def certificate(t=t):
            reduced, moves = sg.words.nielsen_reduce(t)
            return tuple(w.letters for w in reduced.words), _moves_digest(moves, W)

        def replay(got, words=words, rank=rank):
            reduced, moves = got
            at = tuple(words)
            for m in moves:
                at = O.apply_nielsen(at, m)
            return at == reduced and reduced == O.basis(rank)

        ops.append(Op("nielsen-certificate", certificate, replay))

    # D∞ pairs over normal forms of length <= 60
    forms = [""] + [O.alternating(s, n) for n in range(1, 61) for s in "ab"]
    generating = [(u, v) for u in forms for v in forms if O.dinf_generates(u, v)]
    # the strata fix how many pairs are primitive, so every seed has the same
    # count of ops on the known defect: 20 orbit pairs other than (a, b) and
    # (b, a), which is_primitive_pair rejects, and 60 pairs outside the orbit
    primitive = [(u, v) for u, v in generating if O.dinf_primitive(u, v)
                 and (u, v) not in BASIS_PAIRS]
    others = []
    while len(others) < 60:
        u, v = rng.choice(forms), rng.choice(forms)
        if not O.dinf_primitive(u, v):
            others.append((u, v))
    pairs = ([("genpair-random", rng.choice(forms), rng.choice(forms)) for _ in range(60)]
             + [("genpair-generating",) + rng.choice(generating) for _ in range(60)]
             + [("primitive-outside",) + pair for pair in others]
             + [("primitive-orbit",) + rng.choice(primitive) for _ in range(20)])
    for kind, u, v in pairs:
        wu, wv = D.DihedralWord(u), D.DihedralWord(v)
        if kind.startswith("genpair"):
            ops.append(Op(f"dinf-{kind}", lambda a=wu, b=wv: sg.dihedral.is_generating_pair(a, b),
                          lambda got, want=O.dinf_generates(u, v): got == want))
        else:
            want = O.dinf_primitive(u, v)
            ops.append(Op(f"dinf-{kind}", lambda a=wu, b=wv: sg.dihedral.is_primitive_pair(a, b),
                          lambda got, want=want: got == want, known_defect=want))

    # rank-1 membership over every rule kind, primes up to 2003.  The rule
    # kinds come in fixed shares: under a zero rule the first prime factor
    # already answers, which costs a tenth of a full check, so a seeded share
    # of zero rules would move the median op.
    chars = []
    for kind in ["zero"] * 4 + ["inf"] * 12 + ["linear"] * 12 + ["residue"] * 12:
        if kind == "linear":
            rule = {"linear": [rng.randint(1, 2), rng.randint(0, 3)]}
        elif kind == "residue":
            rule = {"residue": [rng.choice(("inf", {"linear": [1, rng.randint(0, 2)]}))
                                for _ in range(rng.randint(2, 3))]}
        else:
            rule = kind
        cj = {"exceptions": random_exceptions(rng, rng.randint(0, 3)), "default": rule}
        chars.append((cj, R.char_from_json(cj)))
    small, large = PRIMES.between(2, 300), PRIMES.between(1000, 2003)
    for i in range(1900):
        cj, c = chars[i % len(chars)]
        den = 1
        for p in rng.sample(small, rng.randint(0, 2)) + rng.sample(large, 6):
            den *= p ** rng.randint(1, 3)
        num = rng.randint(-10**6, 10**6) or 1
        q = Fraction(num, den)
        ops.append(Op("rank1-contains", lambda c=c, q=q: sg.rank1.contains(c, q),
                      lambda got, w=O.char_contains(cj, q.numerator, q.denominator, PRIMES):
                      got == w))
    # isomorphism: finite changes at finite primes keep the class, one
    # finite/infinite swap breaks it
    for i in range(80):
        while True:
            cj, c = rng.choice(chars)
            p = rng.choice(large)
            value = O.char_exponent(cj, p, PRIMES)
            if i % 2 or value != O.INF:
                break
        exc = dict(cj["exceptions"])
        if i % 2 == 0:
            exc[str(p)] = value + rng.randint(1, 5)
            want = True
        else:
            exc[str(p)] = 0 if value == O.INF else "inf"
            want = False
        other = R.char_from_json({"exceptions": exc, "default": cj["default"]})
        ops.append(Op("rank1-iso", lambda a=c, b=other: sg.rank1.is_isomorphic(a, b),
                      lambda got, want=want: got == want))
    for row in list(ROW_TEMPLATES) * 8:
        c = R.char_from_json(row_char(rng, row))
        ops.append(Op("rank1-classify", lambda c=c: _classify_digest(sg.rank1.classify(c)),
                      lambda got, row=row: got == (row, RECOMMENDED_EMITTER.get(row, "Sigma3"))))
    for _ in range(100):
        orders = tuple(rng.randint(2, 60) for _ in range(rng.randint(1, 4)))
        ops.append(Op("fgab-normalize", lambda o=orders: sg.fgab.normalize_torsion(o),
                      lambda got, o=orders: O.torsion_ok(o, got)))
    rng.shuffle(ops)
    return ops



# ---------------------------------------------------------------------------
# sentences
# ---------------------------------------------------------------------------

def sentence_targets(rng: random.Random, sg):
    """(label, emitter, expected class) for every family the paper covers."""
    out = [("dinf", lambda: sg.dihedral.scott_sentence_dinf(), "d-Sigma(2)")]
    for n in (1, 2, 3):
        out.append((f"zn{n}", lambda n=n: sg.fgab.scott_sentence_zn(n), "d-Sigma(2)"))
    for i, torsion in enumerate(((2,), (3,), (2, 2), (4,), (6,))):
        n = 1 + i % 3
        desc = sg.fgab.FgAbelianDesc(n, torsion)
        # the label keeps the torsion order: evaluating T's diagram costs |table|^|T|
        label = f"t{desc.torsion_order()}"
        out.append((f"fg-{label}", lambda d=desc: sg.fgab.scott_sentence_fg_abelian(d),
                    "d-Sigma(2)"))
        out.append((f"sigma3-{label}", lambda d=desc: sg.fgab.scott_sentence_sigma3_fg(d),
                    "Sigma(3)"))
    for row in ROW_TEMPLATES:
        c = sg.rank1.char_from_json(row_char(rng, row))
        out.append((f"rank1-{row}", lambda c=c: sg.rank1.scott_sentence(c),
                    RECOMMENDED_CLASS.get(row, "Sigma(3)")))
    return out


def sentences_ops(rng: random.Random, sg) -> list[Op]:
    ops: list[Op] = []
    targets = sentence_targets(rng, sg)

    def build(emit, bound):
        f = emit()
        cls = sg.formula.classify(f)
        text = sg.formula.render(f, "text", bound)
        latex = sg.formula.render(f, "latex", bound)
        once = sg.formula.dumps(f)
        twice = sg.formula.dumps(sg.formula.loads(once))
        return str(cls), once == twice, bool(text), latex.startswith(r"\[")

    for bound in (3, 5, 8, 10, 13, 15, 18, 20):
        for label, emit, want in targets:
            ops.append(Op("build", lambda e=emit, b=bound: build(e, b),
                          lambda got, want=want: got == (want, True, True, True)))

    # eval ops: finite sentences against tables, and infinite groups'
    # sentences, which no finite table may satisfy exactly.  Table orders stay
    # at or under 12: a finite sentence checked against another group of
    # order 16 backtracks for up to a second.
    shapes = abelian_shapes(12)
    nonabelian = [("D", 3), ("D", 4)]

    def table(shape, pick=rng):
        return O.relabel(shape_table(shape), pick)

    def finite_eval(rows_a, rows_b):
        sentence = sg.fgab.scott_sentence_finite(sg.formula.FiniteStructure.from_table(rows_a))
        return sg.formula.evaluate_exact(sentence, sg.formula.FiniteStructure.from_table(rows_b),
                                         4)

    # every shape against itself, and against another group: one of its own
    # order up to order 8, where the search must exhaust, else one of order <= 4.
    # These pairs and their relabellings are the same for every seed: checking
    # a sentence on a relabelled copy of its own group of order 12 takes from
    # 10 ms to 0.6 s with the labelling, which moved ops_per_s by 15 %.
    fixed = random.Random(0)

    def order(shape):
        return 2 * shape[1] if shape[0] == "D" else math.prod(shape)

    pairs = []
    for a in shapes + nonabelian:
        peers = [b for b in shapes + nonabelian if b != a and
                 (order(b) == order(a) if order(a) <= 8 else order(b) <= 4)]
        pairs += [(a, a), (a, fixed.choice(peers or [b for b in shapes if order(b) <= 4]))]
    for a, b in pairs:
        same = a == b
        ops.append(Op("eval-finite", lambda ra=table(a, fixed), rb=table(b, fixed):
                      finite_eval(ra, rb),
                      lambda got, same=same: got == (same, True),
                      known_defect=same and a[0] == "D"))

    def infinite_eval(emit, rows, bound):
        return sg.formula.evaluate_exact(emit(), sg.formula.FiniteStructure.from_table(rows),
                                         bound)

    # Sigma(3) sentences with torsion order >= 3 and Z^n + T with |T| >= 4 cost
    # |table|^(names) and are left out of evaluation
    cheap = [t for t in targets if t[0] != "dinf" and t[0] not in
             ("sigma3-t3", "fg-t4", "sigma3-t4", "fg-t6", "sigma3-t6")]
    for shape in [(2, 2), (6,), ("D", 3)]:
        for label, emit, _ in cheap:
            ops.append(Op("eval-infinite", lambda e=emit, r=table(shape): infinite_eval(e, r, 6),
                          lambda got: not (got[0] and got[1])))
    # the D∞ sentence sets the tail: fixed shapes of near-equal cost (order 4
    # and 6), in their constructed labelling, since a relabelling moves the
    # cost of this search by a third
    dinf = targets[0][1]
    for shape in [(4,)] * 4 + [(2, 2), (6,)] * 8:
        ops.append(Op("eval-dinf", lambda r=shape_table(shape): infinite_eval(dinf, r, 8),
                      lambda got: not (got[0] and got[1])))
    rng.shuffle(ops)
    return ops



# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

# criterion 7's sample: (characteristic, p with finite exponent, q in Pinf)
RANK1_SAMPLE = [
    ({"exceptions": {"2": "inf"}, "default": "zero"}, 3, 2),
    ({"exceptions": {"2": "inf", "3": 4}, "default": "zero"}, 3, 2),
    ({"exceptions": {"5": "inf"}, "default": "zero"}, 2, 5),
    ({"exceptions": {"2": 0, "3": 5}, "default": "inf"}, 3, 5),
    ({"exceptions": {"7": 0}, "default": "inf"}, 7, 2),
    ({"exceptions": {}, "default": {"residue": [{"linear": [1, 1]}, "inf"]}}, 2, 3),
    ({"exceptions": {}, "default": {"residue": ["zero", "inf"]}}, 2, 3),
    ({"exceptions": {}, "default": {"residue": ["zero", {"linear": [1, 1]}, "inf"]}}, 2, 5),
    ({"exceptions": {"11": 2}, "default": {"residue": ["zero", "inf"]}}, 11, 3),
    ({"exceptions": {"2": 6, "13": "inf"}, "default": "zero"}, 2, 13),
]


def random_trace(rng: random.Random, stages: int) -> tuple:
    return tuple((rng.random() < 0.5, rng.random() < 0.5) for _ in range(stages))


def same_char(got_json: dict, want_json: dict) -> bool:
    return all(O.char_exponent(got_json, p, PRIMES) == O.char_exponent(want_json, p, PRIMES)
               for p in PRIMES.between(2, 2003))


def construct_ops(rng: random.Random, sg) -> list[Op]:
    L, R = sg.limitsim, sg.rank1
    ops: list[Op] = []
    # (simulator, stage range, growth, count): the three long strata cost about
    # the same per op (abelian is shorter because it grows faster) and set the
    # tail; the 28-32 stage strata hold the median.  The long strata are the
    # same for every seed: within one, the cost of a trace ranges over 2x with
    # its pattern, and op_tail_ms falls in the middle of their 20 ops.
    fixed = random.Random(0)
    strata = [("abelian", (78, 82), 1, 8), ("rank1", (96, 100), 1, 6),
              ("dihedral", (96, 100), 1, 6),
              ("abelian", (28, 32), 2, 8), ("rank1", (28, 32), 2, 8),
              ("dihedral", (28, 32), 2, 8),
              ("abelian", (10, 12), 2, 3), ("rank1", (10, 12), 2, 2),
              ("dihedral", (10, 12), 2, 3)]
    for sim, (lo, hi), growth, count in strata:
        pick = fixed if lo >= 78 else rng
        for _ in range(count):
            steps = random_trace(pick, pick.randint(lo, hi))
            trace = L.ConstructionTrace(steps)
            s1, s2 = steps[-1]
            if sim == "abelian":
                k = pick.choice((2, 3))
                want = f"Z{k - 1 + s1 + (s1 and s2)}"
                call = (lambda k=k, t=trace, g=growth:
                        _sim_digest(sg.limitsim.run_abelian(k, t, g)))
                check = (lambda got, want=want: got == (True, want))
            elif sim == "dihedral":
                want = "H" if not s1 else ("Dinf" if not s2 else "FiniteFragment")
                call = (lambda t=trace, g=growth:
                        _sim_digest(sg.limitsim.run_dihedral(t, g)))
                check = (lambda got, want=want: got == (True, want))
            else:
                cj, p, q = pick.choice(RANK1_SAMPLE)
                exc = dict(cj["exceptions"])
                if not s1:
                    exc[str(p)] = "inf"
                elif s2:
                    exc[str(q)] = 0
                want = {"exceptions": exc, "default": cj["default"]}
                c = R.char_from_json(cj)
                call = (lambda c=c, p=p, q=q, t=trace, g=growth: _rank1_digest(
                    sg.rank1, sg.limitsim.run_rank1(c, p, q, t, g)))
                check = (lambda got, want=want: got[0] and got[1]["default"] == want["default"]
                         and same_char(got[1], want))
            ops.append(Op(f"sim-{sim}-{lo}", call, check))
    base = R.char_from_json({"exceptions": {}, "default": {"linear": [1, 1]}})
    for _ in range(12):
        m = rng.randint(10, 40)
        bound = rng.randint(min(10 * m, 400), 400)
        w = {i for i in range(m) if rng.random() < 0.7}
        want = _cofinality_oracle({"exceptions": {}, "default": {"linear": [1, 1]}}, m, w)
        ops.append(Op("sim-cofinality",
                      lambda m=m, w=w, b=bound: _cof_digest(sg.limitsim.run_cofinality(base, m,
                                                                                       w, b)),
                      lambda got, want=want: got == (True,) + want))
    rng.shuffle(ops)
    return ops


def _sim_digest(result) -> tuple:
    _, tag, verification = result
    return verification.ok, tag


def _rank1_digest(R, result) -> tuple:
    _, final_char, verification = result
    return verification.ok, R.char_to_json(final_char)


def _cof_digest(result) -> tuple:
    res, verification = result
    return (verification.ok, res.verdict, res.multiplier, res.a_primes,
            tuple(res.table[p] for p in res.a_primes))


def _cofinality_oracle(cj: dict, m: int, w: set) -> tuple:
    a_primes = []
    for p in PRIMES.list:
        v = O.char_exponent(cj, p, PRIMES)
        if v != O.INF and v > 0:
            a_primes.append(p)
        if len(a_primes) == m:
            break
    missed = [k for k in range(m) if k not in w]
    verdict = "isomorphic" if not missed or max(missed) < m // 2 else "not-isomorphic-at-window"
    multiplier = 1
    for k in missed:
        multiplier *= a_primes[k]
    table = tuple(O.char_exponent(cj, p, PRIMES) - (0 if k in w else 1)
                  for k, p in enumerate(a_primes))
    return verdict, multiplier, tuple(a_primes), table


# ---------------------------------------------------------------------------
# cli: one subprocess per call
# ---------------------------------------------------------------------------

def cli_calls(rng: random.Random, invoke: Callable[[list[str]], dict]) -> list[Op]:
    """The cli workload's op list: six rounds of 14 subcommands covering
    words, dinf, fgab, q, formula and sim, each round with its own seeded
    inputs.  The 18 ``q member`` calls cost most, and op_tail_ms, with 10
    calls beyond it, falls in the middle of them.  Each op hands its
    argument list to ``invoke``, which returns the payload the subcommand
    prints."""
    return [op for _ in range(6) for op in cli_round(rng, invoke)]


def cli_round(rng: random.Random, invoke) -> list[Op]:
    calls: list[Op] = []

    def cli_op(kind, argv, check, known_defect=False):
        return Op(kind, lambda: invoke(argv), check, known_defect)

    def word_text(w):
        return "".join("abc"[g] + ("" if e == 1 else "^-1") for g, e in w) or "1"

    words = O.basis(3)
    for m in O.random_moves(rng, 3, 8):
        words = O.apply_nielsen(words, m)
    calls.append(cli_op("words.primitive",
                        ["words", "primitive", "--rank", "3"] + [word_text(w) for w in words],
                        lambda out: out["primitive"] is True))
    pair = [O.random_word(rng, 2, rng.randint(1, 5)) for _ in range(2)]
    calls.append(cli_op("words.nielsen-reduce",
                        ["words", "nielsen-reduce", "--rank", "2"] + [word_text(w) for w in pair],
                        lambda out, want=O.generates_free_group(2, pair):
                        out["primitive"] is want))
    forms = [O.alternating(s, n) for n in range(1, 41) for s in "ab"]
    u, v = rng.choice(forms), rng.choice(forms)
    calls.append(cli_op("dinf.genpair", ["dinf", "genpair", u, v],
                        lambda out, want=O.dinf_generates(u, v): out["generating"] is want))
    # an orbit pair other than (a, b) and (b, a): the known defect, once a round
    u, v = rng.choice([(x, y) for x in forms for y in forms if O.dinf_primitive(x, y)
                       and (x, y) not in BASIS_PAIRS])
    calls.append(cli_op("dinf.primitive", ["dinf", "primitive", u, v],
                        lambda out: out["primitive"] is True, known_defect=True))
    calls.append(cli_op("dinf.scott", ["dinf", "scott"],
                        lambda out: out["class"] == "d-Sigma(2)"))
    orders = [rng.randint(2, 60) for _ in range(3)]
    calls.append(cli_op("fgab.normalize", ["fgab", "normalize"] + [str(o) for o in orders],
                        lambda out, o=orders: O.torsion_ok(o, out["invariant_factors"])))
    calls.append(cli_op("fgab.scott", ["fgab", "scott", "--rank", str(rng.randint(1, 3)),
                                       "--torsion", rng.choice(("2", "3", "2,2", ""))],
                        lambda out: out["class"] == "d-Sigma(2)"))
    # cold prime tables: a denominator prime in 1980..2003, where rebuilding the
    # tables costs most and varies least between seeds
    for lo, hi in ((1980, 2003),) * 3:
        cj = {"exceptions": random_exceptions(rng, 1), "default": random_rule(rng)}
        p = rng.choice(PRIMES.between(lo, hi))
        num = rng.choice((1, 3, 7, 11))
        calls.append(cli_op("q.member", ["q", "member", json.dumps(cj), f"{num}/{p}"],
                            lambda out, w=O.char_contains(cj, num, p, PRIMES):
                            out["contains"] is w))
    row = rng.choice(list(ROW_TEMPLATES))
    cj = row_char(rng, row)
    calls.append(cli_op("q.classify", ["q", "classify", json.dumps(cj)],
                        lambda out, row=row: out["row"] == row))
    row = rng.choice(list(ROW_TEMPLATES))
    calls.append(cli_op("q.scott", ["q", "scott", json.dumps(row_char(rng, row))],
                        lambda out, w=RECOMMENDED_CLASS.get(row, "Sigma(3)"): out["class"] == w))
    # "every element has order dividing n" holds exactly when the group's
    # exponent, its largest invariant factor, divides n
    shape = rng.choice(abelian_shapes(12))
    n = rng.randint(2, 24)
    sentence = {"t": "all", "vars": ["x"],
                "body": {"t": "atom", "lhs": {"lin": [["x", n]]}, "rhs": {"lin": []}}}
    table = json.dumps({"table": O.relabel(shape_table(shape), rng)})
    calls.append(cli_op("formula.eval", ["formula", "eval", "--table", table,
                                         json.dumps(sentence)],
                        lambda out, w=n % shape[-1] == 0: out == {"truth": w, "exact": True}))
    steps = random_trace(rng, rng.randint(25, 35))
    s1, s2 = steps[-1]
    k = rng.choice((2, 3))
    bits = ",".join(f"{int(a)}{int(b)}" for a, b in steps)
    calls.append(cli_op("sim.abelian", ["sim", "abelian", "--k", str(k), "--trace", bits],
                        lambda out, w=f"Z{k - 1 + s1 + (s1 and s2)}": out["final"] == w
                        and out["verification"]["ok"]))
    return calls
