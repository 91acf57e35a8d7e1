"""Command-line entry point.

One binary, a subcommand tree, JSON payloads on stdout, diagnostics on
stderr.  Exit codes: 0 success, 1 domain error (an operation rejected its
input), 2 usage error.  Structured arguments (characteristics, tables,
traces, formulas) are inline JSON, ``@path`` to read a file, or ``-`` for
stdin.

Each handler imports the modules it uses when it runs, so a call loads
only what its subcommand needs.
"""

from __future__ import annotations

import argparse
import json
import sys


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _read_structured(arg: str):
    if arg == "-":
        return json.load(sys.stdin)
    if arg.startswith("@"):
        with open(arg[1:], encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(arg)


def _read_table(arg: str) -> tuple[dict, object]:
    """A {"table": [[...], ...]} argument: the decoded object and its group."""
    from . import formula as F
    data = _read_structured(arg)
    rows = data.get("table") if isinstance(data, dict) else None
    if not isinstance(rows, list) or not all(
            isinstance(r, list) and all(isinstance(x, int) for x in r) for r in rows):
        raise ValueError(f'a table is a JSON object {{"table": [[int, ...], ...]}}, got {data!r}')
    return data, F.FiniteStructure.from_table(rows)


def _read_trace(arg: str):
    """Accept {"steps": [[1,0], ...]} JSON or the compact form "10,00,11"."""
    from . import limitsim as L
    if arg.lstrip().startswith("{") or arg == "-" or arg.startswith("@"):
        return L.trace_from_json(_read_structured(arg))
    steps = []
    for chunk in arg.split(","):
        chunk = chunk.strip()
        if len(chunk) != 2 or any(ch not in "01" for ch in chunk):
            raise ValueError(f"trace chunk {chunk!r} is not two bits")
        steps.append([int(chunk[0]), int(chunk[1])])
    return L.ConstructionTrace.from_bits(steps)


def _formula_payload(f, args) -> dict:
    from . import formula as F
    cls = F.classify(f)
    payload = {"class": str(cls), "kind": cls.kind, "level": cls.level}
    if getattr(args, "latex", False):
        payload["latex"] = F.render(f, "latex", args.family_bound)
    else:
        payload["formula"] = F.to_json_dict(f)
        payload["text"] = F.render(f, "text", args.family_bound)
    return payload


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

def _cmd_words_reduce(args) -> dict:
    from . import words as W
    w = W.parse_word(args.word, args.rank)
    return {"word": W.format_word(w), **W.word_to_json(w)}


def _cmd_words_primitive(args) -> dict:
    from . import words as W
    t = W.word_tuple(args.rank, *args.words)
    return {"primitive": W.is_primitive(t)}


def _move_json(m) -> dict:
    from . import words as W
    if isinstance(m, W.Permute):
        return {"kind": "permute", "perm": list(m.perm)}
    if isinstance(m, W.Invert):
        return {"kind": "invert", "i": m.i}
    return {"kind": "right-multiply", "i": m.i, "j": m.j}


def _cmd_words_nielsen(args) -> dict:
    from . import words as W
    t = W.word_tuple(args.rank, *args.words)
    reduced, moves = W.nielsen_reduce(t)
    return {"tuple": [W.format_word(w) for w in reduced.words],
            "moves": [_move_json(m) for m in moves],
            "primitive": W.is_basis(reduced)}


# ---------------------------------------------------------------------------
# dinf
# ---------------------------------------------------------------------------

def _cmd_dinf_normalize(args) -> dict:
    from . import dihedral as D
    return {"word": D.normalize(args.word).letters}


def _cmd_dinf_genpair(args) -> dict:
    from . import dihedral as D
    return {"generating": D.is_generating_pair(D.normalize(args.w1), D.normalize(args.w2))}


def _cmd_dinf_primitive(args) -> dict:
    from . import dihedral as D
    return {"primitive": D.is_primitive_pair(D.normalize(args.w1), D.normalize(args.w2))}


def _cmd_dinf_scott(args) -> dict:
    from . import dihedral as D
    return _formula_payload(D.scott_sentence_dinf(), args)


# ---------------------------------------------------------------------------
# fgab
# ---------------------------------------------------------------------------

def _cmd_fgab_normalize(args) -> dict:
    from . import fgab
    return {"invariant_factors": list(fgab.normalize_torsion(tuple(args.orders)))}


def _cmd_fgab_scott(args) -> dict:
    from . import fgab
    torsion = tuple(int(x) for x in args.torsion.split(",")) if args.torsion else ()
    desc = fgab.FgAbelianDesc(args.rank, fgab.normalize_torsion(torsion) if torsion else ())
    if args.rank == 0:
        sentence = fgab.scott_sentence_finite(
            fgab.table_from_invariant_factors(desc.invariant_factors))
    elif args.sigma3:
        sentence = fgab.scott_sentence_sigma3_fg(desc)
    else:
        sentence = fgab.scott_sentence_fg_abelian(desc) if desc.invariant_factors \
            else fgab.scott_sentence_zn(desc.rank)
    return _formula_payload(sentence, args)


def _cmd_fgab_scott_finite(args) -> dict:
    from . import fgab
    data, table = _read_table(args.table)
    try:
        order = int(data.get("order", table.size))
    except TypeError:
        raise ValueError(f"declared order {data['order']!r} is not an integer") from None
    if table.size != order:
        raise ValueError("declared order does not match the table")
    return _formula_payload(fgab.scott_sentence_finite(table), args)


# ---------------------------------------------------------------------------
# q (rank-1 subgroups of the rationals)
# ---------------------------------------------------------------------------

def _cmd_q_member(args) -> dict:
    from fractions import Fraction

    from . import rank1 as R
    c = R.char_from_json(_read_structured(args.char))
    return {"contains": R.contains(c, Fraction(args.rational))}


def _cmd_q_iso(args) -> dict:
    from . import rank1 as R
    c1 = R.char_from_json(_read_structured(args.char1))
    c2 = R.char_from_json(_read_structured(args.char2))
    return {"isomorphic": R.is_isomorphic(c1, c2)}


def _cmd_q_classify(args) -> dict:
    from . import rank1 as R
    cls = R.classify(R.char_from_json(_read_structured(args.char)))
    return {"row": cls.case.row, "p0": cls.case.p0, "pfin": cls.case.pfin,
            "pinf": cls.case.pinf, "lower": cls.lower, "upper": cls.upper,
            "recommendation": cls.recommendation}


def _cmd_q_scott(args) -> dict:
    from . import rank1 as R
    c = R.char_from_json(_read_structured(args.char))
    return _formula_payload(R.scott_sentence(c), args)


# ---------------------------------------------------------------------------
# formula
# ---------------------------------------------------------------------------

def _cmd_formula_classify(args) -> dict:
    from . import formula as F
    f = F.from_json_dict(_read_structured(args.formula))
    cls = F.classify(f)
    return {"class": str(cls), "kind": cls.kind, "level": cls.level}


def _cmd_formula_eval(args) -> dict:
    from . import formula as F
    f = F.from_json_dict(_read_structured(args.formula))
    F.require_sentence(f)
    _, table = _read_table(args.table)
    truth, exact = F.evaluate_exact(f, table, args.family_bound)
    return {"truth": truth, "exact": exact}


def _cmd_formula_render(args) -> dict:
    from . import formula as F
    f = F.from_json_dict(_read_structured(args.formula))
    return {"rendered": F.render(f, args.format, args.family_bound)}


# ---------------------------------------------------------------------------
# sim
# ---------------------------------------------------------------------------

def _emit_stage_reports(reports, mapper) -> None:
    for r in reports:
        print(json.dumps({
            "stage": r.stage, "target": r.target_tag,
            "map": {str(c): mapper(v) for c, v in sorted(r.partial_map.items())},
            "delta": [list(f) for f in r.diagram_delta],
            "facts": r.fact_count,
            "resumed_from": r.resumed_from,
        }, sort_keys=True))


def _verification_json(ver, verify: bool) -> dict:
    """The report's payload; under ``verify`` a failed report is an error."""
    payload = {"ok": ver.ok,
               "checks": [{"name": n, "ok": o, "detail": d} for n, o, d in ver.checks],
               "caveat": ver.caveat}
    if verify and not ver.ok:
        raise ValueError("verification failed: " + json.dumps(payload))
    return payload


def _cmd_sim_abelian(args) -> dict:
    from . import limitsim as L
    reports, tag, ver = L.run_abelian(args.k, _read_trace(args.trace), args.growth)
    _emit_stage_reports(reports, list)
    return {"final": tag, "verification": _verification_json(ver, args.verify)}


def _cmd_sim_dihedral(args) -> dict:
    from . import limitsim as L
    reports, tag, ver = L.run_dihedral(_read_trace(args.trace), args.growth)
    _emit_stage_reports(reports, lambda e: {"t": str(e.translation), "flip": e.flip})
    return {"final": tag,
            "tower_depth": L.dihedral_tower_depth(reports),
            "verification": _verification_json(ver, args.verify)}


def _cmd_sim_rank1(args) -> dict:
    from . import limitsim as L
    from . import rank1 as R
    c = R.char_from_json(_read_structured(args.char))
    reports, final_char, ver = L.run_rank1(c, args.p, args.q, _read_trace(args.trace),
                                           args.growth)
    _emit_stage_reports(reports, str)
    return {"final_char": R.char_to_json(final_char),
            "verification": _verification_json(ver, args.verify)}


def _cmd_sim_cof(args) -> dict:
    from . import limitsim as L
    from . import rank1 as R
    c = R.char_from_json(_read_structured(args.char))
    w = set(int(x) for x in args.w.split(",")) if args.w else set()
    result, ver = L.run_cofinality(c, args.m, w, args.bound)
    return {"table": {str(p): ("inf" if v == R.INF else v) for p, v in result.table.items()},
            "verdict": result.verdict, "multiplier": result.multiplier,
            "missed": list(result.missed), "a_primes": list(result.a_primes),
            "verification": _verification_json(ver, args.verify)}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scottgroups",
        description="Group word problems, Scott sentences, and construction simulators")
    parser.add_argument("--selftest", action="store_true",
                        help="run the acceptance suite and print a pass/fail table")
    sub = parser.add_subparsers(dest="command")

    def add_formula_flags(p):
        p.add_argument("--latex", action="store_true", help="render LaTeX instead of AST")
        p.add_argument("--family-bound", type=int, default=3)

    words = sub.add_parser("words", help="free-group words and Nielsen moves")
    wsub = words.add_subparsers(dest="subcommand", required=True)
    p = wsub.add_parser("reduce")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("word")
    p.set_defaults(func=_cmd_words_reduce)
    p = wsub.add_parser("primitive")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("words", nargs="+")
    p.set_defaults(func=_cmd_words_primitive)
    p = wsub.add_parser("nielsen-reduce")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("words", nargs="+")
    p.set_defaults(func=_cmd_words_nielsen)

    dinf = sub.add_parser("dinf", help="the infinite dihedral group")
    dsub = dinf.add_subparsers(dest="subcommand", required=True)
    p = dsub.add_parser("normalize")
    p.add_argument("word")
    p.set_defaults(func=_cmd_dinf_normalize)
    p = dsub.add_parser("genpair")
    p.add_argument("w1")
    p.add_argument("w2")
    p.set_defaults(func=_cmd_dinf_genpair)
    p = dsub.add_parser("primitive")
    p.add_argument("w1")
    p.add_argument("w2")
    p.set_defaults(func=_cmd_dinf_primitive)
    p = dsub.add_parser("scott")
    add_formula_flags(p)
    p.set_defaults(func=_cmd_dinf_scott)

    fg = sub.add_parser("fgab", help="finitely generated abelian groups")
    fsub = fg.add_subparsers(dest="subcommand", required=True)
    p = fsub.add_parser("normalize")
    p.add_argument("orders", nargs="+", type=int)
    p.set_defaults(func=_cmd_fgab_normalize)
    p = fsub.add_parser("scott")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--torsion", default="", help="comma-separated cyclic orders")
    p.add_argument("--sigma3", action="store_true",
                   help="emit the generating-tuple Sigma3 sentence instead")
    add_formula_flags(p)
    p.set_defaults(func=_cmd_fgab_scott)
    p = fsub.add_parser("scott-finite")
    p.add_argument("--table", required=True, help='{"order":k,"table":[[...]]}')
    add_formula_flags(p)
    p.set_defaults(func=_cmd_fgab_scott_finite)

    q = sub.add_parser("q", help="rank-1 subgroups of the rationals")
    qsub = q.add_subparsers(dest="subcommand", required=True)
    p = qsub.add_parser("member")
    p.add_argument("char")
    p.add_argument("rational", help='reduced fraction, e.g. "3/4"; pass a negative one '
                                    'after "--", as in: q member CHAR -- -3/11')
    p.set_defaults(func=_cmd_q_member)
    p = qsub.add_parser("iso")
    p.add_argument("char1")
    p.add_argument("char2")
    p.set_defaults(func=_cmd_q_iso)
    p = qsub.add_parser("classify")
    p.add_argument("char")
    p.set_defaults(func=_cmd_q_classify)
    p = qsub.add_parser("scott")
    p.add_argument("char")
    add_formula_flags(p)
    p.set_defaults(func=_cmd_q_scott)

    fo = sub.add_parser("formula", help="classification, evaluation, rendering")
    fosub = fo.add_subparsers(dest="subcommand", required=True)
    p = fosub.add_parser("classify")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_formula_classify)
    p = fosub.add_parser("eval")
    p.add_argument("formula")
    p.add_argument("--table", required=True)
    p.add_argument("--family-bound", type=int, default=8)
    p.set_defaults(func=_cmd_formula_eval)
    p = fosub.add_parser("render")
    p.add_argument("formula")
    p.add_argument("--format", choices=("text", "latex"), default="text")
    p.add_argument("--family-bound", type=int, default=3)
    p.set_defaults(func=_cmd_formula_render)

    sim = sub.add_parser("sim", help="construction simulators")
    ssub = sim.add_subparsers(dest="subcommand", required=True)

    def add_sim_flags(p):
        p.add_argument("--trace", required=True,
                       help='compact bits "10,00,11", JSON, @file, or -')
        p.add_argument("--growth", type=int, default=2)
        p.add_argument("--no-verify", dest="verify", action="store_false")

    p = ssub.add_parser("abelian")
    p.add_argument("--k", type=int, required=True)
    add_sim_flags(p)
    p.set_defaults(func=_cmd_sim_abelian)
    p = ssub.add_parser("dihedral")
    add_sim_flags(p)
    p.set_defaults(func=_cmd_sim_dihedral)
    p = ssub.add_parser("rank1")
    p.add_argument("--char", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    add_sim_flags(p)
    p.set_defaults(func=_cmd_sim_rank1)
    p = ssub.add_parser("cof")
    p.add_argument("--char", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--w", default="", help="comma-separated indices enumerated into W")
    p.add_argument("--bound", type=int, default=100)
    p.add_argument("--no-verify", dest="verify", action="store_false")
    p.set_defaults(func=_cmd_sim_cof)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.selftest:
        from . import acceptance
        ok = acceptance.run_all(report=lambda line: print(line, file=sys.stderr))
        _emit({"selftest": "pass" if ok else "fail"})
        return 0 if ok else 1
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        payload = args.func(args)
    except (ValueError, KeyError, ZeroDivisionError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
