"""Command-line entry point.

One binary, a subcommand tree, JSON payloads on stdout, diagnostics on
stderr.  Exit codes: 0 success, 1 domain error (an operation rejected its
input), 2 usage error.  Structured arguments (characteristics, tables,
traces, formulas) are inline JSON, ``@path`` to read a file, or ``-`` for
stdin.

Each handler imports the modules it uses when it runs, and they import
``formula`` only to build or read a sentence, so a call loads only what
its subcommand needs (``tests/test_imports.py`` lists each one's modules).
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


def _int_list(arg: str, what: str, below: int | None = None) -> list[int]:
    """A comma-separated list of naturals in ASCII digits, each below
    ``below`` when it is given; an empty argument is an empty list."""
    out = []
    for chunk in arg.split(",") if arg else ():
        if not (chunk.isascii() and chunk.isdigit()):
            raise ValueError(f"{what} entry {chunk!r} is not a natural number in ASCII digits")
        if below is not None and int(chunk) >= below:
            raise ValueError(f"{what} entry {chunk} is not below {below}")
        out.append(int(chunk))
    return out


def _read_table(arg: str) -> tuple[dict, object]:
    """A {"table": [[...], ...]} argument: the decoded object and its group."""
    from . import formula as F
    data = _read_structured(arg)
    rows = data.get("table") if isinstance(data, dict) else None
    if not isinstance(rows, list) or not all(
            isinstance(r, list) and all(map(F.is_json_int, r)) for r in rows):
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
    torsion = tuple(_int_list(args.torsion, "--torsion"))
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
    from . import formula as F
    data, table = _read_table(args.table)
    if table.size != F.json_int(data.get("order", table.size)):
        raise ValueError("declared order does not match the table")
    return _formula_payload(fgab.scott_sentence_finite(table), args)


# ---------------------------------------------------------------------------
# q (rank-1 subgroups of the rationals)
# ---------------------------------------------------------------------------

def _rational(arg: str):
    """``n`` or ``n/d`` in ASCII digits after an optional ``-``, d >= 1; ``Fraction``
    would also take ``+1/3``, `` 1/3``, ``1_0/3``, ``1.5``, ``1e-3``, ``١/٣``."""
    from fractions import Fraction
    num, slash, den = arg.partition("/")
    digits = num.removeprefix("-")
    if not (digits.isascii() and digits.isdigit() and (
            not slash or den.isascii() and den.isdigit() and den.strip("0"))):
        raise ValueError(f"rational {arg!r} is not n or n/d in ASCII digits with d at least 1")
    if max(len(digits), len(den)) > 4300:  # int() converts no more
        raise ValueError("a rational's numerator and denominator have at most 4300 digits")
    return Fraction(int(num), int(den or 1))


def _cmd_q_member(args) -> dict:
    from . import rank1 as R
    c = R.char_from_json(_read_structured(args.char))
    return {"contains": R.contains(c, _rational(args.rational))}


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
    """One JSON line a stage, with each value shown and mapped once: while
    the reports hold the same list of values, a stage's map is the one
    before plus the constants it named; a new list (an abelian rewrite) is
    mapped afresh.  JSON writes the expanded facts, tuples, as lists."""
    from .limitsim import expand
    values, shown = None, {}
    for r in reports:
        if r.values is not values:
            values, shown = r.values, {}
        new = values[len(shown):r.named]
        shown.update(zip(map(str, range(len(shown), r.named)),
                         map(mapper, new if r.show is None else r.show(new))))
        print(json.dumps({
            "stage": r.stage, "target": r.target_tag,
            "map": shown,
            "delta": expand(r.delta),
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
    w = set(_int_list(args.w, "--w", below=args.m))
    result, ver = L.run_cofinality(c, args.m, w, args.bound)
    return {"table": {str(p): ("inf" if v == R.INF else v) for p, v in result.table.items()},
            "verdict": result.verdict, "multiplier": result.multiplier,
            "missed": list(result.missed), "a_primes": list(result.a_primes),
            "verification": _verification_json(ver, args.verify)}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _int(arg: str) -> int:
    """An integer in ASCII digits after an optional ``-``.  argparse's
    ``type=int`` would also take ``+3``, `` 4``, ``1_2`` and other scripts'
    digits."""
    digits = arg[1:] if arg.startswith("-") else arg
    if digits.isascii() and digits.isdigit():
        try:
            return int(arg)
        except ValueError:  # more digits than int() converts
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {arg!r}")


_RANK = ("--rank", {"type": _int, "required": True})
_FORMULA_FLAGS = (("--latex", {"action": "store_true", "help": "render LaTeX instead of AST"}),
                  ("--family-bound", {"type": _int, "default": 3}))
_NO_VERIFY = ("--no-verify", {"dest": "verify", "action": "store_false"})
_SIM_FLAGS = (("--trace", {"required": True,
                           "help": 'compact bits "10,00,11", JSON, @file, or -'}),
              ("--growth", {"type": _int, "default": 2}),
              _NO_VERIFY)

# command -> (help, {subcommand -> (handler, arguments)}); an argument is
# (name, keywords of add_argument), added in order
_COMMANDS = {
    "words": ("free-group words and Nielsen moves", {
        "reduce": (_cmd_words_reduce, (_RANK, ("word", {}))),
        "primitive": (_cmd_words_primitive, (_RANK, ("words", {"nargs": "+"}))),
        "nielsen-reduce": (_cmd_words_nielsen, (_RANK, ("words", {"nargs": "+"}))),
    }),
    "dinf": ("the infinite dihedral group", {
        "normalize": (_cmd_dinf_normalize, (("word", {}),)),
        "genpair": (_cmd_dinf_genpair, (("w1", {}), ("w2", {}))),
        "primitive": (_cmd_dinf_primitive, (("w1", {}), ("w2", {}))),
        "scott": (_cmd_dinf_scott, _FORMULA_FLAGS),
    }),
    "fgab": ("finitely generated abelian groups", {
        "normalize": (_cmd_fgab_normalize, (("orders", {"nargs": "+", "type": _int}),)),
        "scott": (_cmd_fgab_scott, (
            _RANK,
            ("--torsion", {"default": "", "help": "comma-separated cyclic orders"}),
            ("--sigma3", {"action": "store_true",
                          "help": "emit the generating-tuple Sigma3 sentence instead"}),
            *_FORMULA_FLAGS)),
        "scott-finite": (_cmd_fgab_scott_finite, (
            ("--table", {"required": True, "help": '{"order":k,"table":[[...]]}'}),
            *_FORMULA_FLAGS)),
    }),
    "q": ("rank-1 subgroups of the rationals", {
        "member": (_cmd_q_member, (
            ("char", {}),
            ("rational", {"help": 'n or n/d in ASCII digits, e.g. "3/4"; pass a negative '
                                  'one after "--", as in: q member CHAR -- -3/11'}))),
        "iso": (_cmd_q_iso, (("char1", {}), ("char2", {}))),
        "classify": (_cmd_q_classify, (("char", {}),)),
        "scott": (_cmd_q_scott, (("char", {}), *_FORMULA_FLAGS)),
    }),
    "formula": ("classification, evaluation, rendering", {
        "classify": (_cmd_formula_classify, (("formula", {}),)),
        "eval": (_cmd_formula_eval, (
            ("formula", {}),
            ("--table", {"required": True}),
            ("--family-bound", {"type": _int, "default": 8}))),
        "render": (_cmd_formula_render, (
            ("formula", {}),
            ("--format", {"choices": ("text", "latex"), "default": "text"}),
            ("--family-bound", {"type": _int, "default": 3}))),
    }),
    "sim": ("construction simulators", {
        "abelian": (_cmd_sim_abelian, (("--k", {"type": _int, "required": True}), *_SIM_FLAGS)),
        "dihedral": (_cmd_sim_dihedral, _SIM_FLAGS),
        "rank1": (_cmd_sim_rank1, (
            ("--char", {"required": True}),
            ("--p", {"type": _int, "required": True}),
            ("--q", {"type": _int, "required": True}),
            *_SIM_FLAGS)),
        "cof": (_cmd_sim_cof, (
            ("--char", {"required": True}),
            ("--m", {"type": _int, "required": True}),
            ("--w", {"default": "", "help": "comma-separated indices enumerated into W"}),
            ("--bound", {"type": _int, "default": 100}),
            _NO_VERIFY)),
    }),
}


def _build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser of ``_COMMANDS``.  When ``argv`` starts with a command and
    one of its subcommands, only the parsers on that path are built (3 of
    28, which saves a short call much of its start-up); otherwise the whole
    tree is."""
    leaf = None
    if argv and len(argv) > 1 and argv[1] in _COMMANDS.get(argv[0], ("", {}))[1]:
        leaf = argv[0], argv[1]
    parser = argparse.ArgumentParser(
        prog="scottgroups",
        description="Group word problems, Scott sentences, and construction simulators")
    parser.add_argument("--selftest", action="store_true",
                        help="run the acceptance suite and print a pass/fail table")
    sub = parser.add_subparsers(dest="command")
    for command, (help_text, leaves) in _COMMANDS.items():
        if leaf and command != leaf[0]:
            continue
        csub = sub.add_parser(command, help=help_text).add_subparsers(
            dest="subcommand", required=True)
        for name, (func, arguments) in leaves.items():
            if leaf and name != leaf[1]:
                continue
            p = csub.add_parser(name)
            for arg, keywords in arguments:
                p.add_argument(arg, **keywords)
            p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv)
    args, extras = parser.parse_known_args(argv)
    if extras:
        # argparse names them in the usage of the full tree's top-level parser
        args = _build_parser().parse_args(argv)
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
    except RecursionError:  # the decoder, a JSON reader or the evaluator
        print("error: input is nested too deeply", file=sys.stderr)
        return 1
    _emit(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
