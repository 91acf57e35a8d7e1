import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from scottgroups import cli
from scottgroups import formula as F

SRC = Path(__file__).resolve().parent.parent / "src"
USAGE_CONTRACT = Path(__file__).resolve().parent / "cli_usage_contract.json"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, (code, err)
    lines = [json.loads(line) for line in out.strip().splitlines()]
    return lines[-1] if len(lines) == 1 else lines


class TestWordsCommands:
    def test_primitive(self, capsys):
        assert run_json(capsys, "words", "primitive", "--rank", "2", "ab", "b") == \
            {"primitive": True}

    def test_reduce(self, capsys):
        payload = run_json(capsys, "words", "reduce", "--rank", "2", "a*a^-1*b")
        assert payload["word"] == "b"

    def test_nielsen_reduce(self, capsys):
        payload = run_json(capsys, "words", "nielsen-reduce", "--rank", "2", "a", "ab")
        assert payload["tuple"] == ["a", "b"]
        assert payload["primitive"] is True

    def test_bad_word_is_domain_error(self, capsys):
        code, out, err = run(capsys, "words", "reduce", "--rank", "2", "zz")
        assert code == 1 and "error" in err


class TestDinfCommands:
    def test_genpair(self, capsys):
        assert run_json(capsys, "dinf", "genpair", "aba", "bab") == {"generating": False}

    def test_normalize(self, capsys):
        assert run_json(capsys, "dinf", "normalize", "baaba") == {"word": "a"}

    def test_primitive(self, capsys):
        assert run_json(capsys, "dinf", "primitive", "b", "a") == {"primitive": True}

    def test_scott_round_trip(self, capsys):
        payload = run_json(capsys, "dinf", "scott", "--family-bound", "2")
        assert payload["class"] == "d-Sigma(2)"
        rebuilt = F.from_json_dict(payload["formula"])
        got = F.classify(rebuilt)
        assert (got.kind, got.level) == ("DSigma", 2)


class TestFgabCommands:
    def test_normalize(self, capsys):
        assert run_json(capsys, "fgab", "normalize", "4", "6") == \
            {"invariant_factors": [2, 12]}

    def test_scott(self, capsys):
        payload = run_json(capsys, "fgab", "scott", "--rank", "2", "--torsion", "2")
        assert payload["kind"] == "DSigma" and payload["level"] == 2

    def test_scott_finite(self, capsys):
        table = json.dumps({"order": 2, "table": [[0, 1], [1, 0]]})
        payload = run_json(capsys, "fgab", "scott-finite", "--table", table)
        rebuilt = F.from_json_dict(payload["formula"])
        assert F.classify(rebuilt).kind == "DSigma"


class TestQCommands:
    CASE2 = json.dumps({"exceptions": {}, "default": {"linear": [1, 0]}})

    def test_classify_row_two(self, capsys):
        payload = run_json(capsys, "q", "classify", self.CASE2)
        assert payload["row"] == 2
        assert payload["lower"] == "Sigma03" and payload["upper"] == "Sigma03"

    def test_member(self, capsys):
        dyadic = json.dumps({"exceptions": {"2": "inf"}, "default": "zero"})
        assert run_json(capsys, "q", "member", dyadic, "5/8") == {"contains": True}
        assert run_json(capsys, "q", "member", dyadic, "1/3") == {"contains": False}

    def test_member_of_a_negative_rational_after_double_dash(self, capsys):
        dyadic = json.dumps({"exceptions": {"2": "inf"}, "default": "zero"})
        assert run_json(capsys, "q", "member", dyadic, "--", "-5/8") == {"contains": True}
        assert run_json(capsys, "q", "member", dyadic, "--", "-3/11") == {"contains": False}

    def test_iso(self, capsys):
        z = json.dumps({"exceptions": {}, "default": "zero"})
        z_shift = json.dumps({"exceptions": {"2": 5}, "default": "zero"})
        assert run_json(capsys, "q", "iso", z, z_shift) == {"isomorphic": True}

    def test_scott_round_trip(self, capsys):
        payload = run_json(capsys, "q", "scott", self.CASE2)
        rebuilt = F.from_json_dict(payload["formula"])
        got = F.classify(rebuilt)
        assert (got.kind, got.level) == ("Sigma", 3)

    def test_malformed_char(self, capsys):
        code, _, err = run(capsys, "q", "classify", '{"default": "wat"}')
        assert code == 1 and "error" in err


class TestFormulaCommands:
    def test_classify_eval_render(self, capsys):
        payload = run_json(capsys, "dinf", "scott", "--family-bound", "2")
        ast = json.dumps(payload["formula"])
        assert run_json(capsys, "formula", "classify", ast)["class"] == "d-Sigma(2)"
        rendered = run_json(capsys, "formula", "render", ast, "--format", "latex")
        assert rendered["rendered"].startswith("\\[")
        table = json.dumps({"table": [[0, 1], [1, 0]]})
        verdict = run_json(capsys, "formula", "eval", ast, "--table", table,
                           "--family-bound", "4")
        assert verdict["truth"] is False  # Z/2 is not the infinite dihedral group

    @pytest.mark.parametrize("free_y", [
        # y is free in the family's members
        {"t": "fam-or", "enum": "all-combo-eq", "params": {"target": "y", "vars": []}},
        # y is free in a conjunct that evaluation would never reach
        {"t": "and", "items": [{"t": "natom", "lhs": {"lin": []}, "rhs": {"lin": []}},
                               {"t": "ex", "vars": ["x"],
                                "body": {"t": "atom", "lhs": {"lin": [["x", 1]]},
                                         "rhs": {"lin": [["y", 1]]}}}]},
    ])
    def test_eval_of_a_formula_with_a_free_variable(self, capsys, free_y):
        code, out, err = run(capsys, "formula", "eval", json.dumps(free_y),
                             "--table", '{"table":[[0,1],[1,0]]}')
        assert code == 1 and out == ""
        assert err == "error: not a sentence: variable 'y' is free\n"


class TestSimCommands:
    def test_abelian_stream(self, capsys):
        lines = run_json(capsys, "sim", "abelian", "--k", "2",
                         "--trace", "00,10,00", "--growth", "1")
        assert lines[-1]["final"] == "Z1"
        assert lines[-1]["verification"]["ok"] is True
        assert all("stage" in line for line in lines[:-1])

    def test_dihedral_depth(self, capsys):
        lines = run_json(capsys, "sim", "dihedral",
                         "--trace", "10,00,10,00", "--growth", "1")
        assert lines[-1]["final"] == "H" and lines[-1]["tower_depth"] == 2

    def test_rank1(self, capsys):
        char = json.dumps({"exceptions": {"2": "inf"}, "default": "zero"})
        lines = run_json(capsys, "sim", "rank1", "--char", char, "--p", "3",
                         "--q", "2", "--trace", "00,10,11", "--growth", "1")
        assert lines[-1]["final_char"] == {"exceptions": {}, "default": "zero"}

    def test_cof(self, capsys):
        char = json.dumps({"exceptions": {}, "default": {"linear": [1, 1]}})
        payload = run_json(capsys, "sim", "cof", "--char", char, "--m", "6",
                           "--w", "0,1,2,3,4,5", "--bound", "60")
        assert payload["verdict"] == "isomorphic" and payload["multiplier"] == 1

    def test_trace_parse_error(self, capsys):
        code, _, err = run(capsys, "sim", "dihedral", "--trace", "102")
        assert code == 1 and "error" in err

    def test_cof_window_must_hold_a_prime(self, capsys):
        char = json.dumps({"exceptions": {}, "default": {"linear": [1, 1]}})
        code, out, err = run(capsys, "sim", "cof", "--char", char, "--m", "-3")
        assert code == 1 and out == "" and err.strip() == "error: m must be >= 1"

    @pytest.mark.parametrize("argv", [
        ["abelian", "--k", "2", "--growth", "100000"],
        ["abelian", "--k", "20000"],
        ["rank1", "--char", '{"exceptions":{"2":"inf"},"default":"zero"}', "--p", "3",
         "--q", "2", "--growth", "5000"],
        ["dihedral", "--growth", "3000"],
    ])
    def test_runs_past_the_budget_are_refused_at_once(self, capsys, argv):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "sim", *argv, "--trace", "10")
        assert code == 1 and out == "" and err.startswith("error: budget exhausted")
        assert time.perf_counter() - t0 < 1


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["no-such-command"])
        assert exc.value.code == 2

    def test_no_command_prints_usage(self, capsys):
        assert cli.main([]) == 2

    @pytest.mark.parametrize("argv", [
        ["words", "reduce", "--rank", "2", "x9"],          # index out of range
        ["words", "primitive", "--rank", "2", "ab"],       # arity != rank
        ["dinf", "normalize", "abc"],                      # bad letter
        ["q", "member", '{"default":"zero"}', "1/0"],      # zero denominator
        ["q", "classify", "not json"],
        ["q", "iso", '{"default":"zero"}', '{"default":{"linear":[-1,0]}}'],
        ["fgab", "normalize", "1"],                        # order below 2
        ["fgab", "scott-finite", "--table", '{"order":2,"table":[[0,1],[1,1]]}'],
        ["formula", "classify", '{"t":"mystery"}'],
        ["sim", "abelian", "--k", "1", "--trace", "00"],
        ["sim", "rank1", "--char", '{"default":"zero"}', "--p", "2", "--q", "2",
         "--trace", "00"],
        ["sim", "cof", "--char", '{"default":"zero"}', "--m", "3", "--bound", "50"],
        # the family that Z^n sentences used before pure-span is no longer registered
        ["formula", "render",
         '{"t":"fam-and","enum":"no-division","params":{"targets":["x1"],"witness":"y"}}'],
        # JSON of the wrong shape is rejected where it is decoded
        ["q", "member", "[]", "1/2"],
        ["q", "member", '{"exceptions":[],"default":"zero"}', "1/2"],
        ["q", "iso", '"zero"', '{"default":"zero"}'],
        ["formula", "render", "[]"],
        ["fgab", "scott-finite", "--table", "[]"],
        ["formula", "eval", "--table", '{"table":[[0]]}',
         '{"t":"atom","lhs":5,"rhs":{"lin":[]}}'],
        ["sim", "rank1", "--char", "[]", "--p", "2", "--q", "3", "--trace", "00"],
        ["sim", "abelian", "--k", "2", "--trace", '{"steps":5}'],
        # family parameters of the wrong type or shape
        ["formula", "render", '{"t":"fam-and","enum":"nonzero-combo-neq","params":{"vars":5}}'],
        ["formula", "render", '{"t":"fam-and","enum":"nonzero-combo-neq","params":{}}'],
        ["formula", "render", '{"t":"fam-and","enum":"dinf-relations","params":{"pair":["x"]}}'],
        ["formula", "render", '{"t":"fam-and","enum":"fg-abelian-relations",'
                              '"params":{"rank":"2","torsion":[],"vars":["a","b"]}}'],
        ["formula", "render",
         '{"t":"fam-and","enum":"rank1-lambda-exists","params":{"char":[],"var":"x"}}'],
        # a negative family bound, which would render no members
        ["formula", "render", "--family-bound", "-3",
         '{"t":"fam-and","enum":"multiple-neq","params":{"var":"x"}}'],
        ["dinf", "scott", "--family-bound", "-1"],
        ["fgab", "scott", "--rank", "1", "--family-bound", "-2"],
        ["q", "scott", '{"default":"zero"}', "--latex", "--family-bound", "-1"],
        # JSON integers that are floats, strings or booleans are not truncated or parsed
        ["q", "member", '{"exceptions":{"2":1.5},"default":"zero"}', "1/2"],
        # exception keys are primes in ASCII digits, not whatever int() parses
        ["q", "member", '{"exceptions":{"1_1":1},"default":"zero"}', "1/11"],
        ["q", "member", '{"exceptions":{" 11 ":1},"default":"zero"}', "1/11"],
        ["q", "member", '{"exceptions":{"+11":1},"default":"zero"}', "1/11"],
        ["q", "classify", '{"exceptions":{},"default":{"linear":["1",2.9]}}'],
        ["formula", "render", '{"t":"atom","lhs":{"lin":[["x",2.7]]},"rhs":{"lin":[]}}'],
        ["formula", "render", '{"t":"atom","lhs":{"word":[["x",true]]},"rhs":{"lin":[]}}'],
        ["fgab", "scott-finite", "--table", '{"table":[[0,1],[1,0]],"order":2.5}'],
        ["fgab", "scott-finite", "--table", '{"table":[[false,true],[true,false]]}'],
        # trace entries are bits, as in the compact form
        ["sim", "abelian", "--k", "2", "--trace", '{"steps":[[2,7],[0,0]]}', "--growth", "1"],
        # comma-separated integer lists are naturals in ASCII digits, and W's indices are below m
        ["sim", "cof", "--char", '{"exceptions":{},"default":{"linear":[1,1]}}', "--m", "3",
         "--bound", "30", "--w", "1_1"],
        ["sim", "cof", "--char", '{"exceptions":{},"default":{"linear":[1,1]}}', "--m", "3",
         "--bound", "30", "--w=-1"],
        ["sim", "cof", "--char", '{"exceptions":{},"default":{"linear":[1,1]}}', "--m", "3",
         "--bound", "30", "--w", "0,3"],
        ["sim", "cof", "--char", '{"exceptions":{},"default":{"linear":[1,1]}}', "--m", "3",
         "--bound", "30", "--w", " 2,+1"],
        ["fgab", "scott", "--rank", "1", "--torsion", "1_2"],
        ["fgab", "scott", "--rank", "1", "--torsion", "2,"],
        ["fgab", "scott", "--rank", "1", "--torsion", "-2"],
        # a rational is n or n/d in ASCII digits, d at least 1: not what Fraction() parses
        *(["q", "member", '{"default":"zero"}', "--", r] for r in (
            "١/٣", "1_0/3", "+1/3", " 1/3 ", "1.5", "1e-3", "1/", "1/00", "--1/3")),
        # more digits than int() converts
        *(["q", "member", '{"exceptions":{"2":"inf"},"default":"zero"}', r]
          for r in ("9" * 5000, "1/" + "9" * 5000)),
        # a window of no primes: m is at least 1
        ["sim", "cof", "--char", '{"exceptions":{},"default":{"linear":[1,1]}}', "--m", "-3"],
        ["sim", "cof", "--char", '{"exceptions":{},"default":{"linear":[1,1]}}', "--m", "0"],
        # a family naming a variable its members bind, which they would capture
        ["formula", "eval", "--table", '{"table":[[0,1],[1,0]]}',
         '{"t":"all","vars":["z"],"body":{"t":"fam-and","enum":"rank1-pinf-divisible",'
         '"params":{"char":{"exceptions":{"2":"inf"},"default":"zero"},"target":"z"}}}'],
        ["formula", "eval", "--table", '{"table":[[0,1],[1,0]]}',
         '{"t":"all","vars":["z"],"body":{"t":"fam-and","enum":"primes-divisible",'
         '"params":{"target":"z"}}}'],
        ["formula", "eval", "--table", '{"table":[[0,1],[1,0]]}',
         '{"t":"all","vars":["y"],"body":{"t":"fam-and","enum":"rank1-lambda-exists",'
         '"params":{"char":{"exceptions":{"2":"inf"},"default":"zero"},"var":"y"}}}'],
        # a family naming one variable twice, or too few
        ["formula", "render",
         '{"t":"fam-and","enum":"nonzero-combo-neq","params":{"vars":["x","x"]}}'],
        ["formula", "render",
         '{"t":"fam-and","enum":"pure-span","params":{"targets":["x1","y"],"witness":"y"}}'],
        ["formula", "render", '{"t":"fam-and","enum":"dinf-imprimitive-pairs",'
                              '"params":{"pair":["x1","x2"],"others":["x1","x2"]}}'],
        ["formula", "render", '{"t":"fam-or","enum":"dinf-generating-triples",'
                              '"params":{"pair":["x1","x2"],"targets":["u"]}}'],
        ["formula", "render", '{"t":"fam-and","enum":"fg-abelian-relations",'
                              '"params":{"rank":3,"torsion":[2],"vars":["a"]}}'],
        ["formula", "render", '{"t":"fam-and","enum":"fg-abelian-relations",'
                              '"params":{"rank":3,"torsion":[2],"vars":[]}}'],
    ])
    def test_malformed_inputs_are_domain_errors(self, capsys, argv):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 1
        assert err.startswith("error:")
        assert out == ""  # payload stream stays clean on failure

    def test_huge_rational_names_the_digit_limit(self, capsys):
        code, out, err = run(capsys, "q", "member", '{"default":"zero"}', "1/" + "9" * 4301)
        assert code == 1 and out == "" and "4300 digits" in err
        code, out, _ = run(capsys, "q", "member", '{"default":"zero"}', "9" * 4300)
        assert code == 0 and out.strip() == '{"contains": true}'  # an integer, in Z


class TestSelftest:
    """``--selftest`` runs ``acceptance.ALL_CRITERIA``: one PASS or FAIL line
    per criterion on stderr, the verdict as JSON on stdout, exit 0 or 1."""

    @pytest.mark.parametrize("ok, verdict, code", [(True, "pass", 0), (False, "fail", 1)])
    def test_verdict_and_exit_code(self, capsys, monkeypatch, ok, verdict, code):
        from scottgroups import acceptance
        monkeypatch.setattr(acceptance, "ALL_CRITERIA", [
            ("stub-pass", lambda: (True, "3 checks")),
            ("stub-second", lambda: (ok, "1 check"))])
        got, out, err = run(capsys, "--selftest")
        assert got == code and json.loads(out) == {"selftest": verdict}
        assert err.splitlines() == ["PASS  stub-pass: 3 checks",
                                    f"{'PASS' if ok else 'FAIL'}  stub-second: 1 check"]


class TestStrictIntegers:
    CHAR = '{"exceptions":{},"default":{"linear":[1,1]}}'
    SIM = ["--trace", "10"]

    @pytest.mark.parametrize("argv", [
        ["fgab", "normalize", "1_2", " 4"],
        ["fgab", "normalize", "+3"],
        ["fgab", "normalize", "\u0664"],            # ARABIC-INDIC DIGIT FOUR
        ["fgab", "normalize", "4", ""],
        ["fgab", "normalize", "--", "--4"],
        ["sim", "abelian", "--k", "2", *SIM, "--growth", "1_0"],
        ["sim", "abelian", "--k", "+2", *SIM],
        ["sim", "abelian", "--k", "\uff12", *SIM],   # FULLWIDTH DIGIT TWO
        ["sim", "dihedral", *SIM, "--growth", "2.0"],
        ["words", "primitive", "--rank", " 2", "ab", "b"],
        ["words", "reduce", "--rank", "2 ", "ab"],
        ["words", "nielsen-reduce", "--rank", "0x2", "a", "b"],
        ["fgab", "scott", "--rank", "+1"],
        ["sim", "rank1", "--char", CHAR, "--p", "3_", "--q", "2", *SIM],
        ["sim", "rank1", "--char", CHAR, "--p", "3", "--q", "+2", *SIM],
        ["sim", "cof", "--char", CHAR, "--m", "1_0"],
        ["sim", "cof", "--char", CHAR, "--m", "3", "--bound", "1e2"],
        ["dinf", "scott", "--family-bound", "1_0"],
        ["q", "scott", '{"default":"zero"}', "--family-bound", " 2"],
        ["formula", "render", "{}", "--family-bound", "+1"],
        ["formula", "eval", "{}", "--table", "{}", "--family-bound", "1.0"],
        ["fgab", "scott-finite", "--table", "{}", "--family-bound", "9" * 5000],
    ])
    def test_non_integer_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert "invalid int value" in err

    def test_negative_family_bound_stays_a_domain_error(self, capsys):
        code, out, err = run(capsys, "dinf", "scott", "--family-bound", "-1")
        assert code == 1 and out == "" and err.startswith("error:")

    def test_plain_and_negative_integers_parse(self):
        assert [cli._int(a) for a in ("0", "007", "-12", "9" * 40)] == [0, 7, -12, int("9" * 40)]
        for bad in ("", "-", "+1", " 1", "1 ", "1_0", "\u0664", "0x1", "--1"):
            with pytest.raises(argparse.ArgumentTypeError):
                cli._int(bad)


class TestParserTree:
    @staticmethod
    def parsers_built(monkeypatch, argv):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._build_parser(argv)
        return len(built)

    def test_a_subcommand_call_builds_only_its_branch(self, monkeypatch):
        assert self.parsers_built(monkeypatch, ["words", "primitive", "--rank", "2", "a", "b"]) == 3

    @pytest.mark.parametrize("argv", [[], ["-h"], ["words"], ["words", "-h"], ["bogus", "x"],
                                      ["words", "bogus"], ["--selftest", "words", "primitive"]])
    def test_any_other_argv_builds_the_full_tree(self, monkeypatch, argv):
        # the top-level parser, 6 commands and 21 subcommands
        assert self.parsers_built(monkeypatch, argv) == 28


class TestUsageContract:
    """Help and usage errors, run as processes, print what they printed when
    the parser tree was built whole on every call (argparse 3.11 at 80
    columns)."""

    @pytest.mark.parametrize("case", json.loads(USAGE_CONTRACT.read_text(encoding="utf-8")),
                             ids=lambda case: " ".join(case["argv"]))
    def test_output_and_exit_code(self, case):
        env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
        proc = subprocess.run([sys.executable, "-m", "scottgroups", *case["argv"]],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (case["code"], case["stdout"], case["stderr"])


class TestModuleEntry:
    def run_module(self, module):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-m", module, "fgab", "normalize",
                               "4", "6"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"invariant_factors": [2, 12]}
        return proc

    def test_python_dash_m_scottgroups(self):
        assert self.run_module("scottgroups").stderr == ""

    def test_python_dash_m_scottgroups_cli(self):
        # no runpy warning: importing the package does not import cli first
        assert self.run_module("scottgroups.cli").stderr == ""
