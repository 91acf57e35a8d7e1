import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from scottgroups import cli
from scottgroups import formula as F

SRC = Path(__file__).resolve().parent.parent / "src"


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
    ])
    def test_malformed_inputs_are_domain_errors(self, capsys, argv):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 1
        assert err.startswith("error:")
        assert out == ""  # payload stream stays clean on failure


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
