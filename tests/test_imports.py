"""The import footprint: each check runs in a fresh interpreter, since the
modules this test session has already imported stay loaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

REPORT = ("import json, sys; print(json.dumps(sorted(m for m in sys.modules "
          "if m.startswith('scottgroups.'))))")


def last_json_line(code):
    """The JSON value on the last line ``code`` prints in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def loaded_after(code):
    """The scottgroups submodules loaded once ``code`` has run."""
    return last_json_line(f"{code}\n{REPORT}")


def test_package_import_loads_no_module():
    assert loaded_after("import scottgroups") == []


def test_cli_import_loads_no_other_module():
    assert loaded_after("import scottgroups.cli") == ["scottgroups.cli"]


def test_subcommand_loads_only_its_module():
    code = ("import contextlib, io\n"
            "from scottgroups import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['words', 'primitive', '--rank', '2', 'ab', 'b']) == 0")
    assert loaded_after(code) == ["scottgroups.cli", "scottgroups.words"]


CHAR = '{"exceptions":{"2":"inf"},"default":"zero"}'
SENTENCE = '{"t":"ex","vars":["x"],"body":{"t":"natom","lhs":{"lin":[["x",1]]},"rhs":{"lin":[]}}}'
TABLE = '{"table":[[0,1],[1,0]]}'
EVERY_SUBCOMMAND = [
    ["words", "reduce", "--rank", "2", "a*a^-1*b"],
    ["words", "primitive", "--rank", "2", "ab", "b"],
    ["words", "nielsen-reduce", "--rank", "2", "a", "ab"],
    ["dinf", "normalize", "baaba"],
    ["dinf", "genpair", "aba", "bab"],
    ["dinf", "primitive", "b", "a"],
    ["dinf", "scott", "--family-bound", "2"],
    ["fgab", "normalize", "4", "6"],
    ["fgab", "scott", "--rank", "2", "--torsion", "2"],
    ["fgab", "scott-finite", "--table", TABLE],
    ["q", "member", CHAR, "5/8"],
    ["q", "iso", CHAR, CHAR],
    ["q", "classify", CHAR],
    ["q", "scott", CHAR, "--latex"],
    ["formula", "classify", SENTENCE],
    ["formula", "eval", SENTENCE, "--table", TABLE],
    ["formula", "render", SENTENCE, "--format", "latex"],
    ["sim", "abelian", "--k", "2", "--trace", "00,10,00", "--growth", "1"],
    ["sim", "dihedral", "--trace", "10,00,10", "--growth", "1"],
    ["sim", "rank1", "--char", CHAR, "--p", "3", "--q", "2", "--trace", "00,10,11",
     "--growth", "1"],
    ["sim", "cof", "--char", '{"exceptions":{},"default":{"linear":[1,1]}}', "--m", "6",
     "--w", "0,1,2,3,4,5", "--bound", "60"],
]


def test_no_subcommand_loads_dataclasses_or_inspect():
    """Loading them is a large share of a CLI call's start-up; modules
    loaded before the package (by a site hook, say) do not count."""
    code = ("import contextlib, io, json, sys\n"
            "before = set(sys.modules)\n"
            "from scottgroups import cli\n"
            f"for argv in {EVERY_SUBCOMMAND!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "print(json.dumps(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))")
    assert len({tuple(argv[:2]) for argv in EVERY_SUBCOMMAND}) == 21
    assert last_json_line(code) == []


def test_attribute_access_loads_the_module():
    code = ("import scottgroups as sg\n"
            "assert sg.rank1.contains(sg.rank1.Z_CHAR, 2)\n"
            "assert not hasattr(sg, 'numtheory_typo')")
    assert "scottgroups.rank1" in loaded_after(code)


FAMILY_ROUND_TRIPS = """
import json
from scottgroups import formula as F
families = [
    {"t": "fam-and", "enum": "multiple-neq", "params": {"var": "x"}},              # fgab
    {"t": "fam-and", "enum": "dinf-relations", "params": {"pair": ["x1", "x2"]}},  # dihedral
    {"t": "fam-and", "enum": "primes-divisible", "params": {"target": "y"}},       # rank1
]
for d in families:
    text = json.dumps(d, sort_keys=True)
    assert F.dumps(F.loads(text)) == text, text
    assert F.family_members(F.loads(text), 2), text
unregistered = {"t": "fam-and", "enum": "no-division",
                "params": {"targets": ["x1"], "witness": "y"}}
try:
    F.from_json_dict(unregistered)
except KeyError:
    pass
else:
    raise AssertionError("no-division is registered")
"""


def test_formula_registry_loads_the_family_modules():
    assert loaded_after(FAMILY_ROUND_TRIPS) == [
        "scottgroups.dihedral", "scottgroups.fgab", "scottgroups.formula",
        "scottgroups.numtheory", "scottgroups.rank1"]
