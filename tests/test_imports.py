"""The import footprint: each check runs in a fresh interpreter, since the
modules this test session has already imported stay loaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
# every subcommand, and the package modules a call of it loads, exactly
FOOTPRINTS = [
    (["words", "reduce", "--rank", "2", "a*a^-1*b"], "cli words"),
    (["words", "primitive", "--rank", "2", "ab", "b"], "cli words"),
    (["words", "nielsen-reduce", "--rank", "2", "a", "ab"], "cli words"),
    (["dinf", "normalize", "baaba"], "cli dihedral numtheory"),
    (["dinf", "genpair", "aba", "bab"], "cli dihedral numtheory"),
    (["dinf", "primitive", "b", "a"], "cli dihedral numtheory"),
    (["dinf", "scott", "--family-bound", "2"], "cli dihedral formula numtheory"),
    (["fgab", "normalize", "4", "6"], "cli fgab numtheory"),
    (["fgab", "scott", "--rank", "2", "--torsion", "2"], "cli fgab formula numtheory"),
    (["fgab", "scott-finite", "--table", TABLE], "cli fgab formula numtheory"),
    (["q", "member", CHAR, "5/8"], "cli numtheory rank1"),
    (["q", "iso", CHAR, CHAR], "cli numtheory rank1"),
    (["q", "classify", CHAR], "cli numtheory rank1"),
    (["q", "scott", CHAR, "--latex"], "cli fgab formula numtheory rank1"),
    (["formula", "classify", SENTENCE], "cli formula"),
    (["formula", "eval", SENTENCE, "--table", TABLE], "cli formula"),
    (["formula", "render", SENTENCE, "--format", "latex"], "cli formula"),
    (["sim", "abelian", "--k", "2", "--trace", "00,10,00", "--growth", "1"],
     "cli limitsim numtheory"),
    (["sim", "dihedral", "--trace", "10,00,10", "--growth", "1"],
     "cli dihedral limitsim numtheory"),
    (["sim", "rank1", "--char", CHAR, "--p", "3", "--q", "2", "--trace", "00,10,11",
      "--growth", "1"], "cli limitsim numtheory rank1"),
    (["sim", "cof", "--char", '{"exceptions":{},"default":{"linear":[1,1]}}', "--m", "6",
      "--w", "0,1,2,3,4,5", "--bound", "60"], "cli limitsim numtheory rank1"),
]
EVERY_SUBCOMMAND = [argv for argv, _ in FOOTPRINTS]


@pytest.mark.parametrize("argv, modules", FOOTPRINTS,
                         ids=[" ".join(argv[:2]) for argv in EVERY_SUBCOMMAND])
def test_subcommand_loads_exactly_its_modules(argv, modules):
    """A decision loads no ``formula``; ``words`` and ``sim abelian`` compute
    on integers alone and load no ``fractions`` either."""
    code = ("import contextlib, io, json, sys\n"
            "before = set(sys.modules)\n"
            "from scottgroups import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0\n"
            "new = set(sys.modules) - before\n"
            "package = sorted(m.split('.')[1] for m in new if m.startswith('scottgroups.'))\n"
            "print(json.dumps([package, 'fractions' in new]))")
    got, fractions = last_json_line(code)
    assert got == modules.split()
    if argv[0] == "words" or argv[:2] == ["sim", "abelian"]:
        assert not fractions


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


def test_concurrent_first_family_calls_wait_for_the_owner_import():
    # a thread may find an owner in sys.modules while another still runs its body
    code = ("import json, sys, threading\n"
            "sys.setswitchinterval(1e-6)\n"
            "from scottgroups import formula as F\n"
            "faults = []\n"
            "def first(enum_id, params):\n"
            "    try:\n"
            "        F.family('and', enum_id, params)\n"
            "    except Exception as exc:\n"
            "        faults.append(repr(exc))\n"
            "calls = [('dinf-relations', {'pair': ['a', 'b']}),\n"
            "         ('multiple-neq', {'var': 'x'}),\n"
            "         ('primes-divisible', {'target': 'y'}),\n"
            "         ('dinf-relations', {'pair': ['c', 'd']})]\n"
            "threads = [threading.Thread(target=first, args=c) for c in calls]\n"
            "for t in threads:\n"
            "    t.start()\n"
            "for t in threads:\n"
            "    t.join()\n"
            "print(json.dumps(faults))")
    for _ in range(3):
        assert last_json_line(code) == []

