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


def loaded_after(code):
    """The scottgroups submodules loaded once ``code`` has run."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{REPORT}"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


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
