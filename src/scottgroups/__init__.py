"""Decision procedures, Scott-sentence emitters, and construction
simulators for free groups, the infinite dihedral group, finitely
generated abelian groups, and rank-1 torsion-free abelian groups.

Importing the package loads none of its modules: each one listed in
``__all__`` loads on first use, as ``scottgroups.words`` or as the
attribute ``scottgroups.words``.  Family enumerations register themselves
when their module (``fgab``, ``dihedral`` or ``rank1``) loads; the formula
registry imports those modules on a miss, so formulas can be rebuilt from
their JSON form with no further setup.
"""

import importlib

__all__ = ["formula", "words", "dihedral", "fgab", "rank1", "limitsim",
           "acceptance", "cli"]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
