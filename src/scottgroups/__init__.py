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


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a record."""


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls=None, /, *, hidden: tuple[str, ...] = ()):
    """Make ``cls`` an immutable record of its annotated fields, as
    ``dataclasses.dataclass(frozen=True)`` does, and with methods of the same
    shape: ``__init__`` over the fields in order (a class attribute is the
    field's default), then ``__post_init__`` when the class has one;
    ``__eq__``, ``__hash__`` and ``__repr__`` over the fields not in
    ``hidden``; ``__setattr__`` and ``__delattr__`` raise
    ``FrozenInstanceError``.

    The ``dataclasses`` module is not used because importing it loads
    ``inspect``, ``ast`` and ``dis``, a large share of a CLI call's start-up,
    and it takes about three times as long to decorate a class.
    """
    if cls is None:
        return lambda c: record(c, hidden=hidden)
    names = list(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    shown = [n for n in names if n not in hidden]
    own = "".join("self.%s," % n for n in shown)
    source = _RECORD_METHODS.format(
        params="".join(", %s=__default_%s" % (n, n) if n in defaults else ", " + n
                       for n in names),
        sets="".join("\n    __set(self, %r, %s)" % (n, n) for n in names),
        post="\n    self.__post_init__()" if hasattr(cls, "__post_init__") else "",
        own=own, other=own.replace("self.", "other."),
        fields=", ".join("%s={self.%s!r}" % (n, n) for n in shown))
    namespace = {"__set": object.__setattr__}
    namespace.update(("__default_" + n, v) for n, v in defaults.items())
    exec(source, namespace)
    for name in ("__init__", "__eq__", "__hash__", "__repr__"):
        fn = namespace[name]
        fn.__qualname__ = cls.__qualname__ + "." + name
        setattr(cls, name, fn)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls


# the methods ``record`` writes; str.format fills in the fields
_RECORD_METHODS = """\
def __init__(self{params}):{sets}{post}
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({own}) == ({other})
    return NotImplemented
def __hash__(self):
    return hash(({own}))
def __repr__(self):
    return f'{{self.__class__.__qualname__}}({fields})'
"""
