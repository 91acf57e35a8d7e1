"""Decision procedures, Scott-sentence emitters, and construction
simulators for free groups, the infinite dihedral group, finitely
generated abelian groups, and rank-1 torsion-free abelian groups.

Importing the package loads none of its modules: each one listed in
``__all__`` loads on first use, as ``scottgroups.words`` or as the
attribute ``scottgroups.words``.  Only sentence code imports ``formula``.
``fgab``, ``dihedral`` and ``rank1`` declare their families in ``FAMILIES``
tables (builder, parameter kinds, member level, bound variables);
``formula.family`` decodes the parameters and imports all three on a miss,
so formulas can be rebuilt from their JSON form with no further setup.
"""

import functools
import importlib

__all__ = ["formula", "words", "dihedral", "fgab", "rank1", "limitsim",
           "acceptance", "cli"]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def is_json_int(v: object) -> bool:
    """Whether ``v`` decoded as a JSON integer: an int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def json_int(v) -> int:
    """``v`` if it decoded as a JSON integer; a float, a string or a boolean
    raises ValueError rather than being truncated or parsed."""
    if not is_json_int(v):
        raise ValueError(f"expected an integer, got {v!r}")
    return v


@functools.cache
def formula_module():
    """The ``formula`` module, imported on the first call.  The sentence and
    family code of ``dihedral``, ``fgab`` and ``rank1`` reaches ``formula``
    through it, so a call that builds no sentence loads no ``formula``, and
    a later call costs one cache lookup where a function-level
    ``from . import formula`` runs importlib's ``_handle_fromlist`` each time."""
    from . import formula
    return formula


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a record."""


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls=None, /, *, compare: tuple[str, ...] | None = None):
    """Make ``cls`` an immutable record of its annotated fields, as
    ``dataclasses.dataclass(frozen=True)`` does, and with methods of the same
    shape: ``__init__`` over the fields in order (a class attribute is the
    field's default), then ``__post_init__`` when the class has one;
    ``__eq__``, ``__hash__`` and ``__repr__`` over the attributes named in
    ``compare``, in order, which may leave fields out or name properties,
    and by default over the fields; ``__setattr__`` and ``__delattr__`` raise
    ``FrozenInstanceError``.

    The ``dataclasses`` module is not used because importing it loads
    ``inspect``, ``ast`` and ``dis``, a large share of a CLI call's start-up,
    and it takes about three times as long to decorate a class.
    """
    if cls is None:
        return lambda c: record(c, compare=compare)
    names = list(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    shown = names if compare is None else compare
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
