"""The package's record classes behave as ``dataclasses.dataclass(frozen=True)``
twins of them do: the same equality, hash and repr, and no assignment."""

import dataclasses
from typing import Callable

import pytest

from scottgroups import FrozenInstanceError, record
from scottgroups import formula as F
from scottgroups import limitsim as L
from scottgroups import words as W


def twin_of(cls, fields, namespace=None):
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True,
                                      namespace=namespace)


def hash_or_error(x):
    try:
        return hash(x)
    except TypeError:  # a field holds a dict
        return TypeError


def assert_alike(ours, twin, args_list):
    """Instances built from each argument tuple agree with the twin's on
    equality (pairwise), hash, repr and assignment."""
    mine = [ours(*args) for args in args_list]
    theirs = [twin(*args) for args in args_list]
    for a, ta in zip(mine, theirs):
        assert repr(a) == repr(ta)
        assert hash_or_error(a) == hash_or_error(ta)
        assert (a == 0) is (ta == 0) is False
        for b, tb in zip(mine, theirs):
            assert (a == b) is (ta == tb)
            assert (a != b) is (ta != tb)
        for name in [f.name for f in dataclasses.fields(twin)] + ["extra"]:
            with pytest.raises(AttributeError):
                setattr(ta, name, None)
            with pytest.raises(FrozenInstanceError):
                setattr(a, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(a, name)


def test_free_word_validates_in_post_init():
    twin = twin_of(W.FreeWord, [("rank", int), ("letters", tuple)],
                   {"__post_init__": W.FreeWord.__post_init__})
    assert_alike(W.FreeWord, twin, [(1, ()), (2, ((0, 1), (1, -1))), (2, ((0, 1), (1, -1))),
                                    (3, ((0, 1), (1, -1))), (2, ((1, 1),))])
    for bad in [(0, ()), (2, ((0, 1), (0, -1))), (2, ((2, 1),))]:
        with pytest.raises(ValueError):
            W.FreeWord(*bad)
        with pytest.raises(ValueError):
            twin(*bad)


def test_family_and_leaves_gen_out_of_eq_hash_and_repr():
    twin = twin_of(F.FamilyAnd, [("note", F.FamilyNote),
                                 ("gen", Callable, dataclasses.field(compare=False, repr=False))])
    note = F.FamilyNote("multiple-neq", '{"var": "x"}', None)
    other = F.FamilyNote("multiple-neq", '{"var": "y"}', 4)

    def gen(i):
        return F.Atomic(F.ZERO, F.ZERO)

    assert_alike(F.FamilyAnd, twin, [(note, gen), (note, print), (other, gen)])
    assert F.FamilyAnd(note, gen).gen is gen


def test_stage_report_default():
    twin = twin_of(L.StageReport, [("stage", int), ("target_tag", str), ("partial_map", dict),
                                   ("diagram_delta", tuple), ("fact_count", int),
                                   ("resumed_from", int, dataclasses.field(default=None))])
    assert_alike(L.StageReport, twin, [(0, "Z1", {0: (0, 0)}, (("neq", 0, 1),), 1),
                                       (0, "Z1", {0: (0, 0)}, (("neq", 0, 1),), 1, None),
                                       (1, "Z2", {}, (), 3, 0)])
    assert L.StageReport(0, "t", {}, (), 0).resumed_from is None


def test_verification_report_default():
    twin = twin_of(L.VerificationReport,
                   [("ok", bool), ("checks", tuple),
                    ("caveat", str, dataclasses.field(default=L.PREFIX_CAVEAT))])
    assert_alike(L.VerificationReport, twin, [(True, (("a", True, ""),)),
                                              (True, (("a", True, ""),), L.PREFIX_CAVEAT),
                                              (False, (), "none")])
    assert L.VerificationReport(True, ()).caveat == L.PREFIX_CAVEAT


def test_record_arguments_and_missing_fields():
    @record
    class Pair:
        left: int
        right: int = 2

    assert Pair(1) == Pair(1, 2) == Pair(left=1) and Pair(1) != Pair(2)
    with pytest.raises(TypeError):
        Pair()
    with pytest.raises(TypeError):
        Pair(1, 2, 3)
