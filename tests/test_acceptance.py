"""The acceptance gate: one test per criterion, each printing its verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines and timings, or via the CLI as ``scottgroups --selftest``.
"""

from scottgroups import acceptance


def _run(name, fn):
    ok, detail = fn()
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_words_primitivity_oracle():
    _run("words-primitivity-oracle", acceptance.criterion_words_oracle)


def test_criterion_2_dinf_generation_oracle():
    _run("dinf-generation-oracle", acceptance.criterion_dinf_oracle)


def test_criterion_3_finite_scott_sentences():
    _run("finite-scott-sentences", acceptance.criterion_finite_scott)


def test_criterion_4_classifier_conformance():
    _run("classifier-conformance", acceptance.criterion_classifier)


def test_criterion_5_rank1_case_table():
    _run("rank1-case-table", acceptance.criterion_rank1_table)


def test_criterion_6_construction_soundness():
    _run("construction-soundness", acceptance.criterion_construction_sweep)


def test_criterion_7_derived_structure_separation():
    _run("derived-structure-separation", acceptance.criterion_derived_separation)


def test_criterion_8_finite_refutation():
    _run("finite-refutation", acceptance.criterion_finite_refutation)
