"""Acceptance suite: one test per criterion, one printed verdict line each.

The criteria live in fuchslab.selftest so the CLI `selftest` command runs
exactly the same checks. Everything is exact GF(2)/integer arithmetic; there
are no tolerances to tune.
"""

from fuchslab import selftest


def _check(result):
    print(f"{'PASS' if result.passed else 'FAIL'}: {result.name} [{result.detail}]")
    assert result.passed, f"{result.name}: {result.detail}"


def test_criterion_1_example_corpus():
    _check(selftest.criterion_1_basic_examples())


def test_criterion_2_odd_order_counting():
    _check(selftest.criterion_2_odd_order_counting())


def test_criterion_3_chain_ring_sweep():
    _check(selftest.criterion_3_chain_ring_sweep())


def test_criterion_4_witness_families():
    _check(selftest.criterion_4_witness_families())


def test_criterion_5_cyclic_sweep():
    _check(selftest.criterion_5_cyclic_sweep())


def test_criterion_6_negative_evidence():
    _check(selftest.criterion_6_negative_evidence())


def test_criterion_7_oracle_equivalence():
    _check(selftest.criterion_7_oracle_equivalence())


def test_criterion_8_structural_properties():
    _check(selftest.criterion_8_structural_properties())


def test_supplementary_agreement_sweep():
    _check(selftest.agreement_sweep(max_order=16))


def test_agreement_sweep_to_order_64():
    # all 20 fully realizable groups of order <= 64 pass the engine, with
    # none skipped: monoid generators decide the positives past the walk budget
    result = selftest.agreement_sweep(max_order=64)
    _check(result)
    assert result.detail == "23 checks"
