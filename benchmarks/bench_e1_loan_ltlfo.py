"""E1: the paper's loan composition under its Example 3.2 properties.

Rows reproduced (EXPERIMENTS.md, E1):

* the pointwise bank policy holds for every credit category;
* the seeded poor->approved bug is caught with a counterexample;
* property (11) (responsiveness, liveness) is VIOLATED under lossy
  channels -- finding E1-F1;
* the literal ``G(... B ...)`` form of property (12) is VIOLATED by
  re-evaluation at the letter snapshot -- finding E1-F2.
"""

import pytest

from repro.library.loan import (
    CREDIT_CATEGORIES, PROPERTY_BANK_POLICY, PROPERTY_BANK_POLICY_POINTWISE,
    PROPERTY_LETTER_NEEDS_APPLICATION, PROPERTY_RESPONSIVENESS,
    STANDARD_CANDIDATES, loan_composition, standard_database,
)
from repro.verifier import verification_domain, verify

from harness import record


def _run(category, prop, buggy=False):
    composition = loan_composition(buggy_officer=buggy)
    databases = standard_database(category)
    domain = verification_domain(composition, [], databases, fresh_count=1)
    return verify(composition, prop, databases, domain=domain,
                  valuation_candidates=STANDARD_CANDIDATES)


@pytest.mark.parametrize("category", CREDIT_CATEGORIES)
def test_bank_policy_all_categories(benchmark, category):
    result = benchmark.pedantic(
        _run, args=(category, PROPERTY_BANK_POLICY_POINTWISE),
        rounds=1, iterations=1,
    )
    record("E1", f"bank policy, category={category}", result, True)


def test_buggy_officer_caught(benchmark):
    result = benchmark.pedantic(
        _run, args=("poor", PROPERTY_BANK_POLICY_POINTWISE, True),
        rounds=1, iterations=1,
    )
    record("E1", "bank policy, seeded poor->approved bug", result, False)
    assert result.counterexample.valuation["id"] == "c1"


def test_letter_needs_application(benchmark):
    result = benchmark.pedantic(
        _run, args=("fair", PROPERTY_LETTER_NEEDS_APPLICATION),
        rounds=1, iterations=1,
    )
    record("E1", "letters require saved applications", result, True)


def test_responsiveness_liveness_f1(benchmark):
    result = benchmark.pedantic(
        _run, args=("fair", PROPERTY_RESPONSIVENESS),
        rounds=1, iterations=1,
    )
    record("E1", "property (11), lossy channels [finding F1]",
           result, False)


def test_literal_b_form_f2(benchmark):
    result = benchmark.pedantic(
        _run, args=("fair", PROPERTY_BANK_POLICY),
        rounds=1, iterations=1,
    )
    record("E1", "property (12) literal B form [finding F2]",
           result, False)
