"""E12: the headline practicality row -- every library composition
against its full property batch.

The paper's Section 1/7 claim: the favourable single-peer verification
results of [11] should carry over to compositions.  This benchmark is the
composition-level measurement: end-to-end verification time of each
library application against all of its shipped properties (shared
transition cache, as a user would run it).
"""

import pytest

from repro.library import ecommerce, loan, travel
from repro.verifier import verification_domain, verify_all, verify

from harness import Row, report


def test_loan_property_batch(benchmark):
    composition = loan.loan_composition()
    databases = loan.standard_database("fair")
    domain = verification_domain(composition, [], databases,
                                 fresh_count=1)
    props = [
        loan.PROPERTY_BANK_POLICY_POINTWISE,
        loan.PROPERTY_LETTER_NEEDS_APPLICATION,
    ]

    def run():
        return [
            verify(composition, p, databases, domain=domain,
                   valuation_candidates=loan.STANDARD_CANDIDATES)
            for p in props
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(r.satisfied for r in results)
    total = sum(r.stats.wall_seconds for r in results)
    report(Row("E12", f"loan batch: {len(props)} properties",
               "SATISFIED", "SATISFIED",
               max(r.stats.system_states for r in results), total))


def test_ecommerce_property_batch(benchmark):
    composition = ecommerce.ecommerce_composition()
    databases = ecommerce.standard_database("good")
    domain = verification_domain(composition, [], databases,
                                 fresh_count=1)
    candidates = {"p": ("widget",), "card": ("visa", "amex")}
    props = [
        ecommerce.PROPERTY_SHIP_REQUIRES_AUTH,
        ecommerce.PROPERTY_NO_SHIP_ON_DECLINE,
        ecommerce.PROPERTY_AUTH_HONEST,
    ]

    def run():
        return [
            verify(composition, p, databases, domain=domain,
                   valuation_candidates=candidates)
            for p in props
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(r.satisfied for r in results)
    total = sum(r.stats.wall_seconds for r in results)
    report(Row("E12", f"e-commerce batch: {len(props)} properties",
               "SATISFIED", "SATISFIED",
               max(r.stats.system_states for r in results), total))


def test_travel_property_batch(benchmark):
    composition = travel.travel_composition()
    databases = travel.standard_database()
    domain = verification_domain(composition, [], databases,
                                 fresh_count=1)
    candidates = {"f": ("fl1",), "d": ("rome",)}
    props = [
        travel.PROPERTY_ITINERARY_CONFIRMED,
        travel.PROPERTY_OFFERS_FROM_CATALOG,
    ]

    def run():
        return [
            verify(composition, p, databases, domain=domain,
                   valuation_candidates=candidates)
            for p in props
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(r.satisfied for r in results)
    total = sum(r.stats.wall_seconds for r in results)
    report(Row("E12", f"travel batch: {len(props)} properties",
               "SATISFIED", "SATISFIED",
               max(r.stats.system_states for r in results), total))
