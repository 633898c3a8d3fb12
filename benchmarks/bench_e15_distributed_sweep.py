"""E15: the valuation sweep against the per-valuation reference.

The sweep freezes the valuation-independent reachable graph (Theorem
3.4) once and walks it for every valuation.  One row pair, on the
180-valuation E14 loan sweep: the per-valuation reference checker
(``verify_reference``, case key "seed x1") and ``verify`` (case key
"shared x1"), with verdict and node-count equality asserted.

The committed ``BENCH_PR6.json`` also holds the rows of earlier
shared-memory and process-pool modes (x2/x4 cells, graph shipping);
they stay on file as history.  New rows land in the same file (see
harness.snapshot_metrics).
"""

import pytest

from repro.library.loan import (
    PROPERTY_LETTER_NEEDS_APPLICATION, loan_composition,
    standard_database,
)
from repro.verifier import verification_domain, verify, verify_reference

from harness import record, snapshot_metrics

EXPERIMENT = "PR6"

#: The E14 wide sweep: 180 canonical valuations of the letter property.
WIDE_CANDIDATES = {
    "id": ("c1", "s1", "ann", "small", "acct1"),
    "name": ("ann", "c1", "small", "high"),
    "loan": ("small", "large", "c1", "fair"),
    "dec": ("approved", "denied", "large", "high"),
}


def _sweep(check=verify, **kwargs):
    """One wide loan sweep, by ``verify`` or ``verify_reference``."""
    composition = loan_composition()
    databases = standard_database("fair")
    domain = verification_domain(composition, [], databases,
                                 fresh_count=1)
    return check(composition, PROPERTY_LETTER_NEEDS_APPLICATION,
                 databases, domain=domain,
                 valuation_candidates=WIDE_CANDIDATES, **kwargs)


def test_engine_worker_grid(benchmark):
    """The reference checker vs the in-process ``verify`` sweep."""
    reference = _sweep(verify_reference)
    record(EXPERIMENT, "loan letter sweep [seed x1]", reference, True)
    assert reference.stats.valuations_checked >= 8

    result = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    case = "loan letter sweep [shared x1]"
    record(EXPERIMENT, case, result, True)
    snapshot_metrics(EXPERIMENT, case, result,
                     extra={"workers": 1,
                            "seconds": result.stats.wall_seconds})
    assert result.verdict == reference.verdict
    assert (result.stats.product_nodes_visited
            == reference.stats.product_nodes_visited), (
        f"{case}: node counts diverged from seed reference"
    )
    assert (result.stats.valuations_checked
            == reference.stats.valuations_checked)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q", "--benchmark-only"]))
