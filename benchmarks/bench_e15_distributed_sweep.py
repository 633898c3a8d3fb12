"""E15: the pooled valuation sweep at 1/2/4 workers.

The driver freezes the valuation-independent reachable graph (Theorem
3.4) once, pickles it into the worker payload once, and ships it to
every worker of a ``ProcessPoolExecutor`` through the executor's
initializer; batches of valuations run in global order and the
lowest-order violated task decides.  Rows measured here, all on the
180-valuation E14 loan sweep:

* a worker grid -- the per-valuation reference checker
  (``verify_reference``, case key "seed x1") first, then ``verify`` at
  1/2/4 workers, with verdict and node-count equality asserted against
  the reference on every cell;
* the shipping-cost row -- at 4 workers the ``graph.shm_bytes_shipped``
  counter must record the pickled graph bytes times the worker count.

The committed ``BENCH_PR6.json`` also holds the rows of an earlier
shared-memory shipping mode; they stay on file as history.  New rows
land in the same file (see harness.snapshot_metrics).
"""

import pytest

from repro.library.loan import (
    PROPERTY_LETTER_NEEDS_APPLICATION, loan_composition,
    standard_database,
)
from repro.obs import counters_snapshot
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

WORKER_GRID = (1, 2, 4)


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
    """The reference checker vs ``verify`` at 1/2/4 workers."""
    reference = _sweep(verify_reference)
    record(EXPERIMENT, "loan letter sweep [seed x1]", reference, True)
    assert reference.stats.valuations_checked >= 8

    def _grid():
        return [(workers, _sweep(workers=workers))
                for workers in WORKER_GRID]

    rows = benchmark.pedantic(_grid, rounds=1, iterations=1)
    for workers, result in rows:
        case = f"loan letter sweep [shared x{workers}]"
        record(EXPERIMENT, case, result, True)
        snapshot_metrics(EXPERIMENT, case, result,
                         extra={"workers": workers,
                                "seconds": result.stats.wall_seconds})
        assert result.verdict == reference.verdict
        assert (result.stats.product_nodes_visited
                == reference.stats.product_nodes_visited), (
            f"{case}: node counts diverged from seed reference"
        )
        assert (result.stats.valuations_checked
                == reference.stats.valuations_checked)


def test_pool_ships_graph_bytes(benchmark):
    """The graph pickle crosses once per worker, and is counted."""
    before = counters_snapshot()
    result = benchmark.pedantic(
        _sweep, kwargs={"workers": 4}, rounds=1, iterations=1,
    )
    after = counters_snapshot()
    record(EXPERIMENT, "graph shipping x4", result, True)
    shipped = (after.get("graph.shm_bytes_shipped", 0)
               - before.get("graph.shm_bytes_shipped", 0))
    snapshot_metrics(EXPERIMENT, "graph-shipping counters x4", result,
                     extra={"shm_bytes_shipped": shipped})
    assert shipped > 0, (
        "the pool recorded no shipped graph bytes; the "
        "graph.shm_bytes_shipped accounting is broken"
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q", "--benchmark-only"]))
