"""E14 (PR5): shared-exploration sweep -- cross-valuation reuse.

The shared engine interns global states, freezes the reachable snapshot
graph after the first valuation (sound by Theorem 3.4: the snapshot
graph does not depend on the valuation), and memoizes per-state letter
fragments across valuations.  Rows measured here:

* a wide loan sweep (>= 8 valuations of the letter property) run
  sequentially by ``verify`` and by the per-valuation reference checker
  (``verify_reference``, the case keys' "seed") -- the shared sweep
  must be at least ``REPRO_BENCH_MIN_SPEEDUP`` (default 3x) faster;
* the same sweep's graph counters -- the run must show frozen-graph
  serving (``graph.reuse_hits``) and at most ONE full expansion
  (``product.states_expanded``), not one per valuation;
* a quick parity row over the standard candidates for the CI smoke
  job: ``verify`` and the reference agree node for node.

All rows land in ``BENCH_PR5.json`` (see harness.snapshot_metrics).
"""

import os

import pytest

from repro.library.loan import (
    PROPERTY_LETTER_NEEDS_APPLICATION, STANDARD_CANDIDATES,
    loan_composition, standard_database,
)
from repro.obs import counters_snapshot
from repro.verifier import verification_domain, verify, verify_reference

from harness import record, snapshot_metrics

EXPERIMENT = "PR5"

#: Candidate pool for the wide sweep: every value is drawn from the
#: standard database's active domain, widened so the letter property is
#: checked under 180 canonical valuations (>= 8 required by the
#: experiment definition) -- enough for the cross-valuation caches to
#: amortise the one-off freeze.
WIDE_CANDIDATES = {
    "id": ("c1", "s1", "ann", "small", "acct1"),
    "name": ("ann", "c1", "small", "high"),
    "loan": ("small", "large", "c1", "fair"),
    "dec": ("approved", "denied", "large", "high"),
}


def _min_speedup() -> float:
    raw = os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "").strip()
    return float(raw) if raw else 3.0


def _sweep(check=verify, candidates=WIDE_CANDIDATES, **kwargs):
    """One loan letter sweep, by ``verify`` or ``verify_reference``."""
    composition = loan_composition()
    databases = standard_database("fair")
    domain = verification_domain(composition, [], databases,
                                 fresh_count=1)
    return check(composition, PROPERTY_LETTER_NEEDS_APPLICATION,
                 databases, domain=domain,
                 valuation_candidates=candidates, **kwargs)


def test_shared_vs_seed_sequential(benchmark):
    """The tentpole row: one frozen graph amortised over the sweep."""
    seed = _sweep(verify_reference)
    shared = benchmark.pedantic(_sweep, kwargs={"workers": 1},
                                rounds=1, iterations=1)
    assert seed.stats.valuations_checked >= 8
    assert (shared.stats.product_nodes_visited
            == seed.stats.product_nodes_visited)
    speedup = seed.stats.wall_seconds / shared.stats.wall_seconds
    case = "loan letter sweep, shared vs seed"
    snapshot_metrics(EXPERIMENT, f"{case} [seed]", seed)
    snapshot_metrics(EXPERIMENT, f"{case} [shared]", shared,
                     extra={"speedup": speedup})
    floor = _min_speedup()
    assert speedup >= floor, (
        f"shared sweep only {speedup:.2f}x faster than the reference "
        f"(required {floor:.1f}x): reference={seed.stats.wall_seconds:.3f}s "
        f"shared={shared.stats.wall_seconds:.3f}s"
    )


def test_sweep_serves_frozen_graph(benchmark):
    """Valuations walk the frozen graph; nobody re-expands it."""
    before = counters_snapshot()
    result = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    after = counters_snapshot()
    record(EXPERIMENT, "loan letter sweep, frozen graph", result, True)

    reuse = after.get("graph.reuse_hits", 0) - before.get(
        "graph.reuse_hits", 0)
    expanded = after.get("product.states_expanded", 0) - before.get(
        "product.states_expanded", 0)
    snapshot_metrics(EXPERIMENT, "frozen-graph counters", result,
                     extra={"reuse_hits": reuse,
                            "states_expanded": expanded})
    assert reuse > 0, "no frozen-graph serving recorded"
    # One expansion at most: re-expanding per valuation would show
    # ~valuations * |graph| here.
    assert expanded <= result.stats.system_states, (
        f"graph re-expanded: {expanded} states expanded for a "
        f"{result.stats.system_states}-state frozen graph"
    )


def test_quick_parity(benchmark):
    """CI smoke row: standard candidates, sweep vs reference."""
    seed = _sweep(verify_reference, candidates=STANDARD_CANDIDATES)
    shared = benchmark.pedantic(
        _sweep, kwargs={"workers": 1, "candidates": STANDARD_CANDIDATES},
        rounds=1, iterations=1,
    )
    record(EXPERIMENT, "loan letter, standard candidates [shared]",
           shared, True)
    assert shared.verdict == seed.verdict
    assert (shared.stats.product_nodes_visited
            == seed.stats.product_nodes_visited)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q", "--benchmark-only"]))
