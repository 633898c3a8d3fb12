"""The distributed sweep: pool batches, sharding, crashes, start methods.

The determinism contract, tested differentially: the verdict, the
decisive valuation (and its global ``decisive_order``), and the
counterexample lasso must be bit-for-bit identical across

* worker counts (1 / 2 / 4),
* ``--shard`` runs -- a trivial 1-shard run and a 3-shard split merged
  back through :func:`repro.verifier.merge_fragments`,
* the ``fork`` and ``spawn`` start methods (with fair scheduling too),
* the interpreter's hash seed (``PYTHONHASHSEED``), and
* a pool crash: a worker killed mid-task must trip the
  ``BrokenProcessPool`` fallback, which re-runs the sweep in the driver
  with the same verdict.

Every pooled run must leave no child process behind.  Plus white-box
units for the grid pieces: ``plan_batches`` (batches never span a
``(group, ctx)`` exploration), ``shard_filter`` (disjoint complete
partition with global orders), ``resolve_shard`` validation and the
payload's pickle protocol.  A hypothesis property closes the loop over
random sender-receiver style compositions.
"""

import json
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.fo import Instance
from repro.library import ecommerce, payments
from repro.obs import counters_snapshot
from repro.runtime import validate_lasso
from repro.spec import Composition, PeerBuilder
from repro.spec.channels import DECIDABLE_DEFAULT
from repro.verifier import (
    SharedExploration, TransitionCache, merge_fragments, resolve_shard,
    result_from_merged, shard_filter, shard_fragment, verification_domain,
    verify,
)
from repro.verifier.domain import VerificationDomain
from repro.verifier.parallel import (
    SweepContext, SweepPayload, SweepTask, payload_to_bytes, plan_batches,
)

SAFETY = "forall x: G( R.got(x) -> S.items(x) )"
LIVENESS = "forall x: G( S.pick(x) -> F R.got(x) )"


def sender_receiver_case(items=("a", "b")):
    sender = (
        PeerBuilder("S")
        .database("items", 1)
        .input("pick", 1)
        .flat_out_queue("msg", 1)
        .input_rule("pick", ["x"], "items(x)")
        .send_rule("msg", ["x"], "pick(x)")
        .build()
    )
    receiver = (
        PeerBuilder("R")
        .state("got", 1)
        .flat_in_queue("msg", 1)
        .insert_rule("got", ["x"], "?msg(x)")
        .build()
    )
    comp = Composition([sender, receiver])
    dbs = {"S": Instance({"items": [(i,) for i in items]})}
    return comp, dbs


def _verify(comp, dbs, prop, **kwargs):
    dom = verification_domain(comp, [], dbs, fresh_count=1)
    return verify(comp, prop, dbs, domain=dom, **kwargs)


def _merged_shard_run(comp, dbs, prop, count, workers=1):
    """Run *count* shards separately and merge their fragments."""
    fragments = []
    for index in range(count):
        result = _verify(comp, dbs, prop, workers=workers,
                         shard=(index, count))
        fragments.append(
            shard_fragment([result], (index, count), composition=comp)
        )
    merged = merge_fragments(fragments)
    assert merged["shards"] == count
    return result_from_merged(merged["properties"][0])


def _assert_equivalent(reference, other, comp, dbs, dom_values):
    assert other.verdict == reference.verdict
    assert other.stats.decisive_order == reference.stats.decisive_order
    assert (other.stats.product_nodes_visited
            == reference.stats.product_nodes_visited)
    assert (other.stats.valuations_checked
            == reference.stats.valuations_checked)
    if reference.counterexample is None:
        assert other.counterexample is None
        return
    assert other.counterexample is not None
    assert (other.counterexample.valuation
            == reference.counterexample.valuation)
    assert other.counterexample.lasso == reference.counterexample.lasso
    problems = validate_lasso(comp, dbs, dom_values,
                              other.counterexample.lasso)
    assert not problems, problems


def _assert_no_children():
    children = multiprocessing.active_children()
    assert not children, children


# ---------------------------------------------------------------------------
# grid units


def _grid(n_tasks, groups=1, ctxs=1):
    tasks = []
    order = 0
    for group in range(groups):
        for ctx in range(ctxs):
            for _ in range(n_tasks):
                tasks.append(SweepTask(group=group, order=order, ctx=ctx,
                                       valuation=()))
                order += 1
    return tasks


def test_plan_batches_cover_grid_in_order():
    tasks = _grid(11, groups=2, ctxs=2)
    batches = plan_batches(tasks, workers=4)
    flat = [t for batch in batches for t in batch]
    assert flat == tasks  # nothing lost, global order preserved
    for batch in batches:
        assert len({(t.group, t.ctx) for t in batch}) == 1, (
            "a batch spans two explorations"
        )


def test_plan_batches_chunk_size_targets_steal_granularity():
    tasks = _grid(64)
    batches = plan_batches(tasks, workers=4)
    # 64 tasks / (4 workers * 4 batches each) -> chunks of 4
    assert max(len(b) for b in batches) == 4
    assert plan_batches([], workers=4) == []
    # tiny grids degrade to one-task batches, never to zero batches
    assert [len(b) for b in plan_batches(_grid(2), workers=8)] == [1, 1]


def test_shard_filter_is_a_partition():
    tasks = _grid(10, groups=2)
    count = 3
    shards = [shard_filter(tasks, (i, count)) for i in range(count)]
    seen = [t for shard in shards for t in shard]
    assert sorted(seen, key=lambda t: t.order) == tasks
    assert sum(len(s) for s in shards) == len(tasks)
    for i, shard in enumerate(shards):
        assert all(t.order % count == i for t in shard)
    assert shard_filter(tasks, None) == tasks
    assert shard_filter(tasks, (0, 1)) == tasks


def test_resolve_shard_validates():
    assert resolve_shard(None) is None
    assert resolve_shard((2, 3)) == (2, 3)
    for bad in ((3, 3), (-1, 2), (0, 0)):
        with pytest.raises(ValueError):
            resolve_shard(bad)


def test_payload_ships_at_highest_protocol():
    """The pool payload serializes with protocol 5, not the mp default."""
    comp, dbs = sender_receiver_case()
    dom = verification_domain(comp, [], dbs, fresh_count=1)
    cache = TransitionCache(comp, dbs, dom.values, DECIDABLE_DEFAULT)
    graph = SharedExploration(cache).complete()
    payload = SweepPayload(
        composition=comp,
        contexts=(SweepContext(tuple(sorted(dbs.items())), dom),),
        groups=(),
        semantics=DECIDABLE_DEFAULT,
        frozen_graph=graph,
    )
    data = payload_to_bytes(payload, workers=2)
    # pickle protocol 5 frames start with \x80\x05
    assert data[:2] == b"\x80\x05"
    clone = pickle.loads(data)
    assert clone.frozen_graph is not None
    assert clone.frozen_graph.num_states == graph.num_states


# ---------------------------------------------------------------------------
# differential: workers x shards


@pytest.mark.parametrize("prop,expected", [(SAFETY, True),
                                           (LIVENESS, False)])
def test_workers_and_shards_agree(prop, expected):
    comp, dbs = sender_receiver_case()
    dom = verification_domain(comp, [], dbs, fresh_count=1)
    reference = _verify(comp, dbs, prop, workers=1)
    assert reference.satisfied == expected, reference.summary()

    for workers in (2, 4):
        par = _verify(comp, dbs, prop, workers=workers)
        _assert_equivalent(reference, par, comp, dbs, dom.values)

    trivial = _verify(comp, dbs, prop, workers=2, shard=(0, 1))
    _assert_equivalent(reference, trivial, comp, dbs, dom.values)

    merged = _merged_shard_run(comp, dbs, prop, count=3, workers=2)
    _assert_equivalent(reference, merged, comp, dbs, dom.values)
    # the liveness case is violated early: pools cancel later tasks
    _assert_no_children()


def test_trivial_shard_matches_unsharded_stats():
    """``shard=(0, 1)`` is the unsharded sweep, explored just as lazily.

    ``order_resolved`` is violated at its first valuation, so neither
    run may expand more than the lazy search needs.
    """
    comp = ecommerce.ecommerce_composition()
    dbs = ecommerce.standard_database("good")
    cands = {"p": ("widget",), "card": ("visa", "amex")}
    runs = [
        _verify(comp, dbs, ecommerce.PROPERTY_ORDER_RESOLVED, workers=1,
                valuation_candidates=cands, **shard)
        for shard in ({}, {"shard": (0, 1)})
    ]
    plain, sharded = (r.stats for r in runs)
    assert sharded.system_states == plain.system_states
    assert sharded.product_nodes_visited == plain.product_nodes_visited
    assert sharded.valuations_checked == plain.valuations_checked == 1


def test_shard_conflicts_are_rejected():
    comp, dbs = sender_receiver_case()
    dom = verification_domain(comp, [], dbs, fresh_count=1)
    for bad in ((2, 2), (0, 0)):
        with pytest.raises(ValueError, match="shard"):
            verify(comp, SAFETY, dbs, domain=dom, shard=bad)


# ---------------------------------------------------------------------------
# crash robustness


def test_pool_crash_falls_back_sequentially(monkeypatch):
    """Killing a worker mid-task must not change the verdict or leak."""
    comp, dbs = sender_receiver_case()
    reference = _verify(comp, dbs, LIVENESS, workers=1)

    monkeypatch.setenv("REPRO_TEST_KILL_TASK", "0")
    before = counters_snapshot()
    crashed = _verify(comp, dbs, LIVENESS, workers=2)
    after = counters_snapshot()

    broke = (after.get("sweep.pool_broken", 0)
             - before.get("sweep.pool_broken", 0))
    assert broke >= 1, "the killed worker did not trip the pool fallback"
    assert crashed.verdict == reference.verdict
    assert (crashed.counterexample.valuation
            == reference.counterexample.valuation)
    assert crashed.counterexample.lasso == reference.counterexample.lasso
    _assert_no_children()


def test_killed_worker_leaves_no_children(monkeypatch):
    """Process hygiene under the worst crash: a worker dies mid-task.

    The pool must fall back to the in-process run with the same verdict
    and reap every worker -- a crashed sweep must not leave processes
    behind.
    """
    comp = payments.payments_composition()
    dbs = payments.standard_database()
    prop = payments.PROPERTY_REFUND_AFTER_CAPTURE
    reference = verify(
        comp, prop, dbs,
        valuation_candidates=payments.STANDARD_CANDIDATES, workers=1,
    )

    monkeypatch.setenv("REPRO_TEST_KILL_TASK", "0")
    before = counters_snapshot()
    crashed = verify(
        comp, prop, dbs,
        valuation_candidates=payments.STANDARD_CANDIDATES, workers=2,
    )
    after = counters_snapshot()

    broke = (after.get("sweep.pool_broken", 0)
             - before.get("sweep.pool_broken", 0))
    assert broke >= 1, "the killed worker did not trip the pool fallback"
    assert crashed.verdict == reference.verdict == "VIOLATED"
    assert (crashed.counterexample.lasso
            == reference.counterexample.lasso)
    _assert_no_children()


# ---------------------------------------------------------------------------
# start methods


def test_spawn_start_method_smoke(monkeypatch):
    """The pool works (and stays deterministic) under spawn workers."""
    comp, dbs = sender_receiver_case()
    dom = verification_domain(comp, [], dbs, fresh_count=1)
    reference = _verify(comp, dbs, LIVENESS, workers=1)
    monkeypatch.setenv("REPRO_START_METHOD", "spawn")
    par = _verify(comp, dbs, LIVENESS, workers=2)
    _assert_equivalent(reference, par, comp, dbs, dom.values)
    _assert_no_children()


FAIR_PROP = "forall x, y: G( P1.seen(x) & P1.seen(y) -> x = y )"
FAIR_DOMAIN = VerificationDomain(("a",), ("$f0", "$f1"))


def open_relay_case():
    """An open composition: P0 sends to the environment, which feeds P1."""
    sender = (
        PeerBuilder("P0")
        .database("items", 1)
        .input("pick", 1)
        .flat_out_queue("outbound", 1)
        .input_rule("pick", ["x"], "items(x)")
        .send_rule("outbound", ["x"], "pick(x)")
        .build()
    )
    receiver = (
        PeerBuilder("P1")
        .state("seen", 1)
        .flat_in_queue("inbound", 1)
        .insert_rule("seen", ["x"], "?inbound(x)")
        .build()
    )
    comp = Composition([sender, receiver])
    return comp, {"P0": Instance({"items": [("a",)]})}


def _fair_probe(workers):
    """The open relay under fair scheduling: its two Until-bearing
    fairness terms make the automaton's acceptance order matter."""
    comp, dbs = open_relay_case()
    return verify(comp, FAIR_PROP, dbs, domain=FAIR_DOMAIN,
                  fair_scheduling=True, workers=workers)


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_fair_scheduling_across_workers_and_start_methods(monkeypatch,
                                                          start_method):
    comp, dbs = open_relay_case()
    reference = _fair_probe(workers=1)
    assert not reference.satisfied
    monkeypatch.setenv("REPRO_START_METHOD", start_method)
    par = _fair_probe(workers=2)
    _assert_equivalent(reference, par, comp, dbs, FAIR_DOMAIN.values)
    _assert_no_children()


_HASH_SEED_PROBE = """
import json
from tests.test_distributed_sweep import _fair_probe
r = _fair_probe(workers=1)
cex = r.counterexample
key = lambda s: (s.mover, sorted(s.enqueued), sorted(s.sent),
                 sorted((n, sorted(map(repr, rows)))
                        for n, rows in s.data.items()),
                 [(n, [sorted(map(repr, m)) for m in c])
                  for n, c in s.queues])
print(json.dumps({
    "nodes": r.stats.product_nodes_visited,
    "valuation": sorted(cex.valuation.items()),
    "lasso": repr(([key(s) for s in cex.lasso.prefix],
                   [key(s) for s in cex.lasso.cycle])),
}))
"""


def test_verdict_independent_of_hash_seed():
    """Node counts and lassos do not follow ``PYTHONHASHSEED``."""
    root = Path(__file__).resolve().parent.parent
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       [str(root / "src"), str(root)]))
        out = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_PROBE], env=env, cwd=root,
            capture_output=True, text=True, check=True,
        ).stdout
        runs.append(json.loads(out.strip().splitlines()[-1]))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# hypothesis: random compositions, random shard splits


@settings(max_examples=5, deadline=None)
@given(
    items=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1,
                   max_size=3, unique=True),
    prop=st.sampled_from([SAFETY, LIVENESS]),
    count=st.integers(min_value=1, max_value=3),
)
def test_shard_merge_matches_sequential(items, prop, count):
    comp, dbs = sender_receiver_case(tuple(items))
    dom = verification_domain(comp, [], dbs, fresh_count=1)
    reference = _verify(comp, dbs, prop, workers=1)
    merged = _merged_shard_run(comp, dbs, prop, count=count, workers=1)
    _assert_equivalent(reference, merged, comp, dbs, dom.values)
