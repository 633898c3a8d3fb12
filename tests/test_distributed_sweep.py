"""The sweep split: sharding, worker counts, hash seeds.

The determinism contract, tested differentially: the verdict, the
decisive valuation (and its global ``decisive_order``), and the
counterexample lasso must be bit-for-bit identical across

* the ``workers=`` keyword (0 / 2 / 4), which has no effect: every
  sweep runs in process,
* ``--shard`` runs -- a trivial 1-shard run and a 3-shard split merged
  back through :func:`repro.verifier.merge_fragments` (with fair
  scheduling too), and
* the interpreter's hash seed (``PYTHONHASHSEED``).

Plus white-box units for the grid pieces: ``shard_filter`` (disjoint
complete partition with global orders) and ``resolve_shard``
validation.  A hypothesis property closes the loop over random
sender-receiver style compositions.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.fo import Instance
from repro.library import ecommerce
from repro.runtime import validate_lasso
from repro.spec import Composition, PeerBuilder
from repro.verifier import (
    merge_fragments, resolve_shard, result_from_merged, shard_filter,
    shard_fragment, verification_domain, verify,
)
from repro.verifier.domain import VerificationDomain
from repro.verifier.parallel import SweepTask

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
    return _merged(comp, count, lambda shard: _verify(
        comp, dbs, prop, workers=workers, shard=shard))


def _merged(comp, count, run):
    """Merge the fragments of ``run(shard)`` over *count* shards."""
    fragments = [
        shard_fragment([run((index, count))], (index, count),
                       composition=comp)
        for index in range(count)
    ]
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


def _task_rows(result):
    """The per-task rows of a run, minus their wall times."""
    return [(t.group, t.order, t.nba_states, t.product_nodes,
             t.system_states, t.cancelled) for t in result.stats.per_task]


def _assert_same_run(reference, other):
    """Everything but timing: the same tasks ran and counted alike."""
    for key in ("tasks_run", "tasks_cancelled", "system_states",
                "nba_states_total"):
        assert getattr(other.stats, key) == getattr(reference.stats, key)
    assert _task_rows(other) == _task_rows(reference)


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


# ---------------------------------------------------------------------------
# differential: workers x shards


@pytest.mark.parametrize("prop,expected", [(SAFETY, True),
                                           (LIVENESS, False)])
def test_workers_and_shards_agree(prop, expected):
    comp, dbs = sender_receiver_case()
    dom = verification_domain(comp, [], dbs, fresh_count=1)
    reference = _verify(comp, dbs, prop, workers=1)
    assert reference.satisfied == expected, reference.summary()

    for workers in (0, 2, 4):
        other = _verify(comp, dbs, prop, workers=workers)
        _assert_equivalent(reference, other, comp, dbs, dom.values)
        _assert_same_run(reference, other)

    trivial = _verify(comp, dbs, prop, workers=2, shard=(0, 1))
    _assert_equivalent(reference, trivial, comp, dbs, dom.values)

    merged = _merged_shard_run(comp, dbs, prop, count=3, workers=2)
    _assert_equivalent(reference, merged, comp, dbs, dom.values)


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


@pytest.mark.parametrize("split", ["workers", "shards"])
def test_fair_scheduling_across_worker_counts_and_shards(split):
    comp, dbs = open_relay_case()
    reference = _fair_probe(workers=1)
    assert not reference.satisfied
    if split == "workers":
        other = _fair_probe(workers=2)
        _assert_equivalent(reference, other, comp, dbs, FAIR_DOMAIN.values)
        _assert_same_run(reference, other)
    else:
        merged = _merged(comp, 2, lambda shard: verify(
            comp, FAIR_PROP, dbs, domain=FAIR_DOMAIN, fair_scheduling=True,
            shard=shard))
        _assert_equivalent(reference, merged, comp, dbs, FAIR_DOMAIN.values)


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
