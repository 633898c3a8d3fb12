"""Observability must not change what the verifier computes.

Differential tests: running a verification with tracing + metrics
collection enabled yields exactly the same verdict, decisive
counterexample valuation, and aggregated ``product_nodes_visited`` as
the plain run -- with ``workers=`` at 1 and at 4, which has no effect.
(Phase timers and counters are always on; tracing is the only
observability feature with an on/off switch, so the pairs differ in
the most invasive configuration available.)
"""

import json

import pytest

from repro.fo import Instance
from repro.library import loan
from repro.obs import REGISTRY, configure_tracing
from repro.spec import Composition, PeerBuilder
from repro.verifier import verification_domain, verify


@pytest.fixture(autouse=True)
def _clean_obs():
    REGISTRY.reset()
    configure_tracing(None)
    yield
    REGISTRY.reset()
    configure_tracing(None)


def sender_receiver_case():
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
    dbs = {"S": Instance({"items": [("a",), ("b",)]})}
    return comp, dbs


def _cases():
    sr_comp, sr_dbs = sender_receiver_case()
    loan_comp = loan.loan_composition()
    return [
        ("sr-liveness", sr_comp, sr_dbs,
         "forall x: G( S.pick(x) -> F R.got(x) )", None, False),
        # two canonical valuations after candidate filtering
        ("loan-letter", loan_comp, loan.standard_database("fair"),
         loan.PROPERTY_LETTER_NEEDS_APPLICATION,
         loan.STANDARD_CANDIDATES, True),
    ]


CASES = _cases()


def _run(comp, dbs, prop, candidates, workers):
    dom = verification_domain(comp, [], dbs, fresh_count=1)
    return verify(comp, prop, dbs, domain=dom,
                  valuation_candidates=candidates, workers=workers)


@pytest.mark.obs
@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize(
    "label,comp,dbs,prop,candidates,expected",
    CASES, ids=[c[0] for c in CASES],
)
def test_observed_run_matches_plain_run(tmp_path, label, comp, dbs, prop,
                                        candidates, expected, workers):
    plain = _run(comp, dbs, prop, candidates, workers)

    trace_file = tmp_path / f"{label}-w{workers}.jsonl"
    configure_tracing(str(trace_file))
    observed = _run(comp, dbs, prop, candidates, workers)
    configure_tracing(None)

    assert plain.satisfied == expected, plain.summary()
    assert observed.verdict == plain.verdict
    assert (observed.stats.product_nodes_visited
            == plain.stats.product_nodes_visited)
    assert (observed.stats.valuations_checked
            == plain.stats.valuations_checked)
    if expected:
        assert observed.counterexample is None
    else:
        assert observed.counterexample is not None
        assert (observed.counterexample.valuation
                == plain.counterexample.valuation)

    # the observed run produced a non-trivial, well-formed trace
    events = [
        json.loads(line)
        for line in trace_file.read_text().splitlines() if line.strip()
    ]
    assert events[0]["name"] == "stream-start"
    assert any(ev["ph"] == "B" for ev in events)
    # every sweep runs in process: one process wrote the trace
    assert len({ev["pid"] for ev in events}) == 1


@pytest.mark.parametrize("workers", [1, 4])
def test_stats_carry_phase_and_cache_breakdowns(workers):
    _, comp, dbs, prop, candidates, _ = CASES[1]
    result = _run(comp, dbs, prop, candidates, workers)
    stats = result.stats

    assert stats.phase_seconds, "no phase breakdown recorded"
    assert all(v >= 0 for v in stats.phase_seconds.values())
    assert "search" in stats.phase_seconds
    assert "expand" in stats.phase_seconds
    lookups = (stats.rule_cache.get("hits", 0)
               + stats.rule_cache.get("misses", 0))
    assert lookups > 0, "rule-cache counters not recorded"
    assert stats.rule_cache_hit_rate is not None
    assert len(stats.per_task) == stats.tasks_run >= 1

    # to_dict round-trips through JSON (the --metrics-json contract)
    assert json.loads(json.dumps(stats.to_dict())) == stats.to_dict()
