"""The ``workers=`` keyword has no effect on any verification result.

Every sweep runs in process (:mod:`repro.verifier.parallel`); the
keyword stays in the signatures for compatibility.  For every library
composition and a sweep of its shipped properties,
``verify(..., workers=1)`` and ``verify(..., workers=4)`` must return

* identical verdicts,
* the same decisive valuation and counterexample lasso, a lasso that
  replays as a genuine run through the operational semantics
  (:func:`repro.runtime.validate_lasso`), and
* the same node counts and per-task rows.

The heavyweight full-grid sweeps carry ``@pytest.mark.slow`` (run them
with ``pytest -m slow``).
"""

import pytest

from repro.fo import Instance
from repro.library import ecommerce, loan, synthetic, travel
from repro.runtime import validate_lasso
from repro.spec import Composition, PeerBuilder
from repro.verifier import verification_domain, verify

WORKERS = 4


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
    """(label, composition, databases, property, candidates, expected)."""
    sr_comp, sr_dbs = sender_receiver_case()
    loan_comp = loan.loan_composition()
    loan_buggy = loan.loan_composition(buggy_officer=True)
    eco_comp = ecommerce.ecommerce_composition()
    travel_comp = travel.travel_composition()
    chain = synthetic.relay_chain(1)
    eco_cands = {"p": ("widget",), "card": ("visa", "amex")}
    travel_cands = {"f": ("fl1",), "d": ("rome",), "r": ("rm1",)}
    return [
        ("sr-safety", sr_comp, sr_dbs,
         "forall x: G( R.got(x) -> S.items(x) )", None, True),
        ("sr-liveness", sr_comp, sr_dbs,
         "forall x: G( S.pick(x) -> F R.got(x) )", None, False),
        ("loan-policy", loan_comp, loan.standard_database("fair"),
         loan.PROPERTY_BANK_POLICY_POINTWISE,
         loan.STANDARD_CANDIDATES, True),
        ("loan-letter", loan_comp, loan.standard_database("fair"),
         loan.PROPERTY_LETTER_NEEDS_APPLICATION,
         loan.STANDARD_CANDIDATES, True),
        ("loan-buggy", loan_buggy, loan.standard_database("poor"),
         loan.PROPERTY_BANK_POLICY_POINTWISE,
         loan.STANDARD_CANDIDATES, False),
        ("loan-responsiveness", loan_comp, loan.standard_database("fair"),
         loan.PROPERTY_RESPONSIVENESS, loan.STANDARD_CANDIDATES, False),
        ("ecommerce-auth", eco_comp, ecommerce.standard_database("good"),
         ecommerce.PROPERTY_SHIP_REQUIRES_AUTH, eco_cands, True),
        ("ecommerce-resolved", eco_comp,
         ecommerce.standard_database("good"),
         ecommerce.PROPERTY_ORDER_RESOLVED, eco_cands, False),
        ("travel-itinerary", travel_comp, travel.standard_database(),
         travel.PROPERTY_ITINERARY_CONFIRMED, travel_cands, True),
        ("travel-booking", travel_comp, travel.standard_database(),
         travel.PROPERTY_BOOKING_CONFIRMED, travel_cands, False),
        ("chain-safety", chain, synthetic.chain_databases(1),
         synthetic.chain_safety_property(1), None, True),
        ("chain-liveness", chain, synthetic.chain_databases(1),
         synthetic.chain_liveness_property(1), None, False),
    ]


CASES = _cases()


def run_differential(comp, dbs, prop, candidates, expected):
    dom = verification_domain(comp, [], dbs, fresh_count=1)
    seq = verify(comp, prop, dbs, domain=dom,
                 valuation_candidates=candidates, workers=1)
    par = verify(comp, prop, dbs, domain=dom,
                 valuation_candidates=candidates, workers=WORKERS)
    assert seq.satisfied == expected, seq.summary()
    assert par.satisfied == seq.satisfied, (
        f"verdict diverged: seq={seq.verdict} par={par.verdict}"
    )
    assert par.stats.product_nodes_visited == \
        seq.stats.product_nodes_visited, (
            "aggregated nodes_visited diverged: "
            f"seq={seq.stats.product_nodes_visited} "
            f"par={par.stats.product_nodes_visited}"
        )
    assert par.stats.valuations_checked == seq.stats.valuations_checked
    assert _task_rows(par) == _task_rows(seq)
    if expected:
        assert seq.counterexample is None and par.counterexample is None
        return
    assert seq.counterexample is not None and par.counterexample is not None
    assert par.counterexample.valuation == seq.counterexample.valuation
    # the decisive lasso must be a genuine violating run: replay its
    # snapshots through the legal-successor relation
    problems = validate_lasso(comp, dbs, dom.values,
                              par.counterexample.lasso)
    assert not problems, problems
    assert par.counterexample.lasso == seq.counterexample.lasso


def _task_rows(result):
    """The per-task rows of a run, minus their wall times."""
    return [(t.group, t.order, t.nba_states, t.product_nodes,
             t.system_states, t.cancelled) for t in result.stats.per_task]


@pytest.mark.parametrize(
    "label,comp,dbs,prop,candidates,expected",
    [c for c in CASES if c[0].startswith(("sr-", "chain-"))],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_differential_small(label, comp, dbs, prop, candidates, expected):
    run_differential(comp, dbs, prop, candidates, expected)


@pytest.mark.slow
@pytest.mark.parametrize(
    "label,comp,dbs,prop,candidates,expected",
    [c for c in CASES if not c[0].startswith(("sr-", "chain-"))],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_differential_library(label, comp, dbs, prop, candidates,
                              expected):
    run_differential(comp, dbs, prop, candidates, expected)


@pytest.mark.parametrize("workers", [2, 4])
def test_verify_all_differential(workers):
    comp, dbs = sender_receiver_case()
    props = [
        "forall x: G( R.got(x) -> S.items(x) )",
        "forall x: G( S.pick(x) -> F R.got(x) )",
        "G R.empty_msg",
    ]
    from repro.verifier import verify_all
    seq = verify_all(comp, props, dbs, workers=1)
    par = verify_all(comp, props, dbs, workers=workers)
    assert [r.verdict for r in seq] == [r.verdict for r in par]
    for s, p in zip(seq, par):
        assert s.stats.product_nodes_visited == \
            p.stats.product_nodes_visited
        if s.counterexample is not None:
            assert p.counterexample.valuation == s.counterexample.valuation
            assert p.counterexample.lasso == s.counterexample.lasso


def test_verify_over_databases_differential():
    comp, _dbs = sender_receiver_case()
    from repro.verifier import verify_over_databases
    kwargs = dict(
        relation_arities_by_peer={"S": {"items": 1}},
        domain_values=("a", "b"),
        max_rows=1,
    )
    seq = verify_over_databases(
        comp, "forall x: G( R.got(x) -> S.items(x) )", workers=1, **kwargs
    )
    par = verify_over_databases(
        comp, "forall x: G( R.got(x) -> S.items(x) )", workers=WORKERS,
        **kwargs
    )
    assert seq.verdict == par.verdict == "SATISFIED"
    _assert_same_counts(seq, par)

    seq = verify_over_databases(
        comp, "G R.empty_msg", workers=1, **kwargs
    )
    par = verify_over_databases(
        comp, "G R.empty_msg", workers=WORKERS, **kwargs
    )
    assert seq.verdict == par.verdict == "VIOLATED"
    assert par.counterexample.lasso == seq.counterexample.lasso
    _assert_same_counts(seq, par)


def _assert_same_counts(seq, par):
    """The whole (database, valuation) grid counts at any worker count."""
    assert par.stats.valuations_checked == seq.stats.valuations_checked
    assert (par.stats.product_nodes_visited
            == seq.stats.product_nodes_visited)
    assert _task_rows(par) == _task_rows(seq)


def test_parallel_stats_shape():
    """The sweep records per-task stats, whatever ``workers=`` says."""
    comp, dbs = sender_receiver_case()
    dom = verification_domain(
        comp, [], dbs, fresh_count=1
    )
    par = verify(comp, "forall x: G( R.got(x) -> S.items(x) )", dbs,
                 domain=dom, workers=2)
    assert par.stats.tasks_run == par.stats.valuations_checked
    assert par.stats.tasks_cancelled == 0
    assert par.stats.task_seconds > 0
    assert len(par.stats.per_task) == par.stats.tasks_run
    assert "workers" not in par.stats.to_dict()
    assert "workers:" not in par.summary()
