"""Differential testing of the production sweep vs the reference checker.

``verify`` (one shared, interned exploration driven by the task grid of
:mod:`repro.verifier.parallel`) must be observationally identical to
:func:`repro.verifier.verify_reference`, the plain per-valuation loop
that shares none of its graph, letter-cache or grid code: interning
preserves successor order, initial-state order, and Büchi target order,
so for every case the two agree on

* the verdict,
* the decisive counterexample valuation, its ``decisive_order`` and its
  lasso (which must also replay as a legal run through the operational
  semantics, :func:`repro.runtime.validate_lasso`), and
* the search node counts (``product_nodes_visited``) -- node for node,
  not just in aggregate.

``system_states`` is deliberately NOT compared: freezing expands the
full reachable graph, while the reference's lazy product may prune (the
NBA can block before the composition frontier is exhausted).

Alongside the library/synthetic grid, a hypothesis suite fuzzes the
sender/receiver database contents and property choice, and unit tests
pin the graph machinery itself (interner stability, CSR consistency,
pickled-graph serving, budget fallback).
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.fo import Instance
from repro.library import ecommerce, loan, synthetic, travel
from repro.runtime import validate_lasso
from repro.spec import Composition, DECIDABLE_DEFAULT, PeerBuilder
from repro.verifier import (
    ExploredGraph, SharedExploration, TransitionCache,
    verification_domain, verify, verify_reference,
)


def sender_receiver_case(rows=(("a",), ("b",))):
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
    dbs = {"S": Instance({"items": list(rows)})}
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
        ("loan-letter", loan_comp, loan.standard_database("fair"),
         loan.PROPERTY_LETTER_NEEDS_APPLICATION,
         loan.STANDARD_CANDIDATES, True),
        ("loan-buggy", loan_buggy, loan.standard_database("poor"),
         loan.PROPERTY_BANK_POLICY_POINTWISE,
         loan.STANDARD_CANDIDATES, False),
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


def assert_agree(reference, shared):
    """Verdict, decisive order, counters and counterexample: identical."""
    assert shared.satisfied == reference.satisfied, (
        f"verdict diverged: reference={reference.verdict} "
        f"shared={shared.verdict}"
    )
    assert shared.stats.decisive_order == reference.stats.decisive_order
    assert (shared.stats.valuations_checked
            == reference.stats.valuations_checked)
    assert shared.stats.product_nodes_visited == \
        reference.stats.product_nodes_visited, (
            "nodes_visited diverged: "
            f"reference={reference.stats.product_nodes_visited} "
            f"shared={shared.stats.product_nodes_visited}"
        )
    if reference.counterexample is None:
        assert shared.counterexample is None
        return
    assert shared.counterexample is not None
    assert (shared.counterexample.valuation
            == reference.counterexample.valuation)
    assert shared.counterexample.lasso.prefix == \
        reference.counterexample.lasso.prefix
    assert shared.counterexample.lasso.cycle == \
        reference.counterexample.lasso.cycle


def run_differential(comp, dbs, prop, candidates, expected):
    dom = verification_domain(comp, [], dbs, fresh_count=1)
    reference = verify_reference(comp, prop, dbs, domain=dom,
                                 valuation_candidates=candidates)
    shared = verify(comp, prop, dbs, domain=dom,
                    valuation_candidates=candidates, workers=1)
    assert reference.satisfied == expected, reference.summary()
    assert_agree(reference, shared)
    if not expected:
        problems = validate_lasso(comp, dbs, dom.values,
                                  shared.counterexample.lasso,
                                  semantics=DECIDABLE_DEFAULT)
        assert not problems, problems


@pytest.mark.parametrize(
    "label,comp,dbs,prop,candidates,expected",
    CASES, ids=[c[0] for c in CASES],
)
def test_engines_agree(label, comp, dbs, prop, candidates, expected):
    run_differential(comp, dbs, prop, candidates, expected)


SR_PROPERTIES = [
    "forall x: G( R.got(x) -> S.items(x) )",
    "forall x: G( S.pick(x) -> F R.got(x) )",
    "G( ~R.empty_msg -> F R.empty_msg )",
    "G R.empty_msg",
]


class TestHypothesisDifferential:
    """Random databases and properties: sweep and reference agree."""

    @settings(max_examples=12, deadline=None)
    @given(
        rows=st.sets(
            st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3
        ),
        prop_idx=st.integers(min_value=0, max_value=len(SR_PROPERTIES) - 1),
    )
    def test_random_database_and_property(self, rows, prop_idx):
        comp, _ = sender_receiver_case()
        dbs = {"S": Instance({"items": [(v,) for v in sorted(rows)]})}
        prop = SR_PROPERTIES[prop_idx]
        dom = verification_domain(comp, [], dbs, fresh_count=1)
        assert_agree(verify_reference(comp, prop, dbs, domain=dom),
                     verify(comp, prop, dbs, domain=dom))

    @settings(max_examples=6, deadline=None)
    @given(relays=st.integers(min_value=0, max_value=2))
    def test_random_synthetic_chain(self, relays):
        comp = synthetic.relay_chain(relays)
        dbs = synthetic.chain_databases(relays)
        for prop in (synthetic.chain_safety_property(relays),
                     synthetic.chain_liveness_property(relays)):
            dom = verification_domain(comp, [], dbs, fresh_count=1)
            assert_agree(verify_reference(comp, prop, dbs, domain=dom),
                         verify(comp, prop, dbs, domain=dom))


def _csr_row(graph, sid):
    return tuple(graph.targets[graph.offsets[sid]:graph.offsets[sid + 1]])


class TestGraphMachinery:
    """Unit tests for the interner / frozen-graph substrate."""

    def _exploration(self, rows=(("a",), ("b",))):
        comp, dbs = sender_receiver_case(rows)
        dom = verification_domain(comp, [], dbs, fresh_count=1)
        cache = TransitionCache(comp, dbs, dom.values, DECIDABLE_DEFAULT)
        return comp, SharedExploration(cache)

    def test_interning_is_stable(self):
        _, engine = self._exploration()
        roots = engine.initial_ids()
        for sid in roots:
            state = engine.interner.state_of(sid)
            assert engine.interner.intern(state) == sid

    def test_frozen_successors_match_lazy(self):
        comp, engine = self._exploration()
        # force some lazy exploration first
        lazy = {
            sid: engine.successors_of(sid) for sid in engine.initial_ids()
        }
        graph = engine.complete()
        assert isinstance(graph, ExploredGraph)
        # every CSR row must equal the row a fresh lazy exploration
        # computes for the same state
        _, fresh = self._exploration()
        fresh.initial_ids()
        for sid in range(graph.num_states):
            assert _csr_row(graph, sid) == fresh.successors_of(sid)
        for sid, row in lazy.items():
            assert _csr_row(graph, sid) == row

    def test_complete_is_idempotent(self):
        _, engine = self._exploration()
        graph = engine.complete()
        assert engine.complete() is graph

    def test_graph_pickle_roundtrip(self):
        comp, engine = self._exploration()
        graph = engine.complete()
        clone = pickle.loads(pickle.dumps(graph))
        assert clone.num_states == graph.num_states
        assert clone.num_edges == graph.num_edges
        assert clone.initial_ids == graph.initial_ids
        assert clone.offsets == graph.offsets
        assert clone.targets == graph.targets
        assert clone.states == graph.states
        for sid in range(graph.num_states):
            assert _csr_row(clone, sid) == engine.successors_of(sid)

    def test_complete_budget_fallback(self):
        from repro.errors import VerificationError
        from repro.verifier import SearchBudget
        comp, dbs = sender_receiver_case()
        dom = verification_domain(comp, [], dbs, fresh_count=1)
        cache = TransitionCache(comp, dbs, dom.values, DECIDABLE_DEFAULT,
                                budget=SearchBudget(max_system_states=3))
        engine = SharedExploration(cache)
        assert engine.complete(strict=False) is None
        with pytest.raises(VerificationError):
            engine.complete(strict=True)
