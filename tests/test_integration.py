"""Cross-module integration tests: whole-pipeline sanity and consistency
properties that cut across the runtime, the verifier and the protocols."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fo import Instance
from repro.ltl import evaluate_on_word, lnot
from repro.ltlfo import parse_ltlfo
from repro.protocols import AgnosticProtocol, trace_of, verify_agnostic
from repro.runtime import reachable_states, simulate, snapshot_view
from repro.spec import (
    ChannelSemantics, DECIDABLE_DEFAULT, PERFECT_BOUNDED,
)
from repro.obs import counters_snapshot
from repro.verifier import (
    SnapshotEvaluator, verification_domain, verify, verify_all,
)

DB = {"S": Instance({"items": [("a",)]})}
DOMAIN = ("a", "$f")


class TestVerifierVsSimulation:
    """Any simulated run must satisfy every verified property."""

    def test_verified_invariant_holds_on_random_runs(self, sender_receiver):
        prop = parse_ltlfo("forall x: G( R.got(x) -> S.items(x) )",
                           sender_receiver.schema)
        result = verify(sender_receiver, prop, DB)
        assert result.satisfied
        dom = verification_domain(sender_receiver, [prop], DB)
        payload = prop.fo_payloads()
        for seed in range(5):
            trace = simulate(sender_receiver, DB, dom.values, steps=15,
                             seed=seed)
            from repro.fo import evaluate
            for state in trace:
                view = snapshot_view(state, sender_receiver)
                for row in view["R.got"]:
                    assert row in view["S.items"]

    def test_counterexample_violates_on_word_level(self, sender_receiver):
        sentence = parse_ltlfo("forall x: G( S.pick(x) -> F R.got(x) )",
                               sender_receiver.schema)
        result = verify(sender_receiver, sentence, DB)
        assert not result.satisfied
        cex = result.counterexample
        from repro.fo.terms import Var
        valuation = {Var(k): v for k, v in cex.valuation.items()}
        body = sentence.instantiate(valuation)
        dom = verification_domain(sender_receiver, [sentence], DB)
        evaluator = SnapshotEvaluator(
            sender_receiver, dom.values,
            frozenset(a for a in _payloads(body)),
        )
        prefix = [evaluator.letter(s) for s in cex.lasso.prefix]
        cycle = [evaluator.letter(s) for s in cex.lasso.cycle]
        assert evaluate_on_word(lnot(body), prefix, cycle)


def _payloads(body):
    from repro.ltl import LAtom, lwalk
    return {n.ap for n in lwalk(body) if isinstance(n, LAtom)}


class TestSemanticsMonotonicity:
    def test_perfect_reachable_subset_of_lossy(self, sender_receiver):
        lossy = reachable_states(sender_receiver, DB, DOMAIN,
                                 semantics=DECIDABLE_DEFAULT)
        perfect = reachable_states(sender_receiver, DB, DOMAIN,
                                   semantics=PERFECT_BOUNDED)
        assert perfect <= lossy

    def test_bigger_queue_bound_superset(self, sender_receiver):
        k1 = reachable_states(
            sender_receiver, DB, DOMAIN,
            semantics=ChannelSemantics(lossy=False, queue_bound=1),
        )
        k2 = reachable_states(
            sender_receiver, DB, DOMAIN,
            semantics=ChannelSemantics(lossy=False, queue_bound=2),
        )
        # every 1-bounded state is also 2-bounded reachable
        assert len(k2) >= len(k1)


class TestProtocolVsLtlfoConsistency:
    def test_agnostic_protocol_matches_ltlfo_on_loan(self):
        """The agnostic G(getRating -> F rating) protocol of Example 4.1
        fails under lossy channels, like its LTL-FO counterpart."""
        from repro.library.loan import loan_composition, standard_database
        comp = loan_composition()
        dbs = standard_database("fair")
        dom = verification_domain(comp, [], dbs, fresh_count=1)
        protocol = AgnosticProtocol.from_ltl("G( getRating -> F rating )")
        r = verify_agnostic(comp, protocol, dbs, domain=dom)
        assert not r.satisfied
        prefix, cycle = trace_of(r.counterexample.lasso, protocol)
        assert evaluate_on_word(lnot(protocol.ltl), prefix, cycle)

    def test_agnostic_protocol_holds_perfect_gated(self):
        """Under perfect channels the loan composition answers every
        rating request (the gated applicant applies once)."""
        from repro.library.loan import loan_composition, standard_database
        comp = loan_composition()
        dbs = standard_database("excellent")
        dom = verification_domain(comp, [], dbs, fresh_count=1)
        protocol = AgnosticProtocol.from_ltl(
            "G( rating -> (~rating U getRating) | F getRating ) | G ~rating"
        )
        # weaker sanity protocol: a rating is only ever enqueued after
        # some getRating was enqueued first
        protocol = AgnosticProtocol.from_ltl("(~rating U getRating) | G ~rating")
        r = verify_agnostic(comp, protocol, dbs, domain=dom,
                            semantics=PERFECT_BOUNDED)
        assert r.satisfied


class TestSharedTransitionCache:
    def test_cache_reused_across_properties(self, sender_receiver):
        """verify_all serves both properties from one exploration: the
        pair expands exactly the states one property alone expands."""
        dom = verification_domain(sender_receiver, [], DB)
        props = ["G true", "forall x: G( R.got(x) -> S.items(x) )"]
        before = counters_snapshot().get("product.states_expanded", 0)
        r1, r2 = verify_all(sender_receiver, props, DB, domain=dom,
                            workers=1)
        expanded = (counters_snapshot().get("product.states_expanded", 0)
                    - before)
        assert r1.satisfied and r2.satisfied
        alone = verify(sender_receiver, props[1], DB, domain=dom,
                       workers=1)
        assert expanded == alone.stats.system_states > 0
        assert r2.stats.system_states == expanded
