"""Tests for the operational semantics (Definitions 2.3, 2.4, 2.6)."""

import multiprocessing
from dataclasses import replace

import pytest

from repro.fo import Instance
from repro.fo.formulas import Atom
from repro.obs import counters_snapshot, diff_numeric
from repro.runtime import (
    GlobalState, initial_states, input_choices, peer_successors,
    reference_step, snapshot_view, successors,
)
from repro.runtime.step import _RULE_CACHE
from repro.spec.rules import Rule, RuleKind
from repro.spec import (
    ChannelSemantics, Composition, DECIDABLE_DEFAULT, DECIDABLE_FAITHFUL,
    DETERMINISTIC_LOSSY, FlatSendDiscipline, NestedEmptySend,
    PERFECT_BOUNDED, PeerBuilder,
)

DOMAIN = ("a", "b")


class TestInitialStates:
    def test_empty_state_and_queues(self, sender_receiver,
                                    sender_receiver_db):
        inits = initial_states(sender_receiver, sender_receiver_db, DOMAIN)
        for st in inits:
            assert st.data["R.got"] == frozenset()
            assert st.queue("msg") == ()
            assert st.mover is None

    def test_initial_inputs_enumerate_options(self, sender_receiver,
                                              sender_receiver_db):
        inits = initial_states(sender_receiver, sender_receiver_db, DOMAIN)
        picks = {st.data["S.pick"] for st in inits}
        # one item 'a': empty input or pick ('a',)
        assert picks == {frozenset(), frozenset({("a",)})}

    def test_unknown_db_relation_rejected(self, sender_receiver):
        with pytest.raises(Exception):
            initial_states(sender_receiver,
                           {"S": Instance({"nope": [("a",)]})}, DOMAIN)


def pick_state(states, **conditions):
    """First state whose data matches all relation->rows conditions."""
    for st in states:
        if all(st.data[k] == frozenset(v) for k, v in conditions.items()):
            return st
    raise AssertionError(f"no state matching {conditions}")


class TestPeerMove:
    def test_send_enqueues(self, sender_receiver, sender_receiver_db):
        inits = initial_states(sender_receiver, sender_receiver_db, DOMAIN)
        st = pick_state(inits, **{"S.pick": {("a",)}})
        succ = peer_successors(sender_receiver, st, "S", DOMAIN,
                               PERFECT_BOUNDED)
        assert any(s.queue("msg") == (frozenset({("a",)}),) for s in succ)
        assert all(s.mover == "S" for s in succ)

    def test_lossy_branches_include_drop(self, sender_receiver,
                                         sender_receiver_db):
        inits = initial_states(sender_receiver, sender_receiver_db, DOMAIN)
        st = pick_state(inits, **{"S.pick": {("a",)}})
        succ = peer_successors(sender_receiver, st, "S", DOMAIN,
                               DECIDABLE_DEFAULT)
        queues = {s.queue("msg") for s in succ}
        assert () in queues                      # dropped
        assert (frozenset({("a",)}),) in queues  # delivered

    def test_perfect_always_delivers(self, sender_receiver,
                                     sender_receiver_db):
        inits = initial_states(sender_receiver, sender_receiver_db, DOMAIN)
        st = pick_state(inits, **{"S.pick": {("a",)}})
        succ = peer_successors(sender_receiver, st, "S", DOMAIN,
                               PERFECT_BOUNDED)
        assert all(s.queue("msg") for s in succ)

    def test_bounded_queue_drops_when_full(self, sender_receiver,
                                           sender_receiver_db):
        inits = initial_states(sender_receiver, sender_receiver_db, DOMAIN)
        st = pick_state(inits, **{"S.pick": {("a",)}})
        [full] = [
            s for s in peer_successors(sender_receiver, st, "S", DOMAIN,
                                       PERFECT_BOUNDED)
            if s.queue("msg") and s.data["S.pick"]
        ]
        # queue bound 1: a second send is dropped
        succ2 = peer_successors(sender_receiver, full, "S", DOMAIN,
                                PERFECT_BOUNDED)
        assert all(len(s.queue("msg")) == 1 for s in succ2)
        assert all("msg" in s.sent and "msg" not in s.enqueued
                   for s in succ2)

    def test_receive_updates_state_and_dequeues(self, sender_receiver,
                                                sender_receiver_db):
        inits = initial_states(sender_receiver, sender_receiver_db, DOMAIN)
        st = pick_state(inits, **{"S.pick": {("a",)}})
        [sent] = [
            s for s in peer_successors(sender_receiver, st, "S", DOMAIN,
                                       PERFECT_BOUNDED)
            if s.queue("msg") and not s.data["S.pick"]
        ]
        succ = peer_successors(sender_receiver, sent, "R", DOMAIN,
                               PERFECT_BOUNDED)
        assert len(succ) == 1
        after = succ[0]
        assert after.data["R.got"] == frozenset({("a",)})
        assert after.queue("msg") == ()  # consumed queues dequeue

    def test_prev_input_tracks_last_nonempty(self, sender_receiver,
                                             sender_receiver_db):
        inits = initial_states(sender_receiver, sender_receiver_db, DOMAIN)
        st = pick_state(inits, **{"S.pick": {("a",)}})
        succ = peer_successors(sender_receiver, st, "S", DOMAIN,
                               PERFECT_BOUNDED)
        assert all(
            s.data["S.prev_pick"] == frozenset({("a",)}) for s in succ
        )
        # moving with empty input keeps prev unchanged
        empty_in = pick_state(succ, **{"S.pick": set()})
        succ2 = peer_successors(sender_receiver, empty_in, "S", DOMAIN,
                                PERFECT_BOUNDED)
        assert all(
            s.data["S.prev_pick"] == frozenset({("a",)}) for s in succ2
        )


class TestFlatSendDiscipline:
    def make(self):
        sender = (
            PeerBuilder("S")
            .database("items", 1)
            .input("go", 0)
            .flat_out_queue("msg", 1)
            .input_rule("go", [], "true")
            .send_rule("msg", ["x"], "go & items(x)")
            .build()
        )
        receiver = (
            PeerBuilder("R").flat_in_queue("msg", 1)
            .state("got", 1).insert_rule("got", ["x"], "?msg(x)")
            .build()
        )
        comp = Composition([sender, receiver])
        dbs = {"S": Instance({"items": [("a",), ("b",)]})}
        return comp, dbs

    def go_state(self, comp, dbs):
        inits = initial_states(comp, dbs, DOMAIN)
        return pick_state(inits, **{"S.go": {()}})

    def test_nondeterministic_pick(self):
        comp, dbs = self.make()
        st = self.go_state(comp, dbs)
        succ = peer_successors(comp, st, "S", DOMAIN, PERFECT_BOUNDED)
        sent = {s.queue("msg") for s in succ if s.queue("msg")}
        assert sent == {(frozenset({("a",)}),), (frozenset({("b",)}),)}

    def test_deterministic_error(self):
        comp, dbs = self.make()
        st = self.go_state(comp, dbs)
        semantics = ChannelSemantics(
            lossy=False, queue_bound=1,
            flat_send=FlatSendDiscipline.DETERMINISTIC_ERROR,
        )
        succ = peer_successors(comp, st, "S", DOMAIN, semantics)
        assert all(not s.queue("msg") for s in succ)
        assert all(s.data["S.error_msg"] for s in succ)

    def test_error_flag_resets(self):
        comp, dbs = self.make()
        st = self.go_state(comp, dbs)
        semantics = ChannelSemantics(
            lossy=False, queue_bound=1,
            flat_send=FlatSendDiscipline.DETERMINISTIC_ERROR,
        )
        errored = peer_successors(comp, st, "S", DOMAIN, semantics)
        calm = pick_state(errored, **{"S.go": set()})
        succ2 = peer_successors(comp, calm, "S", DOMAIN, semantics)
        assert all(not s.data["S.error_msg"] for s in succ2)


class TestNestedQueues:
    def test_whole_set_is_one_message(self, nested_pair, nested_pair_db):
        inits = initial_states(nested_pair, nested_pair_db, DOMAIN)
        st = pick_state(inits, **{"P.publish": {()}})
        succ = peer_successors(nested_pair, st, "P", DOMAIN,
                               PERFECT_BOUNDED)
        delivered = [s for s in succ if s.queue("bulk")]
        assert delivered
        for s in delivered:
            assert s.queue("bulk") == (
                frozenset({("a", "b"), ("a", "c")}),
            )

    def test_empty_nested_send_skipped_by_default(self, nested_pair,
                                                  nested_pair_db):
        inits = initial_states(nested_pair, nested_pair_db, DOMAIN)
        st = pick_state(inits, **{"P.publish": set()})
        succ = peer_successors(nested_pair, st, "P", DOMAIN,
                               DECIDABLE_DEFAULT)
        assert all(not s.queue("bulk") for s in succ)

    def test_empty_nested_send_enqueued_in_faithful_mode(self, nested_pair,
                                                         nested_pair_db):
        inits = initial_states(nested_pair, nested_pair_db, DOMAIN)
        st = pick_state(inits, **{"P.publish": set()})
        semantics = ChannelSemantics(
            lossy=False, queue_bound=1,
            nested_empty_send=NestedEmptySend.ENQUEUE,
        )
        succ = peer_successors(nested_pair, st, "P", DOMAIN, semantics)
        assert all(s.queue("bulk") == (frozenset(),) for s in succ)

    def test_receiver_unpacks_set(self, nested_pair, nested_pair_db):
        inits = initial_states(nested_pair, nested_pair_db, DOMAIN)
        st = pick_state(inits, **{"P.publish": {()}})
        [sent] = [
            s for s in peer_successors(nested_pair, st, "P", DOMAIN,
                                       PERFECT_BOUNDED)
            if s.queue("bulk") and not s.data["P.publish"]
        ]
        [after] = peer_successors(nested_pair, sent, "C", DOMAIN,
                                  PERFECT_BOUNDED)
        assert after.data["C.stored"] == frozenset({("a", "b"), ("a", "c")})


class TestSuccessorsUnion:
    def test_all_peers_move(self, sender_receiver, sender_receiver_db):
        inits = initial_states(sender_receiver, sender_receiver_db, DOMAIN)
        succ = successors(sender_receiver, inits[0], DOMAIN,
                          DECIDABLE_DEFAULT)
        assert {s.mover for s in succ} == {"S", "R"}

    def test_snapshot_view_move_flags(self, sender_receiver,
                                      sender_receiver_db):
        inits = initial_states(sender_receiver, sender_receiver_db, DOMAIN)
        succ = peer_successors(sender_receiver, inits[0], "S", DOMAIN,
                               DECIDABLE_DEFAULT)
        view = snapshot_view(succ[0], sender_receiver)
        assert view.truth("move_S")
        assert not view.truth("move_R")


class TestMoveEffectMemo:
    """The move-effect memo is keyed on the mover's local projection:
    everything its rules read (view-derived relations included) plus its
    own state and input relations -- nothing else, nothing less."""

    def effects(self, composition, states, mover, semantics=PERFECT_BOUNDED):
        """(computed, reused) move effects over one move from each state;
        every move must also match the reference relation."""
        before = counters_snapshot()
        for st in states:
            got = peer_successors(composition, st, mover, DOMAIN, semantics)
            assert got == reference_step.peer_successors(
                composition, st, mover, DOMAIN, semantics)
        delta = diff_numeric(counters_snapshot(), before)
        return (delta.get("step.move_effects_computed", 0),
                delta.get("step.move_effects_reused", 0))

    def test_other_peers_relations_share_one_effect(self, sender_receiver,
                                                    sender_receiver_db):
        inits = initial_states(sender_receiver, sender_receiver_db, DOMAIN)
        st = pick_state(inits, **{"S.pick": {("a",)}})
        other = GlobalState(st.data.updated("R.got", [("b",)]), st.queues)
        assert self.effects(sender_receiver, [st, other], "S") == (1, 1)

    def test_in_queue_head_splits_effects(self, sender_receiver,
                                          sender_receiver_db):
        inits = initial_states(sender_receiver, sender_receiver_db, DOMAIN)
        states = [inits[0].with_queues({"msg": (frozenset({(v,)}),)})
                  for v in DOMAIN]
        assert self.effects(sender_receiver, states, "R") == (2, 0)

    def test_empty_queue_flag_splits_effects(self):
        # an empty nested message and an empty queue have the same head;
        # only C.empty_bulk tells them apart
        producer = (
            PeerBuilder("P").nested_out_queue("bulk", 1).build()
        )
        consumer = (
            PeerBuilder("C")
            .state("idle", 0)
            .nested_in_queue("bulk", 1)
            .insert_rule("idle", [], "empty_bulk")
            .build()
        )
        comp = Composition([producer, consumer])
        [init] = initial_states(comp, {}, DOMAIN)
        holding = init.with_queues({"bulk": (frozenset(),)})
        assert self.effects(comp, [init, holding], "C") == (2, 0)

    def reading(self, relation):
        """sender/receiver where R records whether *relation* holds."""
        receiver = (
            PeerBuilder("R")
            .state("got", 1)
            .state("flag", 0)
            .flat_in_queue("msg", 1)
            .insert_rule("got", ["x"], "?msg(x)")
            .build()
        )
        rule = Rule(RuleKind.INSERT, "flag", (), Atom(relation))
        receiver = replace(receiver, rules=receiver.rules + (rule,))
        sender = (
            PeerBuilder("S").flat_out_queue("msg", 1).build()
        )
        return Composition([sender, receiver])

    def test_received_flag_splits_effects(self):
        comp = self.reading("R.received_msg")
        [init] = initial_states(comp, {}, DOMAIN)
        heard = replace(init, enqueued=frozenset({"msg"}))
        assert self.effects(comp, [init, heard], "R") == (2, 0)

    def test_move_flag_splits_effects(self):
        comp = self.reading("move_S")
        [init] = initial_states(comp, {}, DOMAIN)
        after_s = replace(init, mover="S")
        assert self.effects(comp, [init, after_s], "R") == (2, 0)

    def test_semantics_split_effects(self, sender_receiver,
                                     sender_receiver_db):
        inits = initial_states(sender_receiver, sender_receiver_db, DOMAIN)
        st = pick_state(inits, **{"S.pick": {("a",)}})
        assert self.effects(sender_receiver, [st], "S") == (1, 0)
        assert self.effects(sender_receiver, [st], "S",
                            DECIDABLE_DEFAULT) == (1, 0)

    def test_input_rule_on_queue_takes_view_path(self, sender_receiver):
        echo = (
            PeerBuilder("R")
            .input("answer", 1)
            .flat_in_queue("msg", 1)
            .input_rule("answer", ["x"], "?msg(x)")
            .build()
        )
        comp = Composition([sender_receiver.peer("S"), echo])
        assert _RULE_CACHE.table(comp, "R")[1] is True
        assert _RULE_CACHE.table(comp, "S")[1] is False
        # the sender's move delivers 'a': the receiver's next input
        # options are read from the successor's queue head
        [init] = [s for s in initial_states(
            comp, {"S": Instance({"items": [("a",)]})}, DOMAIN)
            if s.data["S.pick"]]
        assert successors(comp, init, DOMAIN, PERFECT_BOUNDED) == (
            reference_step.successors(comp, init, DOMAIN, PERFECT_BOUNDED))

    def test_child_process_starts_with_an_empty_memo(self, sender_receiver,
                                                     sender_receiver_db):
        inits = initial_states(sender_receiver, sender_receiver_db, DOMAIN)
        assert self.effects(sender_receiver, inits[:1], "S") == (1, 0)
        assert self.effects(sender_receiver, inits[:1], "S") == (0, 1)
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(1) as pool:
            child = pool.apply(_effects_in_child,
                               (sender_receiver, inits[0]))
        assert child == (1, 0)


def _effects_in_child(composition, state):
    before = counters_snapshot()
    peer_successors(composition, state, "S", DOMAIN, PERFECT_BOUNDED)
    delta = diff_numeric(counters_snapshot(), before)
    return (delta.get("step.move_effects_computed", 0),
            delta.get("step.move_effects_reused", 0))


def test_ecommerce_move_effect_counters_are_exact():
    """Work done, not time: one full ecommerce exploration computes 78
    distinct move effects for its 12,780 peer moves (4,260 states x 3
    peers); a second verdict over the same graph computes none."""
    from repro.library import ecommerce
    from repro.verifier import verification_domain, verify

    comp = ecommerce.ecommerce_composition()
    dbs = ecommerce.standard_database("good")
    domain = verification_domain(comp, [], dbs, fresh_count=1)
    candidates = {"p": ("widget",), "card": ("visa", "amex")}

    def work(prop):
        before = counters_snapshot()
        result = verify(comp, prop, dbs, domain=domain,
                        valuation_candidates=candidates)
        delta = diff_numeric(counters_snapshot(), before)
        return (result.stats.system_states,
                delta.get("step.move_effects_computed", 0),
                delta.get("step.move_effects_reused", 0))

    assert work(ecommerce.PROPERTY_SHIP_REQUIRES_AUTH) == (4260, 78, 12702)
    assert work(ecommerce.PROPERTY_AUTH_HONEST) == (4260, 0, 12780)
