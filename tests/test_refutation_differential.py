"""Modular and protocol verification: the sweep against the reference.

:func:`~repro.verifier.verify_modular`,
:func:`~repro.protocols.verify_agnostic` and
:func:`~repro.protocols.verify_aware` run the valuation sweep of
:mod:`repro.verifier.parallel` over a refutation object
(:mod:`repro.verifier.refutation`).  Handed the same object,
:func:`~repro.verifier.verify_reference` -- the plain per-valuation
loop that shares none of the sweep's graph, letter-cache or grid code
-- must agree bit for bit: verdict, decisive valuation and order,
lasso, ``valuations_checked`` and ``product_nodes_visited``.  The cases
cover both observers and the non-strict expansion of modular
verification (the recipient observer runs over snapshot pairs), both
observers and an automaton-given agnostic protocol, and data-aware
protocols given by LTL and by automaton.
"""

import pytest

from repro.fo import Instance, parse_fo
from repro.ltl import BuchiAutomaton, Edge, Guard
from repro.ltl import latom, lfinally, lglobally, limplies, lnot, lor, luntil
from repro.protocols import (
    AgnosticProtocol, DataAwareProtocol, Observer, ProtocolRefutation,
    verify_agnostic, verify_aware,
)
from repro.runtime import validate_lasso
from repro.spec import Composition, PERFECT_BOUNDED, PeerBuilder
from repro.spec.channels import DECIDABLE_DEFAULT
from repro.verifier import (
    modular_refutation, verification_domain, verify_modular,
    verify_reference,
)
from repro.verifier.domain import VerificationDomain, with_constants


def assert_agree(reference, swept):
    assert swept.verdict == reference.verdict
    assert swept.property_text == reference.property_text
    assert swept.stats.decisive_order == reference.stats.decisive_order
    assert (swept.stats.valuations_checked
            == reference.stats.valuations_checked)
    assert (swept.stats.product_nodes_visited
            == reference.stats.product_nodes_visited)
    if reference.counterexample is None:
        assert swept.counterexample is None
        return
    assert (swept.counterexample.valuation
            == reference.counterexample.valuation)
    assert swept.counterexample.lasso == reference.counterexample.lasso


# -- modular verification (Theorem 5.4) ---------------------------------------

DOMAIN = VerificationDomain(("a",), ("$f0",))
RELAY_DB = {"P0": Instance({"items": [("a",)]})}
RELAY_PROP = 'forall x: G( P1.seen(x) -> x = "a" )'
CANDIDATES = {"x": ("a", "$f0")}

MODULAR_CASES = [
    # (label, env spec, observer, allow_nonstrict, expected, pairs)
    ("recipient", "G forall x: ?outbound(x) -> !inbound(x)", "recipient",
     False, False, True),
    ("source", 'G forall x: !inbound(x) -> x = "a"', "source",
     False, True, False),
    ("nonstrict", 'forall x: G ( !inbound(x) -> x = "a" )', "source",
     True, True, False),
]


@pytest.mark.parametrize(
    "label,spec,observer,nonstrict,expected,pairs", MODULAR_CASES,
    ids=[c[0] for c in MODULAR_CASES],
)
def test_modular_sweep_matches_reference(open_relay, label, spec, observer,
                                         nonstrict, expected, pairs):
    group, domain = modular_refutation(
        open_relay, RELAY_PROP, spec, RELAY_DB, domain=DOMAIN,
        allow_nonstrict=nonstrict, observer=observer,
    )
    assert group.pairs == pairs
    reference = verify_reference(open_relay, group, RELAY_DB,
                                 domain=domain,
                                 valuation_candidates=CANDIDATES)
    swept = verify_modular(open_relay, RELAY_PROP, spec, RELAY_DB,
                           domain=DOMAIN, allow_nonstrict=nonstrict,
                           observer=observer,
                           valuation_candidates=CANDIDATES)
    assert reference.satisfied == expected
    assert_agree(reference, swept)
    if not expected:
        problems = validate_lasso(open_relay, RELAY_DB, domain.values,
                                  swept.counterexample.lasso)
        assert not problems, problems


def test_reference_needs_the_refutation_domain(open_relay):
    group, _domain = modular_refutation(
        open_relay, RELAY_PROP, MODULAR_CASES[0][1], RELAY_DB,
        domain=DOMAIN,
    )
    with pytest.raises(Exception, match="domain"):
        verify_reference(open_relay, group, RELAY_DB)


# -- conversation protocols (Theorems 4.2 and 4.5) ---------------------------

ACK_DB = {"S": Instance({"items": [("a",)]})}


def ack_chain():
    """S --msg--> R --ack--> T, with R acking every received msg."""
    sender = (
        PeerBuilder("S")
        .database("items", 1).input("pick", 1)
        .flat_out_queue("msg", 1)
        .input_rule("pick", ["x"], "items(x)")
        .send_rule("msg", ["x"], "pick(x)")
        .build()
    )
    relay = (
        PeerBuilder("R")
        .flat_in_queue("msg", 1).flat_out_queue("ack", 1)
        .send_rule("ack", ["x"], "?msg(x)")
        .build()
    )
    sink = (
        PeerBuilder("T")
        .flat_in_queue("ack", 1).state("done", 1)
        .insert_rule("done", ["x"], "?ack(x)")
        .build()
    )
    return Composition([sender, relay, sink])


def _never(symbol):
    """A deterministic automaton for ``G ~symbol``."""
    return BuchiAutomaton(
        states={0}, initial={0},
        edges=[Edge(0, Guard(neg=frozenset({symbol})), 0)],
        accepting={0}, aps={symbol},
    )


def _agnostic_cases():
    return [
        ("recipient", AgnosticProtocol.from_ltl("G( msg -> F ack )"),
         DECIDABLE_DEFAULT, False),
        ("recipient-holds",
         AgnosticProtocol.from_ltl("(~ack U msg) | G ~ack"),
         DECIDABLE_DEFAULT, True),
        ("source", AgnosticProtocol.from_ltl(
            "G ~msg", observer=Observer.SOURCE), DECIDABLE_DEFAULT, False),
        ("automaton", AgnosticProtocol.from_buchi(_never("ack")),
         PERFECT_BOUNDED, False),
    ]


@pytest.mark.parametrize("label", [c[0] for c in _agnostic_cases()])
def test_agnostic_sweep_matches_reference(label):
    _, protocol, semantics, expected = next(
        c for c in _agnostic_cases() if c[0] == label)
    comp = ack_chain()
    domain = verification_domain(comp, [], ACK_DB)
    reference = verify_reference(comp, ProtocolRefutation.agnostic(protocol),
                                 ACK_DB, semantics=semantics, domain=domain)
    swept = verify_agnostic(comp, protocol, ACK_DB, semantics=semantics,
                            domain=domain)
    assert reference.satisfied == expected
    assert_agree(reference, swept)


def _aware_cases(comp):
    msg = parse_fo("S.msg(x)", comp.schema)
    ack = parse_fo("R.ack(x)", comp.schema)
    m, k = latom("m"), latom("k")
    return [
        ("ltl-violated", DataAwareProtocol(
            symbols={"m": msg, "k": ack},
            ltl=lglobally(limplies(m, lfinally(k)))), False),
        ("ltl-holds", DataAwareProtocol(
            symbols={"m": msg, "k": ack},
            ltl=lor(luntil(lnot(k), m), lglobally(lnot(k)))), True),
        ("automaton", DataAwareProtocol(
            symbols={"bad": parse_fo('S.msg("zz")', comp.schema)},
            automaton=_never("bad")), True),
        ("automaton-free-variables", DataAwareProtocol(
            symbols={"m": msg}, automaton=_never("m")), False),
    ]


@pytest.mark.parametrize("label", ["ltl-violated", "ltl-holds", "automaton",
                                   "automaton-free-variables"])
def test_aware_sweep_matches_reference(label):
    comp = ack_chain()
    _, protocol, expected = next(
        c for c in _aware_cases(comp) if c[0] == label)
    domain = with_constants(verification_domain(comp, [], ACK_DB),
                            protocol.constants())
    reference = verify_reference(comp, ProtocolRefutation.aware(protocol),
                                 ACK_DB, domain=domain)
    swept = verify_aware(comp, protocol, ACK_DB, domain=domain)
    assert reference.satisfied == expected
    assert_agree(reference, swept)
