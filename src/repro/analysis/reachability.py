"""Analyzer pass 3: unreachable states and unused relations.

Builds a *may-be-nonempty* over-approximation of the composition's
relations by a monotone fixpoint:

* database relations, propositional bookkeeping flags (``empty_Q``,
  ``error_Q``), and previous-input relations of available inputs may
  always be nonempty;
* an in-queue may receive a message iff its channel's sender can fire
  the corresponding send rule -- or the sender is the environment (open
  composition), which can always send;
* an input/state/action/out-queue relation may be nonempty once some
  rule targeting it has a *possibly-true* body, where possibly-true is
  the obvious over-approximation (an atom over a may-be-empty relation
  is false; negation, implication, and universal quantification are
  always possibly true).

Because the approximation only ever adds relations, the fixpoint is
reached in at most ``#relations`` rounds, and a state relation that
never enters the set is *provably* never populated in any run over any
database: flagging it is sound (no false positives from abstraction on
the "unreachable" side -- though a reachable-in-the-abstraction state
may still be unreachable in reality).

Findings:

* ``DWV201`` -- a state relation that some rule reads (or deletes) but
  no rule chain can ever populate; every such read is constantly false;
* ``DWV202`` -- a declared database/state/input/action relation that no
  rule of its peer mentions at all (queues are the channel pass's
  business).
"""

from __future__ import annotations

from ..fo import formulas as fo
from ..fo.schema import RelationKind
from ..fo.terms import Const
from ..spec.composition import Composition
from ..spec.peer import Peer
from ..spec.rules import RuleKind
from .diagnostics import Diagnostic, make
from .passes import AnalysisContext


def _may_hold(formula: fo.Formula, available: set[tuple[str, str]],
              peer: str) -> bool:
    """Over-approximate satisfiability given may-be-nonempty relations."""
    if isinstance(formula, fo.TrueF):
        return True
    if isinstance(formula, fo.FalseF):
        return False
    if isinstance(formula, fo.Atom):
        return (peer, formula.rel) in available
    if isinstance(formula, fo.Eq):
        if (isinstance(formula.left, Const)
                and isinstance(formula.right, Const)):
            return formula.left == formula.right
        return True
    if isinstance(formula, fo.Not):
        return True  # ~phi holds on the empty/absent side
    if isinstance(formula, fo.And):
        return all(_may_hold(c, available, peer) for c in formula.children)
    if isinstance(formula, fo.Or):
        return any(_may_hold(c, available, peer) for c in formula.children)
    if isinstance(formula, fo.Implies):
        return True  # false antecedent suffices
    if isinstance(formula, fo.Forall):
        return True  # vacuously true over an empty guard
    if isinstance(formula, fo.Exists):
        return _may_hold(formula.body, available, peer)
    return True


def _seed(composition: Composition) -> set[tuple[str, str]]:
    """Relations that may be nonempty before any rule fires."""
    available: set[tuple[str, str]] = set()
    for peer in composition.peers:
        for sym in peer.local_schema:
            if sym.kind in (RelationKind.DATABASE,
                            RelationKind.QUEUE_STATE,
                            RelationKind.ERROR_FLAG,
                            RelationKind.RECEIVED_FLAG):
                available.add((peer.name, sym.name))
        # propositional inputs without an input rule default to an
        # always-available option (see PeerBuilder.build)
        for inp in peer.inputs:
            if inp.arity == 0 and not peer.rule_for(RuleKind.INPUT,
                                                    inp.name):
                available.add((peer.name, inp.name))
    # environment-sourced channels can always deliver
    for chan in composition.channels:
        if chan.sender is None and chan.receiver is not None:
            available.add((chan.receiver, chan.name))
    return available


def compute_available(composition: Composition) -> set[tuple[str, str]]:
    """The may-be-nonempty fixpoint: pairs ``(peer, local relation name)``."""
    from ..fo.schema import prev_name

    available = _seed(composition)
    channel_receiver = {
        c.name: c.receiver for c in composition.channels
        if c.sender is not None and c.receiver is not None
    }
    changed = True
    while changed:
        changed = False
        for peer in composition.peers:
            for rule in peer.rules:
                key = (peer.name, rule.target)
                if key in available:
                    continue
                if _may_hold(rule.body, available, peer.name):
                    available.add(key)
                    changed = True
                    if rule.kind is RuleKind.INPUT:
                        available.add((peer.name, prev_name(rule.target)))
                    elif rule.kind is RuleKind.SEND:
                        receiver = channel_receiver.get(rule.target)
                        if receiver is not None:
                            available.add((receiver, rule.target))
    return available


def _mentioned(peer: Peer) -> set[str]:
    """Relations some rule of *peer* reads (body) or writes (target)."""
    out: set[str] = set()
    for rule in peer.rules:
        out.add(rule.target)
        out |= fo.relations(rule.body)
    return out


def reachability_pass(ctx: AnalysisContext) -> list[Diagnostic]:
    composition = ctx.composition
    available = ctx.available
    out: list[Diagnostic] = []
    for peer in composition.peers:
        mentioned = _mentioned(peer)
        read = set()
        for rule in peer.rules:
            read |= fo.relations(rule.body)
        for sym in peer.states:
            if (peer.name, sym.name) in available:
                continue
            if sym.name in read or any(
                    r.kind is RuleKind.DELETE and r.target == sym.name
                    for r in peer.rules):
                out.append(make(
                    "DWV201",
                    "no rule chain can ever populate this state "
                    "relation; every test of it is constantly false",
                    where=f"peer {peer.name}", peer=peer.name,
                    subject=sym.name,
                ))
        for sym in (peer.database + peer.states + peer.inputs
                    + peer.actions):
            if sym.name not in mentioned:
                out.append(make(
                    "DWV202",
                    f"declared {sym.kind.value} relation is never "
                    "mentioned by any rule of the peer",
                    where=f"peer {peer.name}", peer=peer.name,
                    subject=sym.name,
                ))
    return out
