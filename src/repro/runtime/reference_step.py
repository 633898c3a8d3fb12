"""The reference step relation: a test oracle for :mod:`repro.runtime.step`.

The same legal-successor relation (Definitions 2.3, 2.4 and 2.6) written
the straightforward way: every peer move renders the full
:func:`~repro.runtime.state.snapshot_view`, finds its rules by scanning
the peer's rule set and evaluates every rule, with no move table and no
memo of move effects or input choices.  The production step path must
produce exactly these successors, in exactly this order.

:func:`repro.verifier.verify_reference` and
:func:`repro.runtime.validate_lasso` run on this relation, so the engine
differential, the fuzz harness and every lasso replay check the
optimised step path against code that shares none of it.  The only
thing shared is the FO layer: rule bodies are answered through the
process's rule-answer cache, which is keyed by the extensions of the
relations each body reads.  No production entry point reaches this
module.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

from ..errors import SpecificationError
from ..fo.instance import Instance, Rows
from ..fo.schema import error_name, prev_name
from ..fo.terms import Value, value_sort_key
from ..spec.channels import (
    ChannelSemantics, FlatSendDiscipline, NestedEmptySend,
)
from ..spec.composition import Channel, Composition
from ..spec.peer import Peer
from ..spec.rules import Rule, RuleKind
from .environment import environment_successors
from .state import GlobalState, empty_queues, freeze_queues, snapshot_view
from .step import _rule_answers

Domain = Sequence[Value]


def _row_key(row: tuple) -> tuple:
    return tuple(value_sort_key(v) for v in row)


def _find_rule(rules: Iterable[Rule], kind: RuleKind, target: str
               ) -> Rule | None:
    for rule in rules:
        if rule.kind == kind and rule.target == target:
            return rule
    return None


def input_choices(composition: Composition, state: GlobalState,
                  peer: Peer, domain: Domain
                  ) -> list[dict[str, Rows]]:
    """All legal input assignments for *peer* in snapshot *state*."""
    view = snapshot_view(state, composition)
    rules = composition.qualified_rules(peer.name)
    per_input: list[list[tuple[str, Rows]]] = []
    for inp in peer.inputs:
        qname = f"{peer.name}.{inp.name}"
        rule = _find_rule(rules, RuleKind.INPUT, qname)
        options = _rule_answers(rule, view, domain)
        if inp.arity == 0:
            choices: list[tuple[str, Rows]] = [(qname, frozenset())]
            if options:
                choices.append((qname, frozenset({()})))
        else:
            choices = [(qname, frozenset())]
            choices.extend(
                (qname, frozenset({row}))
                for row in sorted(options, key=_row_key)
            )
        per_input.append(choices)
    if not per_input:
        return [{}]
    return [dict(combo) for combo in itertools.product(*per_input)]


def initial_states(composition: Composition,
                   databases: Mapping[str, Instance],
                   domain: Domain) -> list[GlobalState]:
    """All legal initial snapshots over the given per-peer databases."""
    data_parts: dict[str, Rows] = {}
    for peer in composition.peers:
        db = databases.get(peer.name, Instance())
        declared = {s.name for s in peer.database}
        unknown = set(db.relations()) - declared
        if unknown:
            raise SpecificationError(
                f"database for peer {peer.name!r} mentions undeclared "
                f"relations {sorted(unknown)}"
            )
        for sym in peer.database:
            data_parts[f"{peer.name}.{sym.name}"] = db[sym.name]
    core = GlobalState(
        data=Instance(data_parts),
        queues=empty_queues(composition),
        mover=None,
    )
    states = [core]
    for peer in composition.peers:
        expanded: list[GlobalState] = []
        for st in states:
            for choice in input_choices(composition, st, peer, domain):
                expanded.append(
                    GlobalState(
                        data=st.data.merged(Instance(choice)),
                        queues=st.queues,
                        mover=None,
                    )
                )
        states = expanded
    return states


def _resolve_flat_sends(
    candidates: Rows, semantics: ChannelSemantics
) -> list[tuple[frozenset | None, bool]]:
    """Outcomes of a flat send: (message rows or None, error-flag)."""
    if not candidates:
        return [(None, False)]
    if len(candidates) == 1:
        (row,) = candidates
        return [(frozenset({row}), False)]
    if semantics.flat_send is FlatSendDiscipline.DETERMINISTIC_ERROR:
        return [(None, True)]
    return [
        (frozenset({row}), False)
        for row in sorted(candidates, key=_row_key)
    ]


def _delivery_branches(
    messages: list[tuple[Channel, frozenset]],
    semantics: ChannelSemantics,
) -> list[list[tuple[Channel, frozenset, bool]]]:
    """All loss/delivery combinations for the messages sent this step."""
    per_message: list[list[tuple[Channel, frozenset, bool]]] = []
    for channel, message in messages:
        lossy = (
            semantics.nested_is_lossy() if channel.nested
            else semantics.flat_is_lossy()
        )
        outcomes = [(channel, message, True)]
        if lossy:
            outcomes.append((channel, message, False))
        per_message.append(outcomes)
    if not per_message:
        return [[]]
    return [list(combo) for combo in itertools.product(*per_message)]


def peer_successors(composition: Composition, state: GlobalState,
                    mover: str, domain: Domain,
                    semantics: ChannelSemantics) -> list[GlobalState]:
    """All legal successors of *state* when peer *mover* moves."""
    peer = composition.peer(mover)
    rules = composition.qualified_rules(mover)
    view = snapshot_view(state, composition)

    def q(name: str) -> str:
        return f"{mover}.{name}"

    updates: dict[str, Rows] = {}

    # state relations: insert/delete with no-op conflict semantics
    for sym in peer.states:
        insert = _find_rule(rules, RuleKind.INSERT, q(sym.name))
        delete = _find_rule(rules, RuleKind.DELETE, q(sym.name))
        if insert is None and delete is None:
            continue
        ins = _rule_answers(insert, view, domain)
        dele = _rule_answers(delete, view, domain)
        old = state.data[q(sym.name)]
        updates[q(sym.name)] = frozenset(
            (ins - dele) | (old & ins & dele) | (old - ins - dele)
        )

    # actions are recomputed on every move
    for sym in peer.actions:
        rule = _find_rule(rules, RuleKind.ACTION, q(sym.name))
        updates[q(sym.name)] = _rule_answers(rule, view, domain)

    # previous inputs: replaced by the current input when non-empty
    for sym in peer.inputs:
        current = state.data[q(sym.name)]
        if current:
            updates[q(prev_name(sym.name))] = current

    # send rules
    flat_outcomes: list[list[tuple[Channel, frozenset | None, bool]]] = []
    nested_messages: list[tuple[Channel, frozenset]] = []
    for sym in peer.out_queues:
        channel = composition.channel(sym.name)
        rule = _find_rule(rules, RuleKind.SEND, q(sym.name))
        produced = _rule_answers(rule, view, domain)
        if sym.nested:
            if produced or (
                rule is not None
                and semantics.nested_empty_send is NestedEmptySend.ENQUEUE
            ):
                nested_messages.append((channel, frozenset(produced)))
        else:
            outcomes = _resolve_flat_sends(produced, semantics)
            flat_outcomes.append([
                (channel, message, error) for message, error in outcomes
            ])

    # queue mechanics: dequeue consumed in-queues first
    base_queues = state.queue_map()
    consumed = peer.consumed_in_queues()
    for channel in composition.channels:
        if channel.receiver == mover and channel.name in consumed:
            contents = base_queues[channel.name]
            if contents:
                base_queues[channel.name] = contents[1:]

    successors: list[GlobalState] = []
    flat_combos = (
        [list(combo) for combo in itertools.product(*flat_outcomes)]
        if flat_outcomes else [[]]
    )
    for flat_combo in flat_combos:
        error_updates: dict[str, Rows] = {}
        messages: list[tuple[Channel, frozenset]] = []
        for channel, message, error in flat_combo:
            error_updates[q(error_name(channel.name))] = (
                frozenset({()}) if error else frozenset()
            )
            if message is not None:
                messages.append((channel, message))
        messages.extend(nested_messages)
        messages.sort(key=lambda cm: cm[0].name)
        sent = frozenset(channel.name for channel, _m in messages)

        for branch in _delivery_branches(messages, semantics):
            queues = dict(base_queues)
            enqueued: set[str] = set()
            for channel, message, delivered in branch:
                if not delivered:
                    continue
                contents = queues[channel.name]
                if (semantics.queue_bound is not None
                        and len(contents) >= semantics.queue_bound):
                    continue  # full queue: message dropped
                queues[channel.name] = contents + (message,)
                enqueued.add(channel.name)

            data0 = state.data.merged(
                Instance({**updates, **error_updates})
            )
            candidate = GlobalState(
                data=data0,
                queues=freeze_queues(queues),
                mover=mover,
                enqueued=frozenset(enqueued),
                sent=sent,
            )
            # the successor's input is chosen against the successor's
            # own options (Definition 2.3)
            for choice in input_choices(composition, candidate, peer,
                                        domain):
                successors.append(
                    GlobalState(
                        data=data0.merged(Instance(choice)),
                        queues=candidate.queues,
                        mover=mover,
                        enqueued=candidate.enqueued,
                        sent=sent,
                    )
                )
    return successors


def successors(composition: Composition, state: GlobalState,
               domain: Domain, semantics: ChannelSemantics,
               env_one_action_per_move: bool = False,
               env_value_domain: Domain | None = None) -> list[GlobalState]:
    """All legal successors of *state* (any peer may move)."""
    out: list[GlobalState] = []
    for peer in composition.peers:
        out.extend(
            peer_successors(composition, state, peer.name, domain,
                            semantics)
        )
    if not composition.is_closed:
        out.extend(
            environment_successors(
                composition, state, domain, semantics,
                one_action_per_move=env_one_action_per_move,
                value_domain=env_value_domain,
            )
        )
    return out
