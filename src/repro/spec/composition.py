"""Compositions of peers (Definition 2.5) and the composition schema.

A composition wires peers together through named channels: a queue relation
named ``q`` declared as an out-queue by peer ``S`` and as an in-queue by
peer ``R`` becomes the channel ``q`` from ``S`` to ``R``.  Each queue has at
most one sender and one receiver; a composition is *closed* when every
queue has both, and *open* otherwise (the missing endpoint is the
environment, Section 5).

The composition schema (Section 3) qualifies every peer relation as
``Peer.relation`` and adds:

* ``Peer.prev_I`` for inputs, ``Peer.empty_Q`` for in-queues,
  ``Peer.error_Q`` for flat out-queues, ``Peer.received_Q`` for in-queues;
* the propositional ``move_Peer`` symbols (and ``move_ENV`` when open);
* for open compositions, the environment's view of its channels:
  ``ENV.q`` as the environment's out-queue (for channels the environment
  sends into) or in-queue (for channels it consumes).

An in-queue symbol in a property denotes the queue's *first* message; an
out-queue symbol denotes the message *last enqueued* (Section 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ..errors import SpecificationError
from ..fo.schema import (
    ENVIRONMENT_NAME, RelationKind, RelationSymbol, Schema,
    empty_name, error_name, move_name, prev_name, received_name,
)
from ..fo.formulas import relations
from ..fo.terms import Value
from .peer import Peer
from .rules import Rule, RuleKind
from .validate import validate_composition_channels


@dataclass(frozen=True, slots=True)
class Channel:
    """One message queue: *sender* -> *receiver* (None marks the environment)."""

    name: str
    arity: int
    nested: bool
    sender: str | None
    receiver: str | None

    @property
    def from_environment(self) -> bool:
        return self.sender is None

    @property
    def to_environment(self) -> bool:
        return self.receiver is None

    def __str__(self) -> str:
        src = self.sender or ENVIRONMENT_NAME
        dst = self.receiver or ENVIRONMENT_NAME
        shape = "nested" if self.nested else "flat"
        return f"{src} --{self.name}/{self.arity} ({shape})--> {dst}"


@dataclass(frozen=True, slots=True)
class PeerMoves:
    """A peer's move table: its qualified rules resolved by target.

    Resolved once per composition, so a move looks its rules up by
    position instead of scanning the rule set.  Each entry keeps the
    *first* rule of its kind and target, as a scan would.

    * ``states``: ``(relation, insert rule, delete rule)`` for every
      state relation with at least one of the two rules;
    * ``actions``: ``(relation, rule)`` for every action relation;
    * ``inputs``: ``(relation, prev_ relation, arity, input rule)``;
    * ``sends``: ``(channel, send rule, error_ flag or None)`` for every
      out-queue, in declaration order (nested queues have no flag);
    * ``consumed``: the in-queue channels a move dequeues
      (Definition 2.4: those mentioned in some rule), in channel order;
    * ``reads``: every relation a move's effect depends on -- what the
      rules read plus the peer's own state and input relations --
      sorted; ``input_reads``: what the input rules read, sorted.
    """

    peer: str
    states: tuple
    actions: tuple
    inputs: tuple
    sends: tuple
    consumed: tuple[str, ...]
    reads: tuple[str, ...]
    input_reads: tuple[str, ...]


class Composition:
    """An immutable set of peers wired through channels."""

    def __init__(self, peers: Iterable[Peer]) -> None:
        peer_list = list(peers)
        names = [p.name for p in peer_list]
        if len(set(names)) != len(names):
            raise SpecificationError(f"duplicate peer names in {names}")
        if not peer_list:
            raise SpecificationError("a composition needs at least one peer")
        self.peers: tuple[Peer, ...] = tuple(peer_list)
        self._peer_by_name: Mapping[str, Peer] = {
            p.name: p for p in peer_list
        }
        self.channels: tuple[Channel, ...] = self._wire_channels()
        self._channel_by_name: Mapping[str, Channel] = {
            c.name: c for c in self.channels
        }
        self.schema: Schema = self._build_schema()
        self._qualified_rules: Mapping[str, tuple[Rule, ...]] = {
            p.name: self._qualify_rules(p) for p in peer_list
        }
        self._moves: Mapping[str, PeerMoves] = {
            p.name: self._resolve_moves(p) for p in peer_list
        }

    # -- wiring ---------------------------------------------------------

    def _wire_channels(self) -> tuple[Channel, ...]:
        # Definition 2.5 channel validation is shared with `repro lint`
        # (see spec.validate.collect_channel_issues).
        validate_composition_channels(self.peers)

        senders: dict[str, tuple[str, RelationSymbol]] = {}
        receivers: dict[str, tuple[str, RelationSymbol]] = {}
        for peer in self.peers:
            for q in peer.out_queues:
                senders[q.name] = (peer.name, q)
            for q in peer.in_queues:
                receivers[q.name] = (peer.name, q)

        channels: list[Channel] = []
        for name in sorted(set(senders) | set(receivers)):
            out_end = senders.get(name)
            in_end = receivers.get(name)
            if out_end and in_end:
                s_peer, s_sym = out_end
                r_peer, _r_sym = in_end
                channels.append(Channel(name, s_sym.arity, s_sym.nested,
                                        s_peer, r_peer))
            elif out_end:
                s_peer, s_sym = out_end
                channels.append(Channel(name, s_sym.arity, s_sym.nested,
                                        s_peer, None))
            else:
                assert in_end is not None
                r_peer, r_sym = in_end
                channels.append(Channel(name, r_sym.arity, r_sym.nested,
                                        None, r_peer))
        return tuple(channels)

    # -- basic queries -----------------------------------------------------

    def peer(self, name: str) -> Peer:
        try:
            return self._peer_by_name[name]
        except KeyError:
            raise SpecificationError(f"unknown peer {name!r}") from None

    def channel(self, name: str) -> Channel:
        try:
            return self._channel_by_name[name]
        except KeyError:
            raise SpecificationError(f"unknown channel {name!r}") from None

    @property
    def is_closed(self) -> bool:
        """Closed iff every channel has both endpoints (Definition 2.5)."""
        return all(
            c.sender is not None and c.receiver is not None
            for c in self.channels
        )

    def environment_channels(self) -> tuple[Channel, ...]:
        """Channels with an environment endpoint (``C.Qin delta C.Qout``)."""
        return tuple(
            c for c in self.channels
            if c.sender is None or c.receiver is None
        )

    def env_out_channels(self) -> tuple[Channel, ...]:
        """Channels the environment sends into (``E.Qout``)."""
        return tuple(c for c in self.channels if c.sender is None)

    def env_in_channels(self) -> tuple[Channel, ...]:
        """Channels the environment consumes (``E.Qin``)."""
        return tuple(c for c in self.channels if c.receiver is None)

    def qualified_rules(self, peer_name: str) -> tuple[Rule, ...]:
        """The peer's rules with all relation names composition-qualified."""
        return self._qualified_rules[peer_name]

    def moves(self, peer_name: str) -> PeerMoves:
        """The peer's move table (see :class:`PeerMoves`)."""
        try:
            return self._moves[peer_name]
        except KeyError:
            raise SpecificationError(f"unknown peer {peer_name!r}") from None

    def constants(self) -> frozenset[Value]:
        """All constants in any peer's rules."""
        out: set[Value] = set()
        for p in self.peers:
            out |= p.constants()
        return frozenset(out)

    def max_rule_variables(self) -> int:
        return max(p.max_rule_variables() for p in self.peers)

    def max_arity(self) -> int:
        return max(
            (s.arity for p in self.peers for s in p.relations()), default=0
        )

    # -- schema construction ---------------------------------------------------

    def _build_schema(self) -> Schema:
        symbols: list[RelationSymbol] = []
        for peer in self.peers:
            for sym in peer.relations():
                symbols.append(sym.qualify(peer.name))
            for inp in peer.inputs:
                symbols.append(RelationSymbol(
                    prev_name(inp.name), inp.arity,
                    RelationKind.PREV_INPUT, owner=peer.name,
                ))
            for q in peer.in_queues:
                symbols.append(RelationSymbol(
                    empty_name(q.name), 0, RelationKind.QUEUE_STATE,
                    owner=peer.name,
                ))
                symbols.append(RelationSymbol(
                    received_name(q.name), 0, RelationKind.RECEIVED_FLAG,
                    owner=peer.name,
                ))
            for q in peer.out_queues:
                if not q.nested:
                    symbols.append(RelationSymbol(
                        error_name(q.name), 0, RelationKind.ERROR_FLAG,
                        owner=peer.name,
                    ))
            symbols.append(RelationSymbol(
                move_name(peer.name), 0, RelationKind.MOVE,
            ))
        if not self.is_closed:
            symbols.append(RelationSymbol(
                move_name(ENVIRONMENT_NAME), 0, RelationKind.MOVE,
            ))
            for chan in self.env_out_channels():
                symbols.append(RelationSymbol(
                    chan.name, chan.arity, RelationKind.OUT_QUEUE,
                    nested=chan.nested, owner=ENVIRONMENT_NAME,
                ))
            for chan in self.env_in_channels():
                symbols.append(RelationSymbol(
                    chan.name, chan.arity, RelationKind.IN_QUEUE,
                    nested=chan.nested, owner=ENVIRONMENT_NAME,
                ))
        return Schema(symbols)

    def _qualify_rules(self, peer: Peer) -> tuple[Rule, ...]:
        mapping = {
            sym.name: f"{peer.name}.{sym.name}"
            for sym in peer.local_schema
        }
        return tuple(rule.rename_relations(mapping) for rule in peer.rules)

    def _resolve_moves(self, peer: Peer) -> PeerMoves:
        rules = self._qualified_rules[peer.name]

        def q(name: str) -> str:
            return f"{peer.name}.{name}"

        def find(kind: RuleKind, name: str) -> Rule | None:
            return next((r for r in rules
                         if r.kind == kind and r.target == q(name)), None)

        reads = {q(sym.name) for sym in peer.states + peer.inputs}
        input_reads: set[str] = set()
        for rule in rules:
            reads |= relations(rule.body)
            if rule.kind == RuleKind.INPUT:
                input_reads |= relations(rule.body)
        states = (
            (q(sym.name), find(RuleKind.INSERT, sym.name),
             find(RuleKind.DELETE, sym.name))
            for sym in peer.states
        )
        consumed = peer.consumed_in_queues()
        return PeerMoves(
            peer=peer.name,
            states=tuple(s for s in states
                         if s[1] is not None or s[2] is not None),
            actions=tuple((q(sym.name), find(RuleKind.ACTION, sym.name))
                          for sym in peer.actions),
            inputs=tuple(
                (q(sym.name), q(prev_name(sym.name)), sym.arity,
                 find(RuleKind.INPUT, sym.name))
                for sym in peer.inputs
            ),
            sends=tuple(
                (self.channel(sym.name), find(RuleKind.SEND, sym.name),
                 None if sym.nested else q(error_name(sym.name)))
                for sym in peer.out_queues
            ),
            consumed=tuple(
                c.name for c in self.channels
                if c.receiver == peer.name and c.name in consumed
            ),
            reads=tuple(sorted(reads)),
            input_reads=tuple(sorted(input_reads)),
        )

    def __repr__(self) -> str:
        kind = "closed" if self.is_closed else "open"
        return (f"Composition({kind}, peers={[p.name for p in self.peers]}, "
                f"channels={[c.name for c in self.channels]})")
