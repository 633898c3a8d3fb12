"""Analyzer pass family DWV5xx: interprocedural communication flow.

Three detectors over the static communication graph
(:mod:`repro.spec.commgraph`), all sound with respect to the same
propositional may-be-nonempty abstraction the reachability pass uses:

* ``DWV501`` -- **static deadlock**: a cycle of channels where every
  producer of every channel in the cycle positively waits on another
  channel of the same cycle, and no send into the cycle is enabled
  when all in-cycle deliveries are blocked.  Under Definition 2.4 no
  message of the cycle is ever enqueued, so every positive ``?Q`` test
  on it is constantly false.
* ``DWV502`` -- **orphan message flow**: the channel's producer can
  fire, but every receiver-side rule that positively consumes the
  queue is dead under the abstraction; the messages arrive and are
  never acted on.
* ``DWV503`` -- **multi-hop dropped-message chain**: the payload is
  only ever *relayed* -- every live consuming rule is itself a send
  into a channel that is (transitively) never observed by an
  insert/delete/action/input rule, ending in a queue its receiver
  never mentions.  Under the k-bounded lossy semantics every such
  message beyond the terminal bound is provably dropped; this is
  DWV307 generalized across hops.

Each detector is deliberately conservative: DWV501 only fires when
*no* producer of the cycle can be enabled from outside it, and
DWV502/503 require a provably-live producer, so a dead sender (already
DWV101's finding) does not cascade into flow noise.
"""

from __future__ import annotations

from ..fo.schema import prev_name
from ..spec.commgraph import CommGraph, QueueNode, build_comm_graph
from ..spec.composition import Composition
from ..spec.rules import RuleKind
from .dataflow import solve, tarjan_sccs
from .diagnostics import Diagnostic, make
from .passes import AnalysisContext, AnalysisPass
from .reachability import _may_hold, _seed

#: Rule kinds that *observe* a payload (anything but a pure relay).
_OBSERVING_KINDS = frozenset({
    RuleKind.INPUT.value, RuleKind.INSERT.value,
    RuleKind.DELETE.value, RuleKind.ACTION.value,
})


def _available_blocking(composition: Composition,
                        blocked: frozenset[str]) -> set[tuple[str, str]]:
    """The may-be-nonempty fixpoint with deliveries on *blocked* channels
    suppressed: the receiver of a blocked channel never sees its queue
    become nonempty, however often the sender fires."""
    available = _seed(composition)
    for chan in composition.channels:
        if chan.name in blocked and chan.receiver is not None:
            available.discard((chan.receiver, chan.name))
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
                    elif (rule.kind is RuleKind.SEND
                          and rule.target not in blocked):
                        receiver = channel_receiver.get(rule.target)
                        if receiver is not None:
                            available.add((receiver, rule.target))
    return available


def _deadlock_cycles(graph: CommGraph,
                     composition: Composition) -> list[Diagnostic]:
    """DWV501: blocking-receive cycles with no external producer."""
    channels = sorted(
        c.name for c in composition.channels
        if c.sender is not None and c.receiver is not None
    )
    if not channels:
        return []
    waits = {q: graph.waits_for(q) for q in channels}
    sccs = tarjan_sccs(channels, lambda q: waits.get(q, ()))
    out: list[Diagnostic] = []
    for scc in sccs:
        cycle = frozenset(scc)
        if len(scc) == 1 and scc[0] not in waits.get(scc[0], ()):
            continue
        # Can any send into the cycle fire with in-cycle deliveries
        # blocked?  If so the cycle can be primed from outside.
        blocked_avail = _available_blocking(composition, cycle)
        primed = False
        for q in scc:
            for producer in graph.producers(q):
                rule = graph.rule(producer)
                if _may_hold(rule.body, blocked_avail, producer.peer):
                    primed = True
                    break
            if primed:
                break
        if primed:
            continue
        names = " -> ".join(sorted(scc))
        out.append(make(
            "DWV501",
            "every producer of this channel cycle blocks on a positive "
            "receive from the same cycle; no message is ever enqueued",
            where="composition",
            subject=f"cycle {names}",
        ))
    return out


def _orphan_flows(graph: CommGraph, composition: Composition,
                  available: set[tuple[str, str]]) -> list[Diagnostic]:
    """DWV502: live sender, but every positive consumer is dead."""
    out: list[Diagnostic] = []
    for chan in sorted(composition.channels, key=lambda c: c.name):
        if chan.sender is None or chan.receiver is None:
            continue
        producers = graph.producers(chan.name)
        if not any(_may_hold(graph.rule(p).body, available, p.peer)
                   for p in producers):
            continue  # dead sender is DWV101's finding, not flow noise
        consumers = [
            edge.dst for edge in graph.successors(QueueNode(chan.name))
            if edge.kind == "receive" and edge.positive
        ]
        if not consumers:
            continue  # never mentioned at all -> DWV307's case
        if any(_may_hold(graph.rule(c).body, available, c.peer)
               for c in consumers):
            continue
        dead = ", ".join(sorted(c.label() for c in consumers))
        out.append(make(
            "DWV502",
            f"peer {chan.sender} can send on this channel but every "
            f"consuming rule of peer {chan.receiver} is dead",
            where=f"channel {chan.name}",
            subject=dead,
        ))
    return out


def _dropped_chains(graph: CommGraph, composition: Composition,
                    available: set[tuple[str, str]],
                    orphaned: set[str]) -> list[Diagnostic]:
    """DWV503: payloads only ever relayed into provably-dropped queues."""
    channels = [c for c in composition.channels
                if c.sender is not None and c.receiver is not None]
    names = [c.name for c in channels]
    name_set = set(names)
    # a relay into an environment-facing queue escapes the composition:
    # the environment observes everything sent to it
    env_observed = {c.name for c in composition.channels
                    if c.receiver is None}

    def consumers(q: str):
        return tuple(edge.dst for edge in graph.successors(QueueNode(q))
                     if edge.kind == "receive" and edge.positive)

    def deps(q: str):
        # q's productivity depends on the relay targets of its consumers
        targets = []
        for node in consumers(q):
            rule = graph.rule(node)
            if rule.kind is RuleKind.SEND and rule.target in name_set:
                targets.append(rule.target)
        return targets

    def transfer(q: str, facts):
        for node in consumers(q):
            rule = graph.rule(node)
            if node.kind in _OBSERVING_KINDS:
                return frozenset({"productive"})
            if rule.kind is RuleKind.SEND:
                if rule.target in env_observed:
                    return frozenset({"productive"})
                if facts.get(rule.target, frozenset()):
                    return frozenset({"productive"})
        return frozenset()

    productive = solve(names, deps, transfer)

    out: list[Diagnostic] = []
    for chan in sorted(channels, key=lambda c: c.name):
        q = chan.name
        if productive.get(q) or q in orphaned:
            continue
        cons = consumers(q)
        if not cons:
            continue  # DWV307 already covers the unmentioned queue
        producers = graph.producers(q)
        if not any(_may_hold(graph.rule(p).body, available, p.peer)
                   for p in producers):
            continue
        # Walk one relay chain to the terminal dropped queue for the
        # explanation (breadth-first, so the shortest chain wins).
        chain = [q]
        seen = {q}
        frontier = q
        while True:
            next_hop = None
            for node in consumers(frontier):
                rule = graph.rule(node)
                if (rule.kind is RuleKind.SEND
                        and rule.target in productive
                        and rule.target not in seen):
                    next_hop = rule.target
                    break
            if next_hop is None:
                break
            chain.append(next_hop)
            seen.add(next_hop)
            frontier = next_hop
        hops = " -> ".join(chain)
        terminal = chain[-1]
        out.append(make(
            "DWV503",
            "messages on this channel are only ever relayed; the chain "
            f"ends at queue {terminal}, which its receiver never "
            "observes, so every message beyond the bound is dropped",
            where=f"channel {q}",
            subject=f"chain {hops}",
            provenance=tuple(
                f"?{a} relayed by {b}" for a, b in zip(chain, chain[1:])
            ) or (f"?{q} has no observing rule",),
        ))
    return out


def flow_pass(ctx: AnalysisContext) -> list[Diagnostic]:
    """Run the three DWV5xx communication-flow detectors."""
    composition = ctx.composition
    graph = build_comm_graph(composition)
    available = ctx.available
    out = _deadlock_cycles(graph, composition)
    deadlocked: set[str] = set()
    for d in out:
        if d.subject.startswith("cycle "):
            deadlocked.update(d.subject[len("cycle "):].split(" -> "))
    orphans = _orphan_flows(graph, composition, available)
    orphaned = {d.where[len("channel "):] for d in orphans}
    out.extend(orphans)
    out.extend(_dropped_chains(graph, composition, available,
                               orphaned | deadlocked))
    return out


#: The pass object registered in :data:`repro.analysis.passes.ALL_PASSES`.
FlowPass = AnalysisPass(
    "flow", flow_pass,
    "interprocedural communication flow (DWV5xx)",
)


__all__ = ["FlowPass", "build_comm_graph", "flow_pass"]
