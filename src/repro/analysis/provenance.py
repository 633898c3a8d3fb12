"""Analyzer pass family DWV6xx: interprocedural data provenance.

A taint-style least fixpoint over the composition tracks, for every
relation of every peer, the *sources* its values may derive from:

* ``"input"`` / ``"prev-input"`` -- user inputs (the values Theorem 3.4
  bounds);
* ``"database"`` -- the fixed finite database;
* ``"env"`` -- payloads of environment-sourced channels (open
  compositions);
* ``"constant"`` -- pinned by an equality with a constant;
* ``"invented"`` -- a rule head variable bound by *no* positive atom:
  the rule may emit arbitrary active-domain values.

The interesting flow is ``"invented"`` crossing a channel: a peer-local
input-boundedness check accepts a quantifier guarded by a flat in-queue
atom (Section 3.1 allows it), but if the *sender* invents the payload
the guard no longer bounds anything -- the bounded-domain argument of
Theorem 3.4 erodes exactly there.  ``DWV601`` flags that situation;
``DWV602`` is the milder note that a channel's payload may carry
invented values at all.

The same fixpoint powers the provenance *explanations* attached to
every DWV0xx input-boundedness diagnostic: :func:`explain_relations`
renders, for each relation implicated in a violation, the source set
and -- when values are invented -- the exact rule chain that invents
them, plus a minimal-repair suggestion naming the peer's available
guard relations.
"""

from __future__ import annotations

from ..fo import formulas as fo
from ..fo.schema import RelationKind, Schema, prev_name
from ..fo.terms import Const, Var
from ..spec.composition import Composition
from ..spec.peer import Peer
from ..spec.rules import Rule, RuleKind
from .dataflow import solve
from .diagnostics import Diagnostic, make
from .passes import AnalysisContext, AnalysisPass

#: Source tags, in severity order ("invented" is the one that bites).
TAGS = ("input", "prev-input", "database", "env", "constant", "invented")

#: Relation kinds whose facts flow through when read positively.
_FLOW_KINDS = frozenset({
    RelationKind.IN_QUEUE, RelationKind.OUT_QUEUE,
    RelationKind.STATE, RelationKind.ACTION,
})


def _positive_literals(formula: fo.Formula, positive: bool = True,
                       atoms: list | None = None,
                       eqs: list | None = None,
                       ) -> tuple[list[fo.Atom], list[fo.Eq]]:
    """Atoms and equalities occurring under positive polarity."""
    if atoms is None:
        atoms = []
    if eqs is None:
        eqs = []
    if isinstance(formula, fo.Atom):
        if positive:
            atoms.append(formula)
    elif isinstance(formula, fo.Eq):
        if positive:
            eqs.append(formula)
    elif isinstance(formula, fo.Not):
        _positive_literals(formula.body, not positive, atoms, eqs)
    elif isinstance(formula, fo.Implies):
        _positive_literals(formula.antecedent, not positive, atoms, eqs)
        _positive_literals(formula.consequent, positive, atoms, eqs)
    elif isinstance(formula, (fo.And, fo.Or)):
        for child in formula.children:
            _positive_literals(child, positive, atoms, eqs)
    elif isinstance(formula, (fo.Exists, fo.Forall)):
        _positive_literals(formula.body, positive, atoms, eqs)
    return atoms, eqs


def _atom_var_names(a: fo.Atom) -> set[str]:
    return {t.name for t in a.terms if isinstance(t, Var)}


def _rule_var_tags(rule: Rule, schema: Schema, peer: str,
                   facts) -> dict[str, frozenset[str]]:
    """Source tags for every variable of *rule*'s body/head.

    A variable bound by a positive atom inherits that atom's sources;
    var-to-var equalities alias; a positive equality with a constant
    pins; anything left is invented.
    """
    atoms, eqs = _positive_literals(rule.body)
    tags: dict[str, set[str]] = {}
    bound: set[str] = set()
    for a in atoms:
        sym = schema.get(a.rel)
        if sym is None:
            continue
        if sym.kind is RelationKind.DATABASE:
            sources: set[str] = {"database"}
        elif sym.kind is RelationKind.INPUT:
            sources = {"input"}
        elif sym.kind is RelationKind.PREV_INPUT:
            sources = {"prev-input"}
        elif sym.kind in _FLOW_KINDS:
            sources = set(facts.get((peer, a.rel), frozenset()))
        else:
            continue  # propositional bookkeeping: carries no values
        for name in _atom_var_names(a):
            tags.setdefault(name, set()).update(sources)
            bound.add(name)
    # alias through var = var; pin through var = const
    changed = True
    while changed:
        changed = False
        for eq in eqs:
            left, right = eq.left, eq.right
            if isinstance(left, Var) and isinstance(right, Var):
                for a_name, b_name in ((left.name, right.name),
                                       (right.name, left.name)):
                    if a_name in bound and b_name not in bound:
                        tags.setdefault(b_name, set()).update(
                            tags.get(a_name, set()))
                        bound.add(b_name)
                        changed = True
            elif isinstance(left, Var) and isinstance(right, Const):
                if left.name not in bound:
                    tags.setdefault(left.name, set()).add("constant")
                    bound.add(left.name)
                    changed = True
            elif isinstance(right, Var) and isinstance(left, Const):
                if right.name not in bound:
                    tags.setdefault(right.name, set()).add("constant")
                    bound.add(right.name)
                    changed = True
    out: dict[str, frozenset[str]] = {}
    for v in rule.head:
        if v.name in bound:
            out[v.name] = frozenset(tags.get(v.name, set()))
        else:
            out[v.name] = frozenset({"invented"})
    return out


def compute_provenance(composition: Composition,
                       ) -> dict[tuple[str, str], frozenset[str]]:
    """The provenance fixpoint: ``(peer, relation) -> source tags``."""
    senders = {c.name: c.sender for c in composition.channels}
    nodes: list[tuple[str, str]] = []
    writing: dict[tuple[str, str], list[Rule]] = {}
    for peer in composition.peers:
        for sym in peer.relations():
            nodes.append((peer.name, sym.name))
        for rule in peer.rules:
            if rule.kind is RuleKind.DELETE:
                continue  # deletions select tuples, they add no values
            writing.setdefault((peer.name, rule.target), []).append(rule)

    def deps(node: tuple[str, str]):
        p, r = node
        sym = composition.peer(p).local_schema.get(r)
        if sym is not None and sym.kind is RelationKind.IN_QUEUE:
            sender = senders.get(r)
            return [(sender, r)] if sender is not None else []
        out = []
        for rule in writing.get(node, ()):
            atoms, _ = _positive_literals(rule.body)
            schema = composition.peer(p).local_schema
            for a in atoms:
                read = schema.get(a.rel)
                if read is not None and read.kind in _FLOW_KINDS:
                    out.append((p, a.rel))
        return out

    def transfer(node: tuple[str, str], facts):
        p, r = node
        schema = composition.peer(p).local_schema
        sym = schema.get(r)
        if sym is not None and sym.kind is RelationKind.DATABASE:
            return frozenset({"database"})
        if sym is not None and sym.kind is RelationKind.IN_QUEUE:
            sender = senders.get(r)
            if sender is None:
                return frozenset({"env"})
            return facts.get((sender, r), frozenset())
        acc: set[str] = set()
        for rule in writing.get(node, ()):
            acc.update(*(_rule_var_tags(rule, schema, p, facts).values()
                         or [frozenset()]))
        return frozenset(acc)

    return solve(nodes, deps, transfer)


# -- explanations ------------------------------------------------------------


def _invention_witness(composition: Composition,
                       facts: dict[tuple[str, str], frozenset[str]],
                       peer_name: str, rel: str,
                       depth: int = 8) -> list[str]:
    """The rule chain through which ``(peer, rel)`` may carry invented
    values: one hop per entry, ending at the inventing rule."""
    chain: list[str] = []
    seen: set[tuple[str, str]] = set()
    cur = (peer_name, rel)
    senders = {c.name: c.sender for c in composition.channels}
    while depth > 0 and cur not in seen:
        seen.add(cur)
        depth -= 1
        p, r = cur
        peer = composition.peer(p)
        sym = peer.local_schema.get(r)
        if sym is not None and sym.kind is RelationKind.IN_QUEUE:
            sender = senders.get(r)
            if sender is None:
                chain.append(f"{p}.{r} is filled by the environment")
                return chain
            chain.append(f"{p}.{r} receives from {sender}.{r}")
            cur = (sender, r)
            continue
        hop = None
        for rule in peer.rules:
            if rule.target != r or rule.kind is RuleKind.DELETE:
                continue
            var_tags = _rule_var_tags(rule, peer.local_schema, p, facts)
            for v in rule.head:
                tags = var_tags.get(v.name, frozenset())
                if "invented" not in tags:
                    continue
                if tags == frozenset({"invented"}):
                    chain.append(
                        f"{p}.{r}: head variable {v.name} of the "
                        f"{rule.kind.value} rule is bound by no "
                        "positive atom (invented value)")
                    return chain
                # inherited: find the positive atom carrying the taint
                atoms, _ = _positive_literals(rule.body)
                for a in atoms:
                    read = peer.local_schema.get(a.rel)
                    if (read is not None and read.kind in _FLOW_KINDS
                            and v.name in _atom_var_names(a)
                            and "invented" in facts.get(
                                (p, a.rel), frozenset())):
                        chain.append(
                            f"{p}.{r}: {v.name} flows from {a.rel} in "
                            f"the {rule.kind.value} rule")
                        hop = (p, a.rel)
                        break
                if hop:
                    break
            if hop:
                break
        if hop is None:
            return chain
        cur = hop
    return chain


def _resolve(composition: Composition, peer_name: str | None,
             name: str) -> tuple[str, str] | None:
    """Map a (possibly ``Peer.rel``-qualified, possibly ``prev_``-derived)
    relation name to a provenance key, or None for bookkeeping symbols."""
    if "." in name:
        owner, base = name.rsplit(".", 1)
    elif peer_name is not None:
        owner, base = peer_name, name
    else:
        return None
    try:
        peer = composition.peer(owner)
    except Exception:
        return None
    sym = peer.local_schema.get(base)
    if sym is None:
        return None
    if sym.kind is RelationKind.PREV_INPUT:
        for inp in peer.inputs:
            if prev_name(inp.name) == base:
                return (owner, inp.name)
        return None
    if sym.kind in (RelationKind.QUEUE_STATE, RelationKind.ERROR_FLAG,
                    RelationKind.RECEIVED_FLAG, RelationKind.MOVE):
        return None
    return (owner, base)


def explain_relations(composition: Composition,
                      facts: dict[tuple[str, str], frozenset[str]],
                      peer_name: str | None,
                      relations,
                      depth: int = 8) -> list[str]:
    """Provenance lines for *relations* (bare or ``Peer.rel`` names):
    one source-set line each, plus the invention chain when tainted."""
    lines: list[str] = []
    for name in relations:
        key = _resolve(composition, peer_name, name)
        if key is None:
            continue
        tags = facts.get(key, frozenset())
        shown = [t for t in TAGS if t in tags] or ["none (never populated)"]
        lines.append(f"{name}: values may derive from "
                     f"{{{', '.join(shown)}}}")
        if "invented" in tags:
            lines.extend("  " + entry for entry in _invention_witness(
                composition, facts, key[0], key[1], depth))
    return lines


def repair_suggestion(peer: Peer) -> str:
    """The minimal-repair line for an unguarded quantifier on *peer*."""
    guards = sorted(
        [s.name for s in peer.inputs]
        + [prev_name(s.name) for s in peer.inputs]
        + [s.name for s in peer.in_queues if not s.nested]
    )
    if guards:
        return ("repair: guard the quantifier with one of peer "
                f"{peer.name}'s bounded relations: {', '.join(guards)}")
    return (f"repair: peer {peer.name} declares no input or flat-queue "
            "relation to guard with; add an input relation")


# -- the DWV6xx pass ---------------------------------------------------------


def _guarded_queue_quantifiers(peer: Peer, strict: bool):
    """Yield ``(rule, quantifier, guard_atom)`` for quantifiers guarded
    by a flat in-queue atom (the Section 3.1-legal cross-peer guards)."""
    from ..ib.checker import _atom_vars, _flatten_conj, _is_guard_kind

    in_names = {q.name for q in peer.in_queues if not q.nested}
    for rule in peer.rules:
        for node in fo.walk(rule.body):
            if not isinstance(node, (fo.Exists, fo.Forall)):
                continue
            quantified = {v.name for v in node.variables}
            if isinstance(node, fo.Exists):
                candidates = _flatten_conj(node.body)
            elif isinstance(node.body, fo.Implies):
                candidates = _flatten_conj(node.body.antecedent)
            else:
                continue
            for cand in candidates:
                if not isinstance(cand, fo.Atom):
                    continue
                sym = peer.local_schema.get(cand.rel)
                if sym is None or not _is_guard_kind(sym, strict):
                    continue
                if quantified <= _atom_vars(cand):
                    if cand.rel in in_names:
                        yield rule, node, cand
                    break


def provenance_pass(ctx: AnalysisContext) -> list[Diagnostic]:
    """DWV601/602: invented values crossing channels."""
    composition = ctx.composition
    facts = ctx.provenance
    out: list[Diagnostic] = []
    for peer in composition.peers:
        for rule, node, guard in _guarded_queue_quantifiers(
                peer, ctx.strict):
            tags = facts.get((peer.name, guard.rel), frozenset())
            if "invented" not in tags:
                continue
            where = (f"peer {peer.name}, {rule.kind.value} rule "
                     f"for {rule.target}")
            out.append(make(
                "DWV601",
                f"quantifier is guarded by ?{guard.rel}, but the "
                "sender may invent the payload values, so the guard "
                "does not bound the quantification",
                where=where, peer=peer.name,
                rule=f"{rule.kind.value} rule for {rule.target}",
                subject=str(node),
                provenance=tuple(explain_relations(
                    composition, facts, peer.name, [guard.rel])),
            ))
    for chan in sorted(composition.channels, key=lambda c: c.name):
        if chan.sender is None:
            continue
        tags = facts.get((chan.sender, chan.name), frozenset())
        if "invented" not in tags:
            continue
        out.append(make(
            "DWV602",
            f"peer {chan.sender} may send invented values on this "
            "channel",
            where=f"channel {chan.name}", peer=chan.sender,
            subject=chan.name,
            provenance=tuple(
                "  " + entry for entry in _invention_witness(
                    composition, facts, chan.sender, chan.name)),
        ))
    return out


#: The pass object registered in :data:`repro.analysis.passes.ALL_PASSES`.
ProvenancePass = AnalysisPass(
    "provenance", provenance_pass,
    "interprocedural data provenance (DWV6xx)",
)


__all__ = [
    "ProvenancePass", "TAGS", "compute_provenance", "explain_relations",
    "provenance_pass", "repair_suggestion",
]
