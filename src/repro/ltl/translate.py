"""LTL to Büchi automaton translation (GPVW tableau construction).

Implements the classic "simple on-the-fly" construction of Gerth, Peled,
Vardi and Wolper (PSTV'95): the formula is put in negation normal form,
tableau nodes are expanded by splitting on the fixpoint characterizations
of ``U`` and ``R``, and the resulting node graph is read as a generalized
Büchi automaton (one acceptance set per ``U`` subformula), which is then
degeneralized.

The produced automaton reads words over valuations of the formula's atomic
propositions; guards on edges record the positive/negative literals a node
committed to.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..errors import FormulaError
from ..obs import PHASE_TRANSLATE, counter, histogram, phase
from .buchi import BuchiAutomaton, Edge, GeneralizedBuchi, Guard
from .formulas import (
    LAnd, LAtom, LFalse, LNext, LNot, LOr, LRelease, LTrue, LUntil,
    LTLFormula, atom_payloads, to_nnf,
)

_INIT = "__init__"


@dataclass
class _Node:
    """A GPVW tableau node under construction.

    The formula sets are insertion-ordered (dict keys), so the expansion
    order -- and with it the automaton's state numbering, edge order and
    acceptance order -- does not follow ``PYTHONHASHSEED``.
    """

    name: int
    incoming: dict
    new: dict
    old: dict
    next: dict


def _is_literal(f: LTLFormula) -> bool:
    if isinstance(f, (LTrue, LFalse, LAtom)):
        return True
    return isinstance(f, LNot) and isinstance(f.body, LAtom)


def _negated(f: LTLFormula) -> LTLFormula:
    """Negation of a literal, staying within literals."""
    if isinstance(f, LTrue):
        return LFalse()
    if isinstance(f, LFalse):
        return LTrue()
    if isinstance(f, LNot):
        return f.body
    return LNot(f)


def _expand(node: _Node, nodes: list[_Node],
            counter: "itertools.count") -> None:
    """The GPVW expand() procedure, iterative over an explicit stack."""
    stack = [node]
    while stack:
        cur = stack.pop()
        if not cur.new:
            # look for an existing node with identical old/next sets
            merged = False
            for existing in nodes:
                if existing.old == cur.old and existing.next == cur.next:
                    existing.incoming |= cur.incoming
                    merged = True
                    break
            if merged:
                continue
            nodes.append(cur)
            successor = _Node(
                name=next(counter),
                incoming={cur.name: None},
                new=dict(cur.next),
                old={},
                next={},
            )
            stack.append(successor)
            continue

        eta, _ = cur.new.popitem()
        if _is_literal(eta):
            if isinstance(eta, LFalse) or _negated(eta) in cur.old:
                continue  # contradictory node: discard
            if not isinstance(eta, LTrue):
                cur.old[eta] = None
            stack.append(cur)
        elif isinstance(eta, LAnd):
            for part in (eta.left, eta.right):
                if part not in cur.old:
                    cur.new[part] = None
            cur.old[eta] = None
            stack.append(cur)
        elif isinstance(eta, LNext):
            cur.next[eta.body] = None
            cur.old[eta] = None
            stack.append(cur)
        elif isinstance(eta, (LOr, LUntil, LRelease)):
            if isinstance(eta, LOr):
                new1, new2, next1 = (eta.left,), (eta.right,), ()
            elif isinstance(eta, LUntil):
                new1, new2, next1 = (eta.left,), (eta.right,), (eta,)
            else:  # LRelease
                new1, new2, next1 = (eta.right,), (eta.left, eta.right), (eta,)
            node1 = _Node(
                name=next(counter),
                incoming=dict(cur.incoming),
                new=cur.new | {f: None for f in new1 if f not in cur.old},
                old=cur.old | {eta: None},
                next=cur.next | dict.fromkeys(next1),
            )
            node2 = _Node(
                name=next(counter),
                incoming=dict(cur.incoming),
                new=cur.new | {f: None for f in new2 if f not in cur.old},
                old=cur.old | {eta: None},
                next=dict(cur.next),
            )
            stack.append(node2)
            stack.append(node1)
        else:
            raise FormulaError(f"formula not in NNF: {eta}")


def _guard_of(old: set) -> Guard:
    pos = frozenset(f.ap for f in old if isinstance(f, LAtom))
    neg = frozenset(
        f.body.ap for f in old
        if isinstance(f, LNot) and isinstance(f.body, LAtom)
    )
    return Guard(pos, neg)


def ltl_to_generalized_buchi(formula: LTLFormula) -> GeneralizedBuchi:
    """Translate *formula* into a generalized Büchi automaton.

    The automaton has a distinguished initial state that reads the first
    letter on its outgoing edges, so a word ``w0 w1 ...`` is accepted iff
    the formula holds at position 0.
    """
    nnf = to_nnf(formula)
    counter = itertools.count(1)
    nodes: list[_Node] = []
    root = _Node(
        name=next(counter),
        incoming={_INIT: None},
        new={nnf: None},
        old={},
        next={},
    )
    _expand(root, nodes, counter)

    aps = atom_payloads(nnf)
    states: set = {_INIT} | {n.name for n in nodes}
    edges: list[Edge] = []
    for target in nodes:
        guard = _guard_of(target.old)
        for src in target.incoming:
            edges.append(Edge(src, guard, target.name))

    # one acceptance set per Until subformula
    untils = [
        f for n in nodes for f in n.old if isinstance(f, LUntil)
    ]
    unique_untils: list[LUntil] = []
    for u in untils:
        if u not in unique_untils:
            unique_untils.append(u)
    acceptance_sets = []
    for u in unique_untils:
        sat = frozenset(
            n.name for n in nodes
            if u.right in n.old or u not in n.old
        )
        acceptance_sets.append(sat)
    if not acceptance_sets:
        acceptance_sets.append(frozenset(n.name for n in nodes))

    return GeneralizedBuchi(
        states=frozenset(states),
        initial=frozenset({_INIT}),
        edges=tuple(edges),
        acceptance_sets=tuple(acceptance_sets),
        aps=frozenset(aps),
    )


def ltl_to_buchi(formula: LTLFormula) -> BuchiAutomaton:
    """Translate *formula* to a plain (degeneralized) Büchi automaton."""
    with phase(PHASE_TRANSLATE):
        nba = ltl_to_generalized_buchi(formula).degeneralize()
    counter("translate.automata_built").inc()
    counter("translate.nba_states").inc(nba.num_states())
    histogram("translate.nba_states_dist",
              boundaries=(2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
              ).observe(nba.num_states())
    return nba
