"""Hash-consed exploration graph shared across property valuations.

Theorem 3.4's reduction rests on a fact this module exploits directly:
the composition's reachable snapshot graph is *valuation-independent* --
different valuations of a property's closure variables change only the
AP letters the Büchi automaton reads, never the snapshots or the
transitions between them.  The reference checker
(:mod:`repro.verifier.reference`) shares only a successor memo across
valuations: every valuation re-hashes raw snapshots and re-evaluates
its letters.

Two pieces remove the redundancy:

* :class:`StateInterner` hash-conses :class:`GlobalState` snapshots into
  dense integer ids, so visited-set membership during the nested DFS is
  an int hash instead of a deep nested-tuple hash, and product nodes are
  ``(int, buchi_state)`` pairs.
* :class:`SharedExploration` wraps one :class:`TransitionCache` behind
  the interner, memoizes successor rows as id tuples, and can
  :meth:`~SharedExploration.complete` the reachable graph into a frozen
  CSR adjacency (:class:`ExploredGraph`): two flat ``array('q')``
  buffers, ``offsets``/``targets``.  Once frozen, every subsequent
  valuation's product search is a pure graph walk -- no rule firing, no
  snapshot hashing, no dict-of-states lookups.

Successor order, initial-state order, and Büchi target order are all
preserved exactly, so the interned product visits the same nodes in the
same order as the reference's
:class:`~repro.verifier.product.ProductSystem` -- verdicts,
counterexample lassos, and search node counts are identical (the
differential suite pins this).
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Iterator

from ..errors import VerificationError
from ..obs import counter, gauge
from ..runtime.state import GlobalState
from .atoms import SharedSnapshotContext
from .product import PairTransitions, ProductNode, TransitionCache


class StateInterner:
    """Hash-cons snapshots into dense ids (ids are assignment order)."""

    __slots__ = ("_ids", "_states")

    def __init__(self) -> None:
        self._states: list[GlobalState] = []
        self._ids: dict[GlobalState, int] = {}

    def intern(self, state: GlobalState) -> int:
        sid = self._ids.get(state)
        if sid is None:
            sid = len(self._states)
            self._ids[state] = sid
            self._states.append(state)
        return sid

    def state_of(self, sid: int) -> GlobalState:
        return self._states[sid]

    def snapshot(self) -> tuple[GlobalState, ...]:
        return tuple(self._states)

    def __len__(self) -> int:
        return len(self._states)


class ExploredGraph:
    """A frozen reachable snapshot graph in CSR form (picklable).

    ``states[i]`` is the snapshot with interned id ``i``; the successors
    of ``i`` are ``targets[offsets[i]:offsets[i+1]]``, in the exact
    order :func:`repro.runtime.step.successors` produced them.
    ``offsets``/``targets`` are ``array('q')`` buffers.
    """

    __slots__ = ("states", "initial_ids", "offsets", "targets")

    def __init__(self, states: tuple[GlobalState, ...],
                 initial_ids: tuple[int, ...],
                 offsets, targets) -> None:
        self.states = states
        self.initial_ids = initial_ids
        self.offsets = offsets
        self.targets = targets

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_edges(self) -> int:
        return len(self.targets)

    @property
    def csr_nbytes(self) -> int:
        """Bytes of the two CSR buffers."""
        itemsize = array("q").itemsize
        return (len(self.offsets) + len(self.targets)) * itemsize


class SharedExploration:
    """One interned exploration, reused by every valuation's search.

    Wraps a live :class:`TransitionCache` or
    :class:`~repro.verifier.product.PairTransitions`; the product search
    only ever sees integer state ids.
    """

    def __init__(self, cache: TransitionCache | PairTransitions) -> None:
        self.cache = cache
        self.composition = cache.composition
        self.budget = cache.budget
        self.interner = StateInterner()
        self._initial_ids: tuple[int, ...] | None = None
        self._succ: dict[int, tuple[int, ...]] = {}
        self._frozen: ExploredGraph | None = None
        self._reuse_hits = counter("graph.reuse_hits")
        self.shared = SharedSnapshotContext(self.composition, self.interner)

    @property
    def states_expanded(self) -> int:
        """Snapshots expanded so far."""
        return self.cache.states_expanded

    def initial_ids(self) -> tuple[int, ...]:
        if self._initial_ids is None:
            self._initial_ids = tuple(
                self.interner.intern(s) for s in self.cache.initial()
            )
        return self._initial_ids

    def successors_of(self, sid: int) -> tuple[int, ...]:
        succ = self._succ.get(sid)
        if succ is not None:
            self._reuse_hits.inc()
            return succ
        intern = self.interner.intern
        succ = tuple(
            intern(s) for s in
            self.cache.successors_of(self.interner.state_of(sid))
        )
        self._succ[sid] = succ
        return succ

    def complete(self, strict: bool = True) -> ExploredGraph | None:
        """Expand the full reachable graph and freeze it into CSR form.

        Valuation-independence (Theorem 3.4) makes this sound: the
        frozen graph serves every valuation of every property over the
        same composition/databases/semantics.  With ``strict=False`` a
        budget overrun returns None and leaves the exploration lazy --
        callers treat freezing as an optimization, not an obligation
        (the lazy product may stay within budget where the full graph
        does not).
        """
        if self._frozen is not None:
            return self._frozen
        try:
            frontier = deque(self.initial_ids())
            seen = set(frontier)
            while frontier:
                sid = frontier.popleft()
                for target in self.successors_of(sid):
                    if target not in seen:
                        seen.add(target)
                        frontier.append(target)
        except VerificationError:
            if strict:
                raise
            return None
        n = len(self.interner)
        offsets = array("q", [0])
        targets = array("q")
        for sid in range(n):
            targets.extend(self._succ[sid])
            offsets.append(len(targets))
        self._frozen = ExploredGraph(
            self.interner.snapshot(), self.initial_ids(), offsets,
            targets,
        )
        counter("graph.freezes").inc()
        gauge("graph.interned_states").set(n)
        gauge("graph.frozen_edges").set(len(targets))
        return self._frozen


class InternedProduct:
    """Drop-in for :class:`ProductSystem` over interned state ids.

    Nodes are ``(state_id, buchi_state)``; ``cache`` aliases the
    exploration so the search's ``product.cache.budget`` access works
    unchanged.  Successor enumeration mirrors ``ProductSystem`` exactly
    (letter of the *source* snapshot; same target and successor order).
    """

    def __init__(self, space: SharedExploration, nba,
                 evaluator) -> None:
        self.cache = space
        self.space = space
        self.nba = nba
        self.evaluator = evaluator

    def initial_nodes(self) -> list[ProductNode]:
        return [
            (sid, q)
            for sid in self.space.initial_ids()
            for q in self.nba.initial
        ]

    def successors(self, node: ProductNode) -> Iterator[ProductNode]:
        sid, q = node
        letter = self.evaluator.letter(sid)
        targets = [
            edge.dst for edge in self.nba.edges_from(q)
            if edge.guard.satisfied(letter)
        ]
        if not targets:
            return
        for nxt in self.space.successors_of(sid):
            for dst in targets:
                yield (nxt, dst)

    def is_accepting(self, node: ProductNode) -> bool:
        return node[1] in self.nba.accepting
