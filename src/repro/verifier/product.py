"""On-the-fly product of the composition transition system with an NBA.

The composition's reachable snapshot graph is finite once the data domain
and the queue bound are fixed (the computational content of Theorem 3.4's
reduction).  :class:`TransitionCache` memoizes successor computation so
multiple property valuations share one exploration;
:class:`PairTransitions` lifts it to (previous, current) snapshot pairs;
:class:`ProductSystem` lazily pairs states with Büchi states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from ..errors import VerificationError
from ..fo.instance import Instance
from ..fo.terms import Value
from ..ltl.buchi import BuchiAutomaton
from ..obs import PHASE_EXPAND, counter, histogram, phase
from ..spec.channels import ChannelSemantics
from ..spec.composition import Composition
from ..runtime.state import GlobalState
from ..runtime.step import initial_states, successors
from .atoms import PairState, SnapshotEvaluator


@dataclass
class SearchBudget:
    """Caps on the explicit search, to fail fast instead of hanging."""

    max_system_states: int = 2_000_000
    max_product_nodes: int = 5_000_000


class TransitionCache:
    """Memoized transition relation of one composition + database + domain."""

    def __init__(self, composition: Composition,
                 databases: Mapping[str, Instance],
                 domain: Sequence[Value],
                 semantics: ChannelSemantics,
                 budget: SearchBudget | None = None,
                 env_value_domain: Sequence[Value] | None = None) -> None:
        if semantics.queue_bound is None:
            raise VerificationError(
                "verification requires bounded queues (Corollary 3.6: "
                "unbounded queues make verification undecidable); "
                "set ChannelSemantics.queue_bound"
            )
        self.composition = composition
        self.databases = dict(databases)
        self.domain = tuple(domain)
        self.semantics = semantics
        self.env_value_domain = env_value_domain
        self.budget = budget or SearchBudget()
        self._initial: tuple[GlobalState, ...] | None = None
        self._successors: dict[GlobalState, tuple[GlobalState, ...]] = {}

    def initial(self) -> tuple[GlobalState, ...]:
        if self._initial is None:
            self._initial = tuple(
                initial_states(self.composition, self.databases, self.domain)
            )
        return self._initial

    def successors_of(self, state: GlobalState) -> tuple[GlobalState, ...]:
        cached = self._successors.get(state)
        if cached is None:
            if len(self._successors) >= self.budget.max_system_states:
                raise VerificationError(
                    f"system-state budget "
                    f"({self.budget.max_system_states}) exceeded; "
                    "reduce the domain, queue bound, or composition size"
                )
            with phase(PHASE_EXPAND):
                cached = tuple(
                    successors(
                        self.composition, state, self.domain,
                        self.semantics,
                        env_one_action_per_move=True,
                        env_value_domain=self.env_value_domain,
                    )
                )
            self._successors[state] = cached
            counter("product.states_expanded").inc()
            histogram("product.branching_factor",
                      boundaries=(1, 2, 4, 8, 16, 32, 64, 128, 256)
                      ).observe(len(cached))
        return cached

    @property
    def states_expanded(self) -> int:
        return len(self._successors)


class PairTransitions:
    """The transition relation over (previous, current) snapshot pairs.

    Wraps a :class:`TransitionCache` for refutations whose atoms read
    the previous snapshot; initial and successor order follow the
    wrapped relation's.
    """

    def __init__(self, inner: TransitionCache) -> None:
        self.inner = inner
        self.composition = inner.composition
        self.budget = inner.budget

    def initial(self) -> tuple[PairState, ...]:
        return tuple(PairState(None, s) for s in self.inner.initial())

    def successors_of(self, pair: PairState) -> tuple[PairState, ...]:
        cur = pair.current
        return tuple(PairState(cur, nxt)
                     for nxt in self.inner.successors_of(cur))

    @property
    def states_expanded(self) -> int:
        return self.inner.states_expanded


def transitions(composition: Composition,
                databases: Mapping[str, Instance],
                domain: Sequence[Value],
                semantics: ChannelSemantics,
                pairs: bool = False,
                **options) -> TransitionCache | PairTransitions:
    """A fresh transition relation, over pairs when *pairs* is set."""
    cache = TransitionCache(composition, databases, domain, semantics,
                            **options)
    return PairTransitions(cache) if pairs else cache


#: A product node: (system snapshot, Büchi state).
ProductNode = tuple


class ProductSystem:
    """The synchronous product used by the emptiness search.

    The NBA reads, on each transition, the letter (AP valuation) of the
    *source* system snapshot; the automaton's distinguished pre-initial
    state (from the GPVW translation) therefore reads the initial
    snapshot's letter on its outgoing edges, matching the LTL convention
    that position 0 is the initial snapshot.
    """

    def __init__(self, cache: TransitionCache, nba: BuchiAutomaton,
                 evaluator: SnapshotEvaluator) -> None:
        self.cache = cache
        self.nba = nba
        self.evaluator = evaluator

    def initial_nodes(self) -> list[ProductNode]:
        return [
            (state, q)
            for state in self.cache.initial()
            for q in self.nba.initial
        ]

    def successors(self, node: ProductNode) -> Iterator[ProductNode]:
        state, q = node
        letter = self.evaluator.letter(state)
        targets = [
            edge.dst for edge in self.nba.edges_from(q)
            if edge.guard.satisfied(letter)
        ]
        if not targets:
            return
        for nxt in self.cache.successors_of(state):
            for dst in targets:
                yield (nxt, dst)

    def is_accepting(self, node: ProductNode) -> bool:
        return node[1] in self.nba.accepting
