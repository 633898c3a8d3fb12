"""Atomic propositions evaluated on run snapshots.

During model checking, the Büchi automaton for (the negation of) what a
decision procedure refutes reads letters that are valuations of its
atomic propositions.  Three kinds of APs arise:

* closed FO sentences (instantiated maximal FO subformulas of an LTL-FO
  property, or instantiated data-aware protocol symbols), evaluated over
  the snapshot view per Section 3's semantics;
* :class:`OccursAtom` markers used to implement the ``Dom(rho)``
  restriction of the universal closure: the paper quantifies closure
  variables over the *active domain of the run*, so a counterexample
  valuation may only use values that actually occur in the run.  For each
  fresh value ``v`` in the valuation, the verifier conjoins
  ``F occurs(v)`` to the negated property; ``occurs(v)`` holds at a
  snapshot iff ``v`` appears in some relation or queued message; and
* :class:`EventAtom` channel events of data-agnostic protocols: a
  message was enqueued into (or sent on) the channel by the step that
  produced the snapshot.

Occurs and event atoms are *state-local*: they read the snapshot itself,
not its view.  Assumptions whose translation reads the previous step
(``@prev.R`` atoms, Section 5) run over :class:`PairState` snapshots;
:func:`state_view` builds the view both evaluators read for either kind
of state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

from ..fo.evaluator import evaluate
from ..fo.formulas import relations
from ..fo.instance import Instance
from ..obs import counter
from ..fo.terms import Value
from ..spec.composition import Composition
from ..runtime.state import GlobalState, snapshot_view

#: Relation-name prefix of atoms that read the previous snapshot.
PREV_MARK = "@prev."


@dataclass(frozen=True, slots=True)
class OccursAtom:
    """AP: the value occurs in the current snapshot (relations or queues)."""

    value: Value

    def __str__(self) -> str:
        return f"occurs({self.value!r})"


@dataclass(frozen=True, slots=True)
class EventAtom:
    """AP: the step producing the snapshot put a message into *channel*
    (observer at recipient) or sent one on it (observer at source)."""

    channel: str
    source: bool = False

    def holds(self, state) -> bool:
        return self.channel in (state.sent if self.source
                                else state.enqueued)

    def __str__(self) -> str:
        return f"{'sent' if self.source else 'enqueued'}({self.channel})"


@dataclass(frozen=True, slots=True)
class PairState:
    """A (previous, current) snapshot pair; ``previous`` is None at the
    start of a run.  Occurs atoms read the current snapshot."""

    previous: GlobalState | None
    current: GlobalState

    def active_domain(self) -> frozenset:
        return self.current.active_domain()


def snapshot_of(state) -> GlobalState:
    """The run snapshot a (possibly paired) state stands for."""
    return state.current if type(state) is PairState else state


def state_view(state, composition: Composition) -> Instance:
    """The view APs are evaluated over.

    A pair's view is the current snapshot's view plus the previous
    snapshot's relations under :data:`PREV_MARK` (empty relations
    before the first step).
    """
    if type(state) is not PairState:
        return snapshot_view(state, composition)
    view = snapshot_view(state.current, composition)
    if state.previous is None:
        return view
    previous = snapshot_view(state.previous, composition)
    return view.merged(Instance({
        PREV_MARK + name: previous[name] for name in previous.relations()
    }))


def _split_aps(aps) -> tuple[tuple, tuple, dict]:
    """(occurs atoms, event atoms, FO sentence -> relations it reads)."""
    occurs = tuple(ap for ap in aps if isinstance(ap, OccursAtom))
    events = tuple(ap for ap in aps if isinstance(ap, EventAtom))
    sentences = {
        ap: tuple(sorted(relations(ap))) for ap in aps
        if not isinstance(ap, (OccursAtom, EventAtom))
    }
    return occurs, events, sentences


class SnapshotEvaluator:
    """Evaluates AP valuations over snapshots, with caching.

    The snapshot *view* (queue readings, move flags, ...) is cached per
    state and shared across property valuations; the letter (the set of
    true APs) is cached per (state) for this evaluator's fixed AP set.
    """

    def __init__(self, composition: Composition, domain: Iterable[Value],
                 aps: frozenset) -> None:
        self.composition = composition
        self.domain = tuple(domain)
        self.aps = aps
        self._view_cache: dict = {}
        self._letter_cache: dict = {}
        # projection cache: the truth of an FO sentence depends only on
        # the extensions of the relations it mentions, which repeat
        # heavily across snapshots
        self._occurs, self._events, self._relevant = _split_aps(aps)
        self._truth_cache: dict = {}

    def view(self, state) -> Instance:
        cached = self._view_cache.get(state)
        if cached is None:
            cached = state_view(state, self.composition)
            self._view_cache[state] = cached
        return cached

    def letter(self, state) -> frozenset:
        cached = self._letter_cache.get(state)
        if cached is not None:
            return cached
        true_aps: list[Hashable] = [
            ap for ap in self._events if ap.holds(state)
        ]
        if self._occurs:
            snapshot_domain = state.active_domain()
            true_aps += [
                ap for ap in self._occurs if ap.value in snapshot_domain
            ]
        if self._relevant:
            view = self.view(state)
            for ap, rels in self._relevant.items():
                key = (ap, tuple(view[rel] for rel in rels))
                truth = self._truth_cache.get(key)
                if truth is None:
                    truth = evaluate(ap, view, self.domain)
                    self._truth_cache[key] = truth
                if truth:
                    true_aps.append(ap)
        letter = frozenset(true_aps)
        self._letter_cache[state] = letter
        return letter


class SharedSnapshotContext:
    """Per-exploration caches keyed on interned state ids.

    Owned by a :class:`~repro.verifier.graph.SharedExploration` and
    shared by every valuation's :class:`InternedSnapshotEvaluator`:
    snapshot views and active domains are computed once per state for
    the whole sweep (the reference checker recomputes them once per state
    *per valuation*), FO truths are shared across valuations whose APs
    coincide (occurs-atoms and closure-variable-free subformulas), and
    whole letters are memoized per (AP set, state).
    """

    def __init__(self, composition: Composition, interner) -> None:
        self.composition = composition
        self.interner = interner
        self._views: dict[int, Instance] = {}
        self._domains: dict[int, frozenset] = {}
        self._truths: dict = {}
        self._letters: dict = {}

    def view(self, sid: int) -> Instance:
        cached = self._views.get(sid)
        if cached is None:
            cached = state_view(self.interner.state_of(sid),
                                self.composition)
            self._views[sid] = cached
        return cached

    def active_domain(self, sid: int) -> frozenset:
        cached = self._domains.get(sid)
        if cached is None:
            cached = self.interner.state_of(sid).active_domain()
            self._domains[sid] = cached
        return cached


class InternedSnapshotEvaluator:
    """Letter evaluation over interned state ids, with shared caches.

    The interned twin of :class:`SnapshotEvaluator`: same AP semantics,
    but ``letter`` takes a dense state id and every cache outlives this
    evaluator (they belong to the exploration's
    :class:`SharedSnapshotContext`), so valuations 2..N of a sweep
    mostly re-read memoized truths instead of re-evaluating formulas.
    """

    def __init__(self, composition: Composition, domain: Iterable[Value],
                 aps: frozenset, shared: SharedSnapshotContext) -> None:
        self.composition = composition
        self.domain = tuple(domain)
        self.aps = aps
        self.shared = shared
        self._occurs, self._events, self._relevant = _split_aps(aps)
        self._memo_hits = counter("atoms.letters_memoized")

    def letter(self, sid: int) -> frozenset:
        shared = self.shared
        key = (self.aps, sid)
        cached = shared._letters.get(key)
        if cached is not None:
            self._memo_hits.inc()
            return cached
        true_aps: list[Hashable] = []
        if self._events:
            state = shared.interner.state_of(sid)
            true_aps += [ap for ap in self._events if ap.holds(state)]
        if self._occurs:
            snapshot_domain = shared.active_domain(sid)
            true_aps += [
                ap for ap in self._occurs if ap.value in snapshot_domain
            ]
        if self._relevant:
            view = shared.view(sid)
            truths = shared._truths
            for ap, rels in self._relevant.items():
                truth_key = (ap, tuple(view[rel] for rel in rels))
                truth = truths.get(truth_key)
                if truth is None:
                    truth = evaluate(ap, view, self.domain)
                    truths[truth_key] = truth
                if truth:
                    true_aps.append(ap)
        letter = frozenset(true_aps)
        shared._letters[key] = letter
        return letter
