"""Atomic propositions evaluated on run snapshots.

During model checking, the Büchi automaton for (the negation of) an
instantiated LTL-FO property reads letters that are valuations of its
atomic propositions.  Two kinds of APs arise:

* closed FO sentences (the instantiated maximal FO subformulas), evaluated
  over the snapshot view per Section 3's semantics; and
* :class:`OccursAtom` markers used to implement the ``Dom(rho)``
  restriction of the universal closure: the paper quantifies closure
  variables over the *active domain of the run*, so a counterexample
  valuation may only use values that actually occur in the run.  For each
  fresh value ``v`` in the valuation, the verifier conjoins
  ``F occurs(v)`` to the negated property; ``occurs(v)`` holds at a
  snapshot iff ``v`` appears in some relation or queued message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

from ..fo.evaluator import evaluate
from ..fo.formulas import Atom, relations
from ..fo.instance import Instance
from ..fo.schema import move_name
from ..ltl.formulas import land, latom, lfinally, lglobally, lnot
from ..ltlfo.formulas import LTLFOSentence
from ..obs import counter
from ..fo.terms import Value, Var, value_sort_key
from ..spec.composition import Composition
from ..runtime.state import GlobalState, snapshot_view
from .domain import VerificationDomain


@dataclass(frozen=True, slots=True)
class OccursAtom:
    """AP: the value occurs in the current snapshot (relations or queues)."""

    value: Value

    def __str__(self) -> str:
        return f"occurs({self.value!r})"


def fairness_terms(composition: Composition) -> list:
    """``/\\ GF move_W`` conjuncts restricting to fair runs."""
    return [
        lglobally(lfinally(latom(Atom(move_name(p.name), ()))))
        for p in composition.peers
    ]


def negated_instance(composition: Composition, sentence: LTLFOSentence,
                     valuation: Mapping[Var, Value],
                     domain: VerificationDomain,
                     fair_scheduling: bool = False):
    """The negated instantiated body, conjoined with ``F occurs(v)`` per
    fresh value of *valuation* (the ``Dom(rho)`` restriction) and, if
    requested, the fairness terms.  The occurs terms are sorted so the
    GPVW translation is identical in every process.
    """
    occurs_terms = [
        lfinally(latom(OccursAtom(v)))
        for v in sorted(set(valuation.values()), key=value_sort_key)
        if v not in domain.constants
    ]
    extra = fairness_terms(composition) if fair_scheduling else []
    return land(lnot(sentence.instantiate(valuation)), *occurs_terms,
                *extra)


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
        self._view_cache: dict[GlobalState, Instance] = {}
        self._letter_cache: dict[GlobalState, frozenset] = {}
        # projection cache: the truth of an FO sentence depends only on
        # the extensions of the relations it mentions, which repeat
        # heavily across snapshots
        self._relevant: dict = {
            ap: tuple(sorted(relations(ap)))
            for ap in aps if not isinstance(ap, OccursAtom)
        }
        self._truth_cache: dict = {}

    def view(self, state: GlobalState) -> Instance:
        cached = self._view_cache.get(state)
        if cached is None:
            cached = snapshot_view(state, self.composition)
            self._view_cache[state] = cached
        return cached

    def letter(self, state: GlobalState) -> frozenset:
        cached = self._letter_cache.get(state)
        if cached is not None:
            return cached
        true_aps: set[Hashable] = set()
        occurs_needed = [
            ap for ap in self.aps if isinstance(ap, OccursAtom)
        ]
        snapshot_domain: frozenset[Value] | None = None
        if occurs_needed:
            snapshot_domain = state.active_domain()
        view = None
        for ap in self.aps:
            if isinstance(ap, OccursAtom):
                assert snapshot_domain is not None
                if ap.value in snapshot_domain:
                    true_aps.add(ap)
            else:
                if view is None:
                    view = self.view(state)
                key = (ap, tuple(
                    view[rel] for rel in self._relevant[ap]
                ))
                truth = self._truth_cache.get(key)
                if truth is None:
                    truth = evaluate(ap, view, self.domain)
                    self._truth_cache[key] = truth
                if truth:
                    true_aps.add(ap)
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
            cached = snapshot_view(self.interner.state_of(sid),
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
        self._relevant: dict = {
            ap: tuple(sorted(relations(ap)))
            for ap in aps if not isinstance(ap, OccursAtom)
        }
        self._memo_hits = counter("atoms.letters_memoized")

    def letter(self, sid: int) -> frozenset:
        shared = self.shared
        key = (self.aps, sid)
        cached = shared._letters.get(key)
        if cached is not None:
            self._memo_hits.inc()
            return cached
        true_aps: set[Hashable] = set()
        view = None
        for ap in self.aps:
            if isinstance(ap, OccursAtom):
                if ap.value in shared.active_domain(sid):
                    true_aps.add(ap)
            else:
                if view is None:
                    view = shared.view(sid)
                truth_key = (ap, tuple(
                    view[rel] for rel in self._relevant[ap]
                ))
                truth = shared._truths.get(truth_key)
                if truth is None:
                    truth = evaluate(ap, view, self.domain)
                    shared._truths[truth_key] = truth
                if truth:
                    true_aps.add(ap)
        letter = frozenset(true_aps)
        shared._letters[key] = letter
        return letter

