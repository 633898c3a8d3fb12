"""The reference checker: the plain valuation loop the sweep is tested on.

:func:`verify_reference` decides what :func:`repro.verifier.verify`
decides -- and what :func:`~repro.verifier.modular.verify_modular` and
the protocol verifiers decide, given their refutation object -- without
interning, frozen graphs, shared letter caches or a task grid:
canonical valuations in order over one lazy
:class:`~repro.verifier.product.TransitionCache` (over snapshot pairs
when the refutation reads the previous step), one on-the-fly
:class:`~repro.verifier.product.ProductSystem` + nested DFS each,
stopping at the first violation.  Since the sweep preserves initial,
successor and Büchi-target order, both agree on verdict, decisive
valuation and order, lasso, ``valuations_checked`` and
``product_nodes_visited`` (``system_states`` may differ: this loop
expands only what its searches touch).  Shared with the sweep is only
spec-level code: parsing, the input-boundedness gate, the domain and
its valuations, and the refutation object that builds each valuation's
violation automaton.  Its transition relation is
:mod:`repro.runtime.reference_step`, not the memoised production step
path, so the differential checks state expansion too.
"""

from __future__ import annotations

import time
from typing import Mapping, Sequence

from ..errors import VerificationError
from ..fo.instance import Instance
from ..fo.terms import Value
from ..ltlfo.formulas import LTLFOSentence
from ..runtime import reference_step
from ..runtime.run import Lasso
from ..runtime.state import GlobalState
from ..spec.channels import ChannelSemantics, DECIDABLE_DEFAULT
from ..spec.composition import Composition
from .atoms import SnapshotEvaluator, snapshot_of
from .domain import (
    VerificationDomain, canonical_valuations, verification_domain,
)
from .ltlfo_verifier import _as_sentence, _check_restrictions
from .product import (
    PairTransitions, ProductSystem, SearchBudget, TransitionCache,
)
from .refutation import PropertyRefutation
from .result import Counterexample, VerificationResult, VerifierStats
from .search import find_accepting_lasso


class ReferenceTransitions(TransitionCache):
    """A :class:`TransitionCache` over the reference step relation."""

    def _initial_states(self) -> list[GlobalState]:
        return reference_step.initial_states(
            self.composition, self.databases, self.domain)

    def _expand(self, state: GlobalState) -> list[GlobalState]:
        return reference_step.successors(
            self.composition, state, self.domain, self.semantics,
            env_one_action_per_move=True,
            env_value_domain=self.env_value_domain,
        )


def _valuations(variables: Sequence, domain: VerificationDomain,
                candidates: Mapping[str, Sequence[Value]] | None
                ) -> list[dict]:
    """Every canonical valuation, then those within *candidates* (the
    production sweep prunes while enumerating instead)."""
    candidates = candidates or {}
    return [
        v for v in canonical_valuations(variables, domain)
        if all(var.name not in candidates or v[var] in candidates[var.name]
               for var in variables)
    ]


def verify_reference(composition: Composition,
                     prop,
                     databases: Mapping[str, Instance],
                     semantics: ChannelSemantics = DECIDABLE_DEFAULT,
                     domain: VerificationDomain | None = None,
                     check_input_bounded: bool = True,
                     valuation_candidates: Mapping[
                         str, Sequence[Value]] | None = None,
                     fair_scheduling: bool = False,
                     budget: SearchBudget | None = None,
                     env_value_domain: Sequence[Value] | None = None,
                     ) -> VerificationResult:
    """Decide what *prop* states one valuation at a time.

    *prop* is an LTL-FO sentence (or its text), and then the arguments
    mean what they mean for :func:`repro.verifier.verify`; or it is a
    refutation object (:mod:`repro.verifier.refutation`), as
    :func:`~repro.verifier.modular.modular_refutation` and
    :mod:`repro.protocols.verify` build them, and then *domain* is
    required and *check_input_bounded*/*fair_scheduling* are ignored.
    """
    t0 = time.perf_counter()
    if isinstance(prop, (LTLFOSentence, str)):
        sentence = _as_sentence(prop, composition)
        _check_restrictions(composition, sentence, check_input_bounded)
        group = PropertyRefutation.of(composition, sentence,
                                      fair_scheduling)
        if domain is None:
            domain = verification_domain(composition, [sentence],
                                         databases)
    else:
        group = prop
        if domain is None:
            raise VerificationError("a refutation needs its domain")
    cache = ReferenceTransitions(composition, databases, domain.values,
                                 semantics, budget=budget,
                                 env_value_domain=env_value_domain)
    if group.pairs:
        cache = PairTransitions(cache)
    stats = VerifierStats()
    counterexample = None
    for order, valuation in enumerate(
            _valuations(group.variables, domain, valuation_candidates)):
        nba = group.automaton(valuation, domain)
        evaluator = SnapshotEvaluator(composition, domain.values, nba.aps)
        lasso, search = find_accepting_lasso(
            ProductSystem(cache, nba, evaluator))
        stats.valuations_checked += 1
        stats.nba_states_total += nba.num_states()
        stats.merge_search(search.blue_visited, search.red_visited)
        if lasso is not None:
            stats.decisive_order = order
            counterexample = Counterexample(
                valuation={var.name: value
                           for var, value in valuation.items()},
                lasso=Lasso(tuple(snapshot_of(n[0]) for n in lasso.prefix),
                            tuple(snapshot_of(n[0]) for n in lasso.cycle)),
                property_text=group.text,
            )
            break
    stats.system_states = cache.states_expanded
    stats.wall_seconds = time.perf_counter() - t0
    return VerificationResult(
        satisfied=counterexample is None,
        property_text=group.text,
        counterexample=counterexample,
        stats=stats,
        domain_description=domain.describe(),
        semantics_description=semantics.describe(),
    )
