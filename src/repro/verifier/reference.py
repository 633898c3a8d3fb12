"""The reference checker: the plain valuation loop the sweep is tested on.

:func:`verify_reference` decides what :func:`repro.verifier.verify`
decides, without interning, frozen graphs, shared letter caches, a task
grid or a pool: canonical valuations in order over one lazy
:class:`~repro.verifier.product.TransitionCache`, one on-the-fly
:class:`~repro.verifier.product.ProductSystem` + nested DFS each,
stopping at the first violation.  Since the sweep preserves initial,
successor and Büchi-target order, both agree on verdict, decisive
valuation and order, lasso, ``valuations_checked`` and
``product_nodes_visited`` (``system_states`` may differ: this loop
expands only what its searches touch).  Shared with the sweep is only
spec-level code: parsing, the input-boundedness gate, the domain and
its valuations, and :func:`~repro.verifier.atoms.negated_instance`.
"""

from __future__ import annotations

import time
from typing import Mapping, Sequence

from ..fo.instance import Instance
from ..fo.terms import Value
from ..ltl.translate import ltl_to_buchi
from ..ltlfo.formulas import LTLFOSentence
from ..runtime.run import Lasso
from ..spec.channels import ChannelSemantics, DECIDABLE_DEFAULT
from ..spec.composition import Composition
from .atoms import SnapshotEvaluator, negated_instance
from .domain import VerificationDomain, verification_domain
from .ltlfo_verifier import _as_sentence, _check_restrictions, _valuations
from .product import ProductSystem, TransitionCache
from .result import Counterexample, VerificationResult, VerifierStats
from .search import find_accepting_lasso


def verify_reference(composition: Composition,
                     prop: LTLFOSentence | str,
                     databases: Mapping[str, Instance],
                     semantics: ChannelSemantics = DECIDABLE_DEFAULT,
                     domain: VerificationDomain | None = None,
                     check_input_bounded: bool = True,
                     valuation_candidates: Mapping[
                         str, Sequence[Value]] | None = None,
                     fair_scheduling: bool = False,
                     **options) -> VerificationResult:
    """Decide ``composition |= prop`` one valuation at a time.

    The arguments mean what they mean for :func:`repro.verifier.verify`;
    the *options* (``budget``, ``include_environment``,
    ``env_value_domain``, ``env_one_action_per_move``) configure the
    :class:`TransitionCache`.
    """
    t0 = time.perf_counter()
    sentence = _as_sentence(prop, composition)
    _check_restrictions(composition, sentence, check_input_bounded)
    if domain is None:
        domain = verification_domain(composition, [sentence], databases)
    cache = TransitionCache(composition, databases, domain.values,
                            semantics, **options)
    stats = VerifierStats()
    counterexample = None
    for order, valuation in enumerate(
            _valuations(sentence, domain, valuation_candidates)):
        nba = ltl_to_buchi(negated_instance(
            composition, sentence, valuation, domain, fair_scheduling))
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
                lasso=Lasso(tuple(n[0] for n in lasso.prefix),
                            tuple(n[0] for n in lasso.cycle)),
                property_text=str(sentence),
            )
            break
    stats.system_states = cache.states_expanded
    stats.wall_seconds = time.perf_counter() - t0
    return VerificationResult(
        satisfied=counterexample is None,
        property_text=str(sentence),
        counterexample=counterexample,
        stats=stats,
        domain_description=domain.describe(),
        semantics_description=semantics.describe(),
    )
