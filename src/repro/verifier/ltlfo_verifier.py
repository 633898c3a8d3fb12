"""The LTL-FO verifier (the decision procedure behind Theorem 3.4).

``verify(composition, property, databases, ...)`` decides whether every
run of the composition over the given databases satisfies the LTL-FO
sentence, by exhaustive search over the bounded verification domain:

1. The property's universal closure is expanded into finitely many
   valuations over the verification domain (canonicalized up to
   fresh-value symmetry).
2. For each valuation, the negated instantiated body -- conjoined with
   ``F occurs(v)`` for each fresh value used, implementing the ``Dom(rho)``
   restriction of the closure semantics -- is translated to a Büchi
   automaton (GPVW).
3. The on-the-fly product with the composition's snapshot graph is
   searched for an accepting lasso (nested DFS).  A lasso is a genuine
   infinite counterexample run; none anywhere means the property holds
   over the explored domain.

Completeness beyond the fixed databases follows the bounded-domain
principle: callers either supply the databases of interest or enumerate
small databases via :func:`repro.verifier.domain.enumerate_databases`.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

from ..fo.instance import Instance
from ..fo.terms import Value
from ..ib.checker import check_composition, check_sentence
from ..errors import InputBoundednessError
from ..ltlfo.formulas import LTLFOSentence
from ..ltlfo.parser import parse_ltlfo
from ..spec.channels import ChannelSemantics, DECIDABLE_DEFAULT
from ..spec.composition import Composition
from .domain import (
    VerificationDomain, canonical_valuations, verification_domain,
)
from .parallel import (
    SweepContext, SweepPayload, grid_tasks, resolve_workers, run_sweep,
)
from .product import SearchBudget
from .refutation import PropertyRefutation
from .result import VerificationResult


def _as_sentence(prop: LTLFOSentence | str,
                 composition: Composition) -> LTLFOSentence:
    if isinstance(prop, str):
        return parse_ltlfo(prop, composition.schema)
    return prop


def _check_restrictions(composition: Composition,
                        sentence: LTLFOSentence,
                        enforce: bool) -> None:
    if not enforce:
        return
    violations = check_composition(composition)
    violations += check_sentence(sentence, composition.schema)
    if violations:
        lines = "\n".join(str(v) for v in violations)
        raise InputBoundednessError(
            "verification requires input-bounded specifications "
            f"(Theorem 3.4); violations:\n{lines}\n"
            "Pass check_input_bounded=False to search anyway "
            "(sound for bug finding over the bounded domain).",
            tuple(violations),
        )


def preflight(composition: Composition,
              props: Sequence[LTLFOSentence | str] = (),
              semantics: ChannelSemantics = DECIDABLE_DEFAULT):
    """Classify the configuration before searching (``repro lint`` pass 5).

    Returns a :class:`repro.analysis.decidability.Classification` naming
    the paper theorem that applies: decidable rows carry the complexity
    class, undecidable rows the violated restriction.  ``verify`` itself
    stays unchanged -- the search is sound for bug finding either way --
    but callers (the CLI does this) can warn or refuse up front.
    """
    from ..analysis.decidability import classify

    sentences = [_as_sentence(p, composition) for p in props]
    return classify(composition, sentences, semantics)


def _valuations(variables: Sequence, domain: VerificationDomain,
                candidates: Mapping[str, Sequence[Value]] | None
                ) -> list[dict]:
    """The canonical valuations of *variables*, restricted to
    *candidates*."""
    valuations = canonical_valuations(variables, domain)
    if not candidates:
        return valuations
    return [
        v for v in valuations
        if all(var.name not in candidates or v[var] in candidates[var.name]
               for var in variables)
    ]


def _context(databases: Mapping[str, Instance],
             domain: VerificationDomain) -> SweepContext:
    return SweepContext(tuple(sorted(databases.items())), domain)


def _sweep(composition: Composition, contexts: Sequence[SweepContext],
           groups: Sequence, cells, semantics: ChannelSemantics,
           workers: int, shard: tuple[int, int] | None = None,
           budget: SearchBudget | None = None,
           env_value_domain: Sequence[Value] | None = None,
           ) -> list[VerificationResult]:
    """Build the payload and the task grid of *cells*; run the sweep."""
    payload = SweepPayload(
        composition=composition,
        contexts=tuple(contexts),
        groups=tuple(groups),
        semantics=semantics,
        env_value_domain=(tuple(env_value_domain)
                          if env_value_domain is not None else None),
        budget=budget,
    )
    return run_sweep(payload, grid_tasks(cells, shard), workers)


def refute(composition: Composition, group,
           databases: Mapping[str, Instance],
           domain: VerificationDomain,
           semantics: ChannelSemantics = DECIDABLE_DEFAULT,
           valuation_candidates: Mapping[str, Sequence[Value]] | None = None,
           budget: SearchBudget | None = None,
           env_value_domain: Sequence[Value] | None = None,
           ) -> VerificationResult:
    """Sweep one refutation over one database context, in process.

    The shared back end of :func:`~repro.verifier.modular.verify_modular`
    and the protocol verifiers (:mod:`repro.protocols.verify`): a
    one-group, one-context grid over *group*'s candidate-filtered
    canonical valuations.
    """
    valuations = _valuations(group.variables, domain, valuation_candidates)
    return _sweep(composition, [_context(databases, domain)], [group],
                  [(0, 0, valuations)], semantics, workers=1,
                  budget=budget, env_value_domain=env_value_domain)[0]


def verify(composition: Composition, prop: LTLFOSentence | str,
           databases: Mapping[str, Instance],
           **options) -> VerificationResult:
    """Decide ``composition |= prop`` over the given databases.

    This is :func:`verify_all` of one property, with its keywords.

    Arguments
    ---------
    composition:
        A (normally closed) composition.  Open compositions are verified
        against an unconstrained environment: every environment move
        over the domain (``env_value_domain``, if given) is explored.
    prop:
        An :class:`LTLFOSentence` or its textual form.
    databases:
        Per-peer database instances (peer name -> :class:`Instance` over
        the peer's database schema).
    semantics:
        Channel semantics; must have bounded queues.
    domain:
        Verification domain override; defaults to the computed
        bounded-domain estimate.
    check_input_bounded:
        Enforce the Theorem 3.4 restrictions before searching.
    valuation_candidates:
        Optional per-closure-variable value restriction (variable name ->
        values).  Restricting a variable makes the check complete only
        for valuations within the candidates -- use it when a variable's
        role (e.g. "a customer id") makes other values irrelevant.
    fair_scheduling:
        Restrict counterexamples to *fair* runs, in which every peer
        moves infinitely often (``/\\ GF move_W``).  The paper's
        serialized-run semantics allows a peer to idle forever, which
        trivially defeats most liveness properties; fairness is the
        standard remedy (a library extension -- the paper does not
        discuss fairness).
    workers:
        Fan the valuation sweep out across this many worker processes
        (``None``: the ``REPRO_WORKERS`` environment default, normally
        1; ``0``: all cores).  Verdicts and counterexamples are
        identical to the in-process sweep (see
        :mod:`repro.verifier.parallel`).
    shard:
        ``(index, count)`` restricts the sweep to the valuations whose
        global order falls in this shard's residue class
        (``order % count == index``), for splitting one sweep across
        machines.  Each shard emits a fragment; ``repro merge-shards``
        reassembles the global verdict (see
        :mod:`repro.verifier.shards`).

    :mod:`repro.verifier.reference` is the plain per-valuation checker
    this sweep is tested against.
    """
    return verify_all(composition, [prop], databases, **options)[0]


def verify_all(composition: Composition,
               props: Sequence[LTLFOSentence | str],
               databases: Mapping[str, Instance],
               semantics: ChannelSemantics = DECIDABLE_DEFAULT,
               domain: VerificationDomain | None = None,
               check_input_bounded: bool = True,
               valuation_candidates: Mapping[
                   str, Sequence[Value]] | None = None,
               workers: int | None = None,
               shard: tuple[int, int] | None = None,
               fair_scheduling: bool = False,
               budget: SearchBudget | None = None,
               env_value_domain: Sequence[Value] | None = None,
               ) -> list[VerificationResult]:
    """Verify several properties sharing one transition-system exploration.

    The keywords mean what they mean for :func:`verify`.  Each
    property gets the domain it would get alone; properties with equal
    domains (the usual case) share one sweep, one task per (property,
    valuation) and one result group per property.  In-process, one
    exploration (interner, frozen graph, snapshot/letter caches) serves
    the whole batch; a pool gets the graph pre-expanded once by the
    driver.  Verdicts, counterexamples and search counters are identical
    to verifying each property alone.
    """
    sentences = [_as_sentence(p, composition) for p in props]
    for sentence in sentences:
        _check_restrictions(composition, sentence, check_input_bounded)
    groups = [PropertyRefutation.of(composition, s, fair_scheduling)
              for s in sentences]
    domains = [
        domain if domain is not None
        else verification_domain(composition, [sentence], databases)
        for sentence in sentences
    ]
    results: list[VerificationResult | None] = [None] * len(sentences)
    for dom in dict.fromkeys(domains):
        members = [i for i, d in enumerate(domains) if d == dom]
        cells = [(group, 0, _valuations(sentences[i].variables, dom,
                                        valuation_candidates))
                 for group, i in enumerate(members)]
        swept = _sweep(composition, [_context(databases, dom)],
                       [groups[i] for i in members], cells, semantics,
                       resolve_workers(workers), shard, budget,
                       env_value_domain)
        for i, result in zip(members, swept):
            results[i] = result
    return results


def verify_over_databases(composition: Composition,
                          prop: LTLFOSentence | str,
                          relation_arities_by_peer: Mapping[str, Mapping[str, int]],
                          domain_values: Sequence[Value],
                          max_rows: int = 1,
                          semantics: ChannelSemantics = DECIDABLE_DEFAULT,
                          workers: int | None = None,
                          domain: VerificationDomain | None = None,
                          check_input_bounded: bool = True,
                          valuation_candidates: Mapping[
                              str, Sequence[Value]] | None = None,
                          shard: tuple[int, int] | None = None,
                          fair_scheduling: bool = False,
                          budget: SearchBudget | None = None,
                          env_value_domain: Sequence[Value] | None = None,
                          ) -> VerificationResult:
    """Decide the property over *every* database within the given bounds.

    The completeness companion to :func:`verify`: enumerates all database
    combinations over ``domain_values`` with at most ``max_rows`` rows per
    relation (exponential -- tiny schemas only) and returns the first
    counterexample found, or SATISFIED if none exists anywhere.

    ``relation_arities_by_peer`` maps each peer name to the relation
    arities of the databases to enumerate, e.g.
    ``{"S": {"items": 1}}``.  The remaining keyword arguments mean what
    they mean for :func:`verify`.

    The full (database, valuation) grid is one sweep in combination-major
    order: the first violated cell decides, and the stats aggregate the
    whole grid, so verdict, counterexample and counters are the same at
    every worker count.
    """
    from .domain import enumerate_databases

    sentence = _as_sentence(prop, composition)
    _check_restrictions(composition, sentence, check_input_bounded)
    per_peer: list[list[tuple[str, Instance]]] = []
    for peer_name in sorted(relation_arities_by_peer):
        arities = relation_arities_by_peer[peer_name]
        instances = enumerate_databases(arities, domain_values,
                                        max_rows=max_rows)
        per_peer.append([(peer_name, inst) for inst in instances])
    combos = [dict(c) for c in itertools.product(*per_peer)]
    assert combos, "no database combination enumerated"

    contexts = [
        _context(dbs, domain or verification_domain(composition,
                                                     [sentence], dbs))
        for dbs in combos
    ]
    cells = [(0, ctx_idx, _valuations(sentence.variables, ctx.domain,
                                      valuation_candidates))
             for ctx_idx, ctx in enumerate(contexts)]
    group = PropertyRefutation.of(composition, sentence, fair_scheduling)
    return _sweep(composition, contexts, [group], cells, semantics,
                  resolve_workers(workers), shard, budget,
                  env_value_domain)[0]
