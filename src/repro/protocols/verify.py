"""Protocol-compliance checking (Theorems 4.2 and 4.5).

A composition satisfies a conversation protocol iff every run's trace is
accepted by the protocol automaton.  Verification searches the product of
the composition's snapshot graph with an automaton for the *complement*
of the protocol language (negated LTL, or rank/DBA complementation for
automaton-given protocols) for an accepting lasso.  That search is the
LTL-FO verifier's valuation sweep
(:func:`~repro.verifier.ltlfo_verifier.refute`) over a
:class:`ProtocolRefutation`: the violation automaton with its symbols
relabelled to what the evaluators read -- channel events
(:class:`~repro.verifier.atoms.EventAtom`) for data-agnostic protocols,
the instantiated closed FO sentences for data-aware ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..errors import VerificationError
from ..fo import formulas as fo
from ..fo.instance import Instance
from ..fo.terms import Var
from ..ltl.buchi import BuchiAutomaton
from ..ltl.formulas import land
from ..ltl.translate import ltl_to_buchi
from ..runtime.run import Lasso
from ..spec.channels import ChannelSemantics, DECIDABLE_DEFAULT
from ..spec.composition import Composition
from ..verifier.atoms import EventAtom
from ..verifier.domain import (
    VerificationDomain, verification_domain, with_constants,
)
from ..verifier.ltlfo_verifier import refute
from ..verifier.product import SearchBudget
from ..verifier.refutation import occurs_terms
from ..verifier.result import VerificationResult
from .base import AgnosticProtocol, DataAwareProtocol, Observer


@dataclass(frozen=True)
class ProtocolRefutation:
    """Refute a conversation protocol (see :mod:`repro.verifier.refutation`).

    ``violation`` accepts the symbol traces violating the protocol.  Per
    valuation its symbols become the data-aware ``symbols`` instantiated
    by the valuation, or -- without symbols -- channel events seen by
    the observer; a valuation's fresh values add ``F occurs(v)`` by
    intersection.
    """

    violation: BuchiAutomaton
    text: str
    variables: tuple[Var, ...] = ()
    symbols: Mapping[str, fo.Formula] | None = None
    source: bool = False
    #: Protocol atoms read only the current snapshot.
    pairs = False

    @classmethod
    def agnostic(cls, protocol: AgnosticProtocol) -> "ProtocolRefutation":
        return cls(
            protocol.violation_automaton(),
            f"agnostic protocol over {sorted(protocol.alphabet)} "
            f"({protocol.observer.value})",
            source=protocol.observer is Observer.SOURCE,
        )

    @classmethod
    def aware(cls, protocol: DataAwareProtocol) -> "ProtocolRefutation":
        return cls(
            protocol.violation_automaton(),
            f"data-aware protocol over {sorted(protocol.symbols)}",
            variables=protocol.free_variables(),
            symbols=protocol.symbols,
        )

    def automaton(self, valuation, domain) -> BuchiAutomaton:
        if self.symbols is None:
            labels = {name: EventAtom(name, self.source)
                      for name in self.violation.aps}
        else:
            labels = {name: fo.instantiate(formula, valuation)
                      for name, formula in self.symbols.items()}
        nba = self.violation.relabel(labels)
        occurs = occurs_terms(valuation, domain)
        if occurs:
            nba = nba.intersection(ltl_to_buchi(land(*occurs)))
        return nba


def verify_agnostic(composition: Composition,
                    protocol: AgnosticProtocol,
                    databases: Mapping[str, Instance],
                    semantics: ChannelSemantics = DECIDABLE_DEFAULT,
                    domain: VerificationDomain | None = None,
                    budget: SearchBudget | None = None,
                    ) -> VerificationResult:
    """Check compliance with a data-agnostic protocol (Theorem 4.2).

    Observer-at-source protocols are checked with the same product
    machinery (letters become send events).  For a fixed database and
    domain the check is exact; Theorem 4.3's undecidability concerns the
    unrestricted problem.
    """
    unknown = set(protocol.alphabet) - {
        c.name for c in composition.channels
    }
    if unknown:
        raise VerificationError(
            f"protocol alphabet mentions unknown channels {sorted(unknown)}"
        )
    if domain is None:
        domain = verification_domain(composition, [], databases)
    return refute(composition, ProtocolRefutation.agnostic(protocol),
                  databases, domain, semantics, budget=budget)


def verify_aware(composition: Composition,
                 protocol: DataAwareProtocol,
                 databases: Mapping[str, Instance],
                 semantics: ChannelSemantics = DECIDABLE_DEFAULT,
                 domain: VerificationDomain | None = None,
                 budget: SearchBudget | None = None,
                 ) -> VerificationResult:
    """Check compliance with a data-aware protocol (Theorem 4.5).

    The protocol's free variables are universally quantified over the
    run's active domain: each canonical valuation is checked separately,
    with ``F occurs(v)`` constraints forcing fresh valuation values to
    appear in the counterexample run (mirroring the LTL-FO verifier).
    """
    if domain is None:
        domain = with_constants(
            verification_domain(composition, [], databases),
            protocol.constants(),
        )
    return refute(composition, ProtocolRefutation.aware(protocol),
                  databases, domain, semantics, budget=budget)


def trace_of(lasso: Lasso, protocol: AgnosticProtocol
             ) -> tuple[list[frozenset], list[frozenset]]:
    """The protocol-alphabet trace (prefix, cycle) of a lasso run."""
    prefix = [protocol.letter_of(s) for s in lasso.prefix]
    cycle = [protocol.letter_of(s) for s in lasso.cycle]
    return prefix, cycle
