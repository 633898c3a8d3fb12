"""What a decision procedure refutes: one object per result group.

Theorems 3.4, 4.2, 4.5 and 5.4 share one decision procedure: for each
canonical valuation of some closure variables, search the product of
the composition's snapshot graph with a Büchi automaton for the
*violation* of what is checked.  A refutation object is everything
that differs between them:

* ``variables`` -- the closure variables whose valuations are swept;
* ``text`` -- the result's property text;
* ``automaton(valuation, domain)`` -- the violation automaton for one
  valuation; and
* ``pairs`` -- whether its atoms read the previous snapshot
  (``@prev.R``), so the product runs over
  :class:`~repro.verifier.atoms.PairState` snapshots.

:class:`PropertyRefutation` is the LTL-FO case (Theorems 3.4 and 5.4);
:class:`repro.protocols.verify.ProtocolRefutation` is the protocol case
(Theorems 4.2 and 4.5).  The valuation sweep
(:func:`~repro.verifier.parallel.run_sweep`) and the reference checker
(:func:`~repro.verifier.reference.verify_reference`) take either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..fo.formulas import Atom, relations
from ..fo.schema import move_name
from ..fo.terms import Value, Var, value_sort_key
from ..ltl.buchi import BuchiAutomaton
from ..ltl.formulas import (
    LTLFormula, atom_payloads, land, latom, lfinally, lglobally, lnot,
)
from ..ltl.translate import ltl_to_buchi
from ..ltlfo.formulas import LTLFOSentence
from ..spec.composition import Composition
from .atoms import PREV_MARK, OccursAtom
from .domain import VerificationDomain


def fairness_terms(composition: Composition) -> list:
    """``/\\ GF move_W`` conjuncts restricting to fair runs."""
    return [
        lglobally(lfinally(latom(Atom(move_name(p.name), ()))))
        for p in composition.peers
    ]


def occurs_terms(valuation: Mapping[Var, Value],
                 domain: VerificationDomain) -> list:
    """``F occurs(v)`` per fresh value of *valuation* (the ``Dom(rho)``
    restriction), sorted so the translation is the same in every
    process."""
    return [
        lfinally(latom(OccursAtom(v)))
        for v in sorted(set(valuation.values()), key=value_sort_key)
        if v not in domain.constants
    ]


@dataclass(frozen=True)
class PropertyRefutation:
    """Refute an LTL-FO sentence, optionally under an assumption.

    The violation automaton translates ``premise & ~phi(nu) &
    F occurs(v)... & fairness``: the negated instantiated body, its
    ``Dom(rho)`` terms and (if any) the fairness terms, conjoined with
    the ``premise`` -- the translated environment spec of modular
    verification, or ``true``.
    """

    sentence: LTLFOSentence
    text: str
    fairness: tuple[LTLFormula, ...] = ()
    premise: tuple[LTLFormula, ...] = ()

    @classmethod
    def of(cls, composition: Composition, sentence: LTLFOSentence,
           fair_scheduling: bool = False) -> "PropertyRefutation":
        return cls(sentence, str(sentence),
                   tuple(fairness_terms(composition))
                   if fair_scheduling else ())

    @property
    def variables(self) -> tuple[Var, ...]:
        return self.sentence.variables

    @property
    def pairs(self) -> bool:
        """Whether the premise reads the previous snapshot."""
        return any(
            rel.startswith(PREV_MARK)
            for term in self.premise for ap in atom_payloads(term)
            if not isinstance(ap, OccursAtom) for rel in relations(ap)
        )

    def automaton(self, valuation: Mapping[Var, Value],
                  domain: VerificationDomain) -> BuchiAutomaton:
        return ltl_to_buchi(land(
            *self.premise, lnot(self.sentence.instantiate(valuation)),
            *occurs_terms(valuation, domain), *self.fairness,
        ))
