"""Analyzer pass 1: input-boundedness (Section 3.1).

The actual checker lives in :mod:`repro.ib.checker`; this pass runs it
over every peer and every parsed property, lifts its
:class:`~repro.ib.report.Violation` records into the shared
:class:`~repro.analysis.diagnostics.Diagnostic` type, and -- since the
provenance analysis landed -- attaches to every violation an
*explanation*: where the values of each implicated relation come from
(the exact atom chain when they are invented) and, for unguarded
quantifiers, a minimal-repair suggestion naming the peer's available
guard relations.

The per-peer halves (:func:`peer_ib_diagnostics`) are exposed
separately so the lint cache can reuse one peer's findings while the
rest of the composition changes.
"""

from __future__ import annotations

import dataclasses

from ..ib.checker import check_peer, check_sentence
from ..ltlfo.formulas import LTLFOSentence
from ..spec.composition import Composition
from ..spec.peer import Peer
from .diagnostics import Diagnostic
from .passes import AnalysisContext
from .provenance import explain_relations, repair_suggestion


def _attach(diag: Diagnostic, lines: list[str]) -> Diagnostic:
    if not lines:
        lines = ["values originate in this rule alone"]
    return dataclasses.replace(diag, provenance=tuple(lines))


def attach_provenance(composition: Composition, facts,
                      violation) -> Diagnostic:
    """Lift one checker Violation into a provenance-carrying Diagnostic.

    This is the single rendering path shared by the lint ib pass and
    ``repro check``, so both commands explain a violation identically.
    """
    diag = violation.as_diagnostic()
    lines = explain_relations(
        composition, facts, diag.peer, violation.relations)
    if violation.code in ("DWV001", "DWV002") and diag.peer is not None:
        lines.append(repair_suggestion(composition.peer(diag.peer)))
    return _attach(diag, lines)


def peer_ib_diagnostics(composition: Composition, peer: Peer,
                        facts, strict: bool = False) -> list[Diagnostic]:
    """One peer's input-boundedness findings, provenance attached.

    *facts* is the :func:`~repro.analysis.provenance.compute_provenance`
    fixpoint of the whole composition (the explanations are the one
    interprocedural ingredient of this otherwise peer-local check).
    """
    return [attach_provenance(composition, facts, violation)
            for violation in check_peer(peer, strict)]


def sentence_ib_diagnostics(composition: Composition, name: str,
                            sentence: LTLFOSentence, facts,
                            strict: bool = False) -> list[Diagnostic]:
    """One property's findings (relations arrive ``Peer.rel``-qualified)."""
    return [attach_provenance(composition, facts, violation)
            for violation in check_sentence(
                sentence, composition.schema,
                where=f"property {name}", strict=strict)]


def ib_pass(ctx: AnalysisContext) -> list[Diagnostic]:
    facts = ctx.provenance
    out: list[Diagnostic] = []
    for peer in ctx.composition.peers:
        out.extend(peer_ib_diagnostics(
            ctx.composition, peer, facts, ctx.strict))
    for name, sentence in sorted(ctx.sentences.items()):
        out.extend(sentence_ib_diagnostics(
            ctx.composition, name, sentence, facts, ctx.strict))
    return out
