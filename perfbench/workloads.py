"""The three benchmark workloads: seeded inputs, operations, known answers.

A workload's ``setup`` builds everything an invocation needs before its
first operation: the inputs (from the seed), their ``.dws`` text, the
parsed documents and, for the library workloads, a lint-first pass and
the verification domains.  ``run`` performs one operation through the
verifier's public API.  ``check`` compares every outcome with the known
answers in :mod:`expected`; it runs only after every operation of the
invocation has been timed, so replaying a lasso never warms a cache that
a later operation would use.
"""

from __future__ import annotations

import random
import traceback
from dataclasses import dataclass, field

from repro.analysis.cache import LintCache, lint_cached
from repro.fuzz import THEOREM_ROWS, generate
from repro.library import dispatch, ecommerce, loan, payments
from repro.ltlfo.parser import parse_ltlfo
from repro.runtime.run import validate_lasso
from repro.spec.channels import DECIDABLE_DEFAULT
from repro.spec.dsl import compositions_equal, dump_document, load_document
from repro.verifier import (
    canonical_valuations, verification_domain, verify,
)

import corpus
import expected


@dataclass
class Query:
    """One ``verify()`` call of an operation and its known answer."""

    name: str
    prop: str
    satisfied: bool
    #: Expected decisive valuation of a violated property (variable name
    #: -> value); spec-corpus derives it in ``check`` from the inputs.
    decisive: dict | None = None
    candidates: dict | None = None


@dataclass
class Op:
    """One timed operation: a property verdict, a sweep, or a spec."""

    name: str
    graph: str                   # key of the reachable graph it explores
    queries: list[Query]
    composition: object = None   # library ops: parsed during set-up
    databases: dict | None = None
    domain: object = None
    text: str | None = None      # spec-corpus: parsed inside the op
    spec: object = None          # spec-corpus: the GeneratedSpec


@dataclass
class Outcome:
    """What one operation produced, and what ``check`` made of it."""

    op: Op
    seconds: float = 0.0
    results: list = field(default_factory=list)   # VerificationResult
    lint: list = field(default_factory=list)      # LintReport
    parsed: tuple | None = None                   # (composition, dbs)
    errors: list[str] = field(default_factory=list)
    known_defect: bool = False
    cells: int = 0
    failure: str | None = None


def lint_cold(text, semantics, cache):
    """First lint of a document in this invocation (cache writes)."""
    return lint_cached(text, semantics=semantics, cache=cache)


def lint_warm(text, semantics, cache):
    """Second lint of the same document (cache reads)."""
    return lint_cached(text, semantics=semantics, cache=cache)


def _is_cost_defect(exc: BaseException) -> bool:
    """The known ``analysis.cost`` crash on unbounded queues.

    ``cost_pass`` computes ``max(1, semantics.queue_bound)``, which raises
    ``TypeError`` when ``queue_bound`` is None (every row-3.6 spec).
    """
    frames = traceback.extract_tb(exc.__traceback__)
    return (isinstance(exc, TypeError) and bool(frames)
            and frames[-1].filename.replace("\\", "/").endswith(
                "repro/analysis/cost.py"))


def _valuations(composition, prop: str, domain,
                candidates: dict | None) -> list[dict]:
    """The sweep's valuations in the verifier's canonical order.

    Built from the inputs with the domain layer, filtered by the
    candidates exactly as ``verify`` documents it.
    """
    variables = parse_ltlfo(prop, composition.schema).variables
    out = [{var.name: v[var] for var in variables}
           for v in canonical_valuations(variables, domain)]
    if candidates:
        out = [v for v in out
               if all(k not in candidates or v[k] in candidates[k]
                      for k in v)]
    return out


def _cells(valuations: list[dict], query: Query,
           decisive: dict | None) -> tuple[int, str | None]:
    """(property, database, valuation) cells decided by one query."""
    if query.satisfied:
        return len(valuations), None
    if decisive not in valuations:
        return 0, f"{query.name}: expected decisive {decisive} not swept"
    return valuations.index(decisive) + 1, None


def _check_verdict(query: Query, result, decisive: dict | None,
                   replay) -> str | None:
    """Compare one verdict with its known answer; replay its lasso."""
    if result.satisfied != query.satisfied:
        return (f"{query.name}: got {result.verdict}, expected "
                f"{'SATISFIED' if query.satisfied else 'VIOLATED'}")
    if query.satisfied:
        return None
    got = result.counterexample.valuation
    if got != decisive:
        return f"{query.name}: decisive {got}, expected {decisive}"
    problems = replay(result.counterexample.lasso)
    if problems:
        return f"{query.name}: lasso rejected: {problems[0]}"
    return None


class Workload:
    """Shared set-up and checking; subclasses define the inputs."""

    name = ""

    def __init__(self, seed: int, lint_dir: str) -> None:
        self.seed = seed
        self.cache = LintCache(lint_dir)
        self.setup_problems: list[str] = []
        #: Work counted from the inputs (never from verifier stats).
        self.work = {"docs_parsed": 0, "lint_cold_docs": 0,
                     "lint_cold_peers": 0, "lint_warm_docs": 0,
                     "lint_failed": 0}
        self._library_docs: list[tuple] = []

    # -- set-up helpers ------------------------------------------------

    def _library_document(self, composition, databases, properties):
        """Dump, parse and lint-first one library document.

        Returns the parsed (composition, databases, properties), which
        the operations verify -- the verifier sees the ``.dws`` text.
        """
        text = dump_document(composition, databases, properties)
        parsed = load_document(text)
        self.work["docs_parsed"] += 1
        reports = self._lint(text, parsed[0], DECIDABLE_DEFAULT)
        self._library_docs.append((composition, databases, parsed, reports))
        return parsed

    def _lint(self, text: str, composition, semantics) -> list:
        """Cold then warm lint; returns [(report | exception), ...]."""
        reports: list = []
        self.work["lint_cold_docs"] += 1
        self.work["lint_cold_peers"] += len(composition.peers)
        self.work["lint_warm_docs"] += 1
        for lint in (lint_cold, lint_warm):
            try:
                reports.append(lint(text, semantics, self.cache))
            except Exception as exc:  # counted, never hidden
                reports.append(exc)
        if any(isinstance(r, BaseException) for r in reports):
            self.work["lint_failed"] += 1
        return reports

    def setup(self) -> list[Op]:
        raise NotImplementedError

    # -- operations ----------------------------------------------------

    def run(self, op: Op, workers: int) -> Outcome:
        out = Outcome(op)
        try:
            for query in op.queries:
                kwargs = {"domain": op.domain, "workers": workers}
                if query.candidates:
                    kwargs["valuation_candidates"] = query.candidates
                out.results.append(verify(op.composition, query.prop,
                                          op.databases, **kwargs))
        except Exception:  # counted as a failed operation
            out.errors.append(traceback.format_exc(limit=3))
        return out

    # -- checking ------------------------------------------------------

    def check(self, outcomes: list[Outcome]) -> None:
        """Set ``failure`` and ``cells`` on every outcome."""
        for original, databases, parsed, reports in self._library_docs:
            if not compositions_equal(original, parsed[0]):
                self.setup_problems.append("dump/load changed a library "
                                           "composition")
            if parsed[1] != databases:
                self.setup_problems.append("dump/load changed a library "
                                           "database")
            if any(isinstance(r, BaseException) for r in reports):
                self.setup_problems.append("library lint crashed")
            elif reports[0].codes() != reports[1].codes():
                self.setup_problems.append("warm lint report differs "
                                           "from cold")
        for out in outcomes:
            if out.errors:
                out.failure = out.errors[0].strip().splitlines()[-1]
                continue
            op = out.op
            replay = (lambda lasso, op=op: validate_lasso(
                op.composition, op.databases, op.domain.values, lasso))
            for query, result in zip(op.queries, out.results):
                vals = _valuations(op.composition, query.prop, op.domain,
                                   query.candidates)
                cells, problem = _cells(vals, query, query.decisive)
                out.cells += cells
                problem = problem or _check_verdict(
                    query, result, query.decisive, replay)
                if problem:
                    out.failure = problem
                    break

    def graph_sizes(self, outcomes: list[Outcome]) -> dict[str, int]:
        """Largest number of states any op expanded, per reachable graph."""
        sizes: dict[str, int] = {}
        for out in outcomes:
            for result in out.results:
                key = out.op.graph
                sizes[key] = max(sizes.get(key, 0),
                                 result.stats.system_states)
        return sizes


class ExpandBatch(Workload):
    """The ecommerce domain: one ``verify()`` per property, as profile does."""

    name = "expand-batch"

    def setup(self) -> list[Op]:
        props = {
            "ship_requires_auth": ecommerce.PROPERTY_SHIP_REQUIRES_AUTH,
            "no_ship_on_decline": ecommerce.PROPERTY_NO_SHIP_ON_DECLINE,
            "auth_honest": ecommerce.PROPERTY_AUTH_HONEST,
            "order_resolved": ecommerce.PROPERTY_ORDER_RESOLVED,
        }
        composition, databases, props = self._library_document(
            ecommerce.ecommerce_composition(),
            ecommerce.standard_database("good"), props)
        domain = verification_domain(composition, [], databases,
                                     fresh_count=1)
        names = sorted(props)
        random.Random(self.seed).shuffle(names)
        ops = []
        for name in names:
            satisfied, decisive = expected.EXPAND_BATCH[name]
            query = Query(name, props[name], satisfied, decisive,
                          expected.EXPAND_BATCH_CANDIDATES)
            ops.append(Op(name, "ecommerce", [query], composition,
                          databases, domain))
        return ops


class ValuationSweep(Workload):
    """The E14 loan letter sweep per credit category, plus two violated
    sweeps whose decisive valuation is not the first."""

    name = "valuation-sweep"

    def setup(self) -> list[Op]:
        ops = []
        for category in loan.CREDIT_CATEGORIES:
            ops.append(self._sweep(
                f"loan-{category}", loan.loan_composition(),
                loan.standard_database(category), "letter_needs_application",
                loan.PROPERTY_LETTER_NEEDS_APPLICATION, expected.LOAN_LETTER,
                expected.LOAN_WIDE_CANDIDATES))
        ops.append(self._sweep(
            "dispatch", dispatch.dispatch_composition(),
            dispatch.standard_database(), "request_served",
            dispatch.PROPERTY_REQUEST_SERVED,
            expected.DISPATCH_REQUEST_SERVED, dispatch.STANDARD_CANDIDATES))
        ops.append(self._sweep(
            "payments", payments.payments_composition(),
            payments.standard_database(), "refund_after_capture",
            payments.PROPERTY_REFUND_AFTER_CAPTURE,
            expected.PAYMENTS_REFUND_AFTER_CAPTURE,
            payments.STANDARD_CANDIDATES))
        random.Random(self.seed).shuffle(ops)
        return ops

    def _sweep(self, name, composition, databases, prop_name, prop,
               answer, candidates) -> Op:
        composition, databases, props = self._library_document(
            composition, databases, {prop_name: prop})
        domain = verification_domain(composition, [], databases,
                                     fresh_count=1)
        satisfied, decisive = answer
        query = Query(prop_name, props[prop_name], satisfied, decisive,
                      candidates)
        return Op(name, name, [query], composition, databases, domain)


class SpecCorpus(Workload):
    """Generated specs cycling through all six theorem rows.

    Each operation parses the spec's text, lints it cold then warm and,
    when the queues are bounded, verifies every property.
    """

    name = "spec-corpus"

    def setup(self) -> list[Op]:
        ops = []
        specs = corpus.corpus(self.seed, generate, sorted(THEOREM_ROWS))
        for i, spec in enumerate(specs):
            queries = [Query(name, spec.properties[name],
                             expected.SPEC_CORPUS[name])
                       for name in sorted(spec.properties)]
            for query in queries:
                known = spec.expected_verdicts.get(query.name)
                if known is not None and known != query.satisfied:
                    raise ValueError(f"expected data disagrees with the "
                                     f"generator on {spec.name}")
            ops.append(Op(f"spec{i}-row{spec.row}", f"spec{i}", queries,
                          text=spec.to_dws(), spec=spec))
        return ops

    def run(self, op: Op, workers: int) -> Outcome:
        out = Outcome(op)
        spec = op.spec
        try:
            composition, databases, props = load_document(op.text)
            self.work["docs_parsed"] += 1
            out.parsed = (composition, databases)
            reports = self._lint(op.text, composition, spec.semantics)
            crashes = [r for r in reports if isinstance(r, BaseException)]
            out.lint = [r for r in reports
                        if not isinstance(r, BaseException)]
            out.errors = [f"lint: {type(e).__name__}: {e}" for e in crashes]
            out.known_defect = bool(crashes) and all(
                _is_cost_defect(e) for e in crashes)
            if spec.verifiable:
                for query in op.queries:
                    out.results.append(verify(
                        composition, props[query.name], databases,
                        semantics=spec.semantics,
                        check_input_bounded=spec.check_input_bounded,
                        workers=workers))
        except Exception:  # counted as a failed operation
            out.known_defect = False
            out.errors.append(traceback.format_exc(limit=3))
        return out

    def check(self, outcomes: list[Outcome]) -> None:
        for out in outcomes:
            if out.errors:
                out.failure = out.errors[0].strip().splitlines()[-1]
                continue
            spec = out.op.spec
            composition, databases = out.parsed
            codes = [report.codes() for report in out.lint]
            if codes[0] != codes[1]:
                out.failure = "warm lint report differs from cold"
                continue
            if not all(spec.matches_classification(
                    report.classifications["composition"])
                    for report in out.lint):
                out.failure = f"lint misclassified row {spec.row}"
                continue
            items = {row[0] for row in databases["S"]["items"]}
            for query, result in zip(out.op.queries, out.results):
                domain = verification_domain(
                    composition,
                    [parse_ltlfo(query.prop, composition.schema)],
                    databases)
                vals = _valuations(composition, query.prop, domain, None)
                decisive = None
                if not query.satisfied:
                    decisive = next((v for v in vals if v["x"] in items),
                                    None)
                cells, problem = _cells(vals, query, decisive)
                out.cells += cells
                replay = (lambda lasso, d=domain: validate_lasso(
                    composition, databases, d.values, lasso,
                    semantics=spec.semantics))
                problem = problem or _check_verdict(query, result,
                                                    decisive, replay)
                if problem:
                    out.failure = problem
                    break


def make(name: str, seed: int, lint_dir: str) -> Workload:
    classes = {cls.name: cls for cls in (ExpandBatch, ValuationSweep,
                                         SpecCorpus)}
    return classes[name](seed, lint_dir)
