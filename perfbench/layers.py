"""Per-layer spans for the traced run, recorded from outside ``src/``.

:meth:`Tracer.install` replaces each layer's public entry point with a
timing wrapper *where it is looked up*: in every loaded ``repro`` module
(and the benchmark's own ``workloads`` module) that holds the function,
and on the class for methods.  So ``find_accepting_lasso`` as imported
by ``repro.verifier.parallel`` is the wrapper that actually runs.

A span's self time is its duration minus the time its child spans
cover; the per-layer totals therefore add up, with the operation's root
span keeping whatever no layer claimed (the outside "(other)").
Spans are aggregated in memory per layer: self seconds and call counts.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: (layer, defining module, function name).
FUNCTIONS = (
    ("spec", "repro.spec.dsl", "load_document"),
    ("spec", "repro.spec.dsl", "load_composition"),
    ("spec", "repro.spec.dsl", "load_databases"),
    ("spec", "repro.spec.dsl", "load_properties"),
    ("spec", "repro.spec.dsl", "scan_document"),
    ("ib", "repro.ib.checker", "check_composition"),
    ("ib", "repro.ib.checker", "check_sentence"),
    ("analysis.cold", "workloads", "lint_cold"),
    ("analysis.warm", "workloads", "lint_warm"),
    ("domain", "repro.verifier.domain", "verification_domain"),
    ("domain", "repro.verifier.domain", "canonical_valuations"),
    ("ltl", "repro.ltl.translate", "ltl_to_buchi"),
    ("step", "repro.runtime.step", "successors"),
    ("search", "repro.verifier.search", "find_accepting_lasso"),
)

#: (layer, defining module, class, method name).
METHODS = (
    ("graph.freeze", "repro.verifier.graph", "SharedExploration",
     "complete"),
    ("graph.intern", "repro.verifier.graph", "StateInterner", "intern"),
    ("atoms", "repro.verifier.atoms", "InternedSnapshotEvaluator",
     "letter"),
    ("atoms", "repro.verifier.atoms", "SnapshotEvaluator", "letter"),
)


class Tracer:
    """Self-time and call counts per layer, plus a few result tallies."""

    def __init__(self) -> None:
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Per-function call counts ("layer:function").
        self.entries: Counter = Counter()
        self.tally: Counter = Counter()
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []
        #: Graphs already counted, held so their ids are never reused.
        self._frozen: list = []

    # -- spans -----------------------------------------------------------

    def _enter(self) -> tuple[list[float], float]:
        frame = [0.0]            # time covered by child spans
        self._stack.append(frame)
        return frame, perf_counter()

    def _exit(self, layer: str, frame: list[float], start: float) -> None:
        duration = perf_counter() - start
        self._stack.pop()
        self.self_seconds[layer] += duration - frame[0]
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][0] += duration

    @contextlib.contextmanager
    def span(self, layer: str):
        """A benchmark-side span (the operation's root)."""
        frame, start = self._enter()
        try:
            yield
        finally:
            self._exit(layer, frame, start)

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        tally = self._tally_hook(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, start = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(layer, frame, start)
            tracer.entries[f"{layer}:{name}"] += 1
            if tally is not None:
                tally(result)
            return result

        return wrapper

    def _tally_hook(self, name: str):
        if name == "canonical_valuations":
            return lambda result: self.tally.update(
                {"domain.valuations": len(result)})
        if name == "complete":
            return self._count_freeze
        return None

    def _count_freeze(self, graph) -> None:
        if graph is not None and not any(g is graph for g in self._frozen):
            self._frozen.append(graph)
            self.tally["graph.freezes"] += 1
            self.tally["graph.csr_bytes"] += graph.csr_nbytes

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for layer, module_name, name in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), name)
            wrapper = self._wrap(layer, name, original)
            for module in list(sys.modules.values()):
                mod_name = getattr(module, "__name__", "")
                if not (mod_name.startswith("repro")
                        or mod_name == "workloads"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, wrapper)
        for layer, module_name, cls_name, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._replace(cls, name,
                          self._wrap(layer, name, vars(cls)[name]))

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def report(self) -> dict:
        return {
            "self_seconds": dict(self.self_seconds),
            "calls": dict(self.calls),
            "entries": dict(self.entries),
            "tally": dict(self.tally),
        }
