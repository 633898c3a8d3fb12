"""Verification results, counterexamples, and statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..fo.terms import Value
from ..runtime.run import Lasso
from ..spec.composition import Composition


@dataclass(frozen=True)
class TaskStats:
    """Timing and node counters of one (valuation, database) sweep task."""

    group: int
    order: int
    wall_seconds: float
    nba_states: int
    product_nodes: int
    system_states: int
    cancelled: bool = False


@dataclass
class VerifierStats:
    """Aggregate counters across a whole verification call.

    ``tasks_*``/``task_seconds``/``per_task`` are filled by the
    valuation sweep (:mod:`repro.verifier.parallel`).
    ``task_seconds`` is the *sum* of per-task wall times, while
    ``wall_seconds`` is the sweep's elapsed time.  Compute spent on
    tasks past the decisive order (only a merged shard split has any)
    is kept separately in ``cancelled_task_seconds``, so it cannot
    inflate the deterministic headline counters.

    ``phase_seconds``/``phase_counts`` hold the per-phase self-time
    breakdown (see :mod:`repro.obs.phases`) and ``rule_cache`` the
    rule-firing memo deltas (hits/misses/evictions).
    """

    valuations_checked: int = 0
    system_states: int = 0
    product_nodes_visited: int = 0
    nba_states_total: int = 0
    wall_seconds: float = 0.0
    #: Global sweep order of the violated task that decided the verdict
    #: (None when satisfied).  Orders are global even under ``--shard``,
    #: so ``repro merge-shards`` picks the overall decisive task as the
    #: minimum across fragments -- the lowest-order-wins rule.
    decisive_order: int | None = None
    tasks_run: int = 0
    tasks_cancelled: int = 0
    task_seconds: float = 0.0
    cancelled_task_seconds: float = 0.0
    per_task: list[TaskStats] = field(default_factory=list)
    phase_seconds: dict[str, float] = field(default_factory=dict)
    phase_counts: dict[str, int] = field(default_factory=dict)
    rule_cache: dict[str, int] = field(default_factory=dict)

    def merge_search(self, blue: int, red: int) -> None:
        self.product_nodes_visited += blue + red

    def record_task(self, task: TaskStats) -> None:
        self.per_task.append(task)
        if task.cancelled:
            self.tasks_cancelled += 1
            self.cancelled_task_seconds += task.wall_seconds
            return
        self.tasks_run += 1
        self.task_seconds += task.wall_seconds

    def merge_phases(self, seconds: Mapping[str, float],
                     counts: Mapping[str, int]) -> None:
        for name, value in seconds.items():
            self.phase_seconds[name] = (
                self.phase_seconds.get(name, 0.0) + value
            )
        for name, value in counts.items():
            self.phase_counts[name] = self.phase_counts.get(name, 0) + value

    def merge_rule_cache(self, delta: Mapping[str, int]) -> None:
        for key, value in delta.items():
            self.rule_cache[key] = self.rule_cache.get(key, 0) + value

    @property
    def rule_cache_hit_rate(self) -> float | None:
        """Aggregate hit rate of the rule-firing memo, if recorded."""
        hits = self.rule_cache.get("hits", 0)
        misses = self.rule_cache.get("misses", 0)
        if hits + misses == 0:
            return None
        return hits / (hits + misses)

    def to_dict(self) -> dict:
        """JSON-able form for ``--metrics-json`` / benchmark snapshots."""
        return {
            "valuations_checked": self.valuations_checked,
            "system_states": self.system_states,
            "product_nodes_visited": self.product_nodes_visited,
            "nba_states_total": self.nba_states_total,
            "wall_seconds": self.wall_seconds,
            "decisive_order": self.decisive_order,
            "tasks_run": self.tasks_run,
            "tasks_cancelled": self.tasks_cancelled,
            "task_seconds": self.task_seconds,
            "cancelled_task_seconds": self.cancelled_task_seconds,
            "phase_seconds": dict(self.phase_seconds),
            "phase_counts": dict(self.phase_counts),
            "rule_cache": dict(self.rule_cache),
            "per_task": [
                {
                    "group": t.group, "order": t.order,
                    "wall_seconds": t.wall_seconds,
                    "nba_states": t.nba_states,
                    "product_nodes": t.product_nodes,
                    "system_states": t.system_states,
                    "cancelled": t.cancelled,
                }
                for t in self.per_task
            ],
        }


@dataclass(frozen=True)
class Counterexample:
    """A violating run: the valuation of the closure variables plus the
    lasso of snapshots witnessing the negated property."""

    valuation: Mapping[str, Value]
    lasso: Lasso
    property_text: str

    def describe(self, composition: Composition,
                 relations=None, max_rows: int = 6) -> str:
        header = [f"counterexample to: {self.property_text}"]
        if self.valuation:
            header.append(f"closure valuation: {dict(self.valuation)}")
        header.append(
            f"lasso: {len(self.lasso.prefix)} prefix + "
            f"{len(self.lasso.cycle)} cycle snapshots"
        )
        body = self.lasso.describe(composition, relations=relations,
                                   max_rows=max_rows)
        return "\n".join(header) + "\n" + body


@dataclass(frozen=True)
class VerificationResult:
    """The outcome of one verification call.

    Truthy iff the property holds.  ``counterexample`` is set exactly when
    the property fails.
    """

    satisfied: bool
    property_text: str
    counterexample: Counterexample | None
    stats: VerifierStats
    domain_description: str
    semantics_description: str

    def __bool__(self) -> bool:
        return self.satisfied

    @property
    def verdict(self) -> str:
        return "SATISFIED" if self.satisfied else "VIOLATED"

    def summary(self) -> str:
        lines = (
            f"{self.verdict}: {self.property_text}\n"
            f"  domain: {self.domain_description}; "
            f"semantics: {self.semantics_description}\n"
            f"  valuations: {self.stats.valuations_checked}, "
            f"system states: {self.stats.system_states}, "
            f"product nodes: {self.stats.product_nodes_visited}, "
            f"time: {self.stats.wall_seconds:.3f}s"
        )
        hit_rate = self.stats.rule_cache_hit_rate
        if hit_rate is not None:
            cache = self.stats.rule_cache
            lines += (
                f"\n  rule cache: {cache.get('hits', 0)} hits / "
                f"{cache.get('misses', 0)} misses "
                f"({100 * hit_rate:.1f}% hit rate)"
            )
        return lines

