"""The valuation sweep: one task grid, run in process.

The verifier's outer loop is embarrassingly parallel: each canonical
valuation of a refutation's closure variables (times each candidate
database, for enumeration sweeps) spawns an independent Büchi
translation plus nested-DFS emptiness search.  Every decision procedure
-- ``verify*``, :func:`~repro.verifier.modular.verify_modular`,
:func:`~repro.protocols.verify_agnostic` and
:func:`~repro.protocols.verify_aware` -- describes its work the same
way: a :class:`SweepPayload` (composition, database contexts, one
refutation per result group (:mod:`repro.verifier.refutation`),
semantics) plus a grid of :class:`SweepTask` cells.  It calls
:func:`run_sweep`, the one valuation loop of :mod:`repro.verifier`.

* **In process.**  Tasks run in global order, one ``(group, ctx)``
  cell after another.  The exploration of a context is lazy for its
  first valuation (which may decide the verdict without the full
  graph) and frozen into CSR form from the second on, so later
  valuations are pure graph walks over one shared, valuation-
  independent snapshot graph.
* **Lowest order wins.**  A group's verdict is decided by its
  lowest-order violated task; the sweep stops the group there and
  records every later task of the group as cancelled.
* **Shards.**  ``shard=(i, N)`` restricts the grid to the i-th residue
  class of the task order (``order % N == i``) while keeping global
  order numbers, so independent processes or machines can each run one
  shard and ``repro merge-shards`` reassembles the global verdict by
  the same lowest-order-wins rule (:mod:`repro.verifier.shards`).
  Shards are the one way to split a sweep.
* **Stats.**  Every task reports wall time and node counts; only tasks
  up to the decisive order count toward the headline
  :class:`VerifierStats`.  Observability deltas (phase seconds, rule
  cache) are taken once per cell, never per valuation.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..fo.instance import Instance
from ..fo.terms import Value, Var
from ..obs import (
    PHASE_SWEEP, diff_numeric, instant, phase, phase_counts,
    phase_seconds, sweep_progress,
)
from ..runtime.run import Lasso
from ..runtime.step import rule_cache_delta, rule_cache_info
from ..spec.channels import ChannelSemantics
from ..spec.composition import Composition
from .atoms import InternedSnapshotEvaluator, snapshot_of
from .domain import VerificationDomain
from .graph import InternedProduct, SharedExploration
from .product import SearchBudget, transitions
from .result import (
    Counterexample, TaskStats, VerificationResult, VerifierStats,
)
from .search import find_accepting_lasso

#: Order meaning "no violation found yet" for a group.
_UNDECIDED = 2 ** 62


# ---------------------------------------------------------------------------
# shards


def resolve_shard(shard: tuple[int, int] | None) -> tuple[int, int] | None:
    """Validate a ``shard=(i, N)`` argument (None passes through)."""
    if shard is None:
        return None
    index, count = shard
    if count < 1 or not (0 <= index < count):
        raise ValueError(
            f"shard index/count {index}/{count} invalid: need "
            "0 <= index < count"
        )
    return (int(index), int(count))


def shard_filter(tasks: Sequence["SweepTask"],
                 shard: tuple[int, int] | None) -> list["SweepTask"]:
    """The subset of *tasks* owned by this shard (orders stay global).

    Partitioning is round-robin on the task order within each group
    (``order % N == i``): deterministic and balanced even when early
    orders are systematically cheaper.  A merged N-shard run therefore
    covers exactly the unsharded task set, each task exactly once.
    """
    shard = resolve_shard(shard)
    if shard is None:
        return list(tasks)
    index, count = shard
    return [t for t in tasks if t.order % count == index]


# ---------------------------------------------------------------------------
# the task grid


@dataclass(frozen=True)
class SweepContext:
    """One database context of the grid: fixed databases + their domain."""

    databases: tuple[tuple[str, Instance], ...]
    domain: VerificationDomain


@dataclass(frozen=True)
class SweepPayload:
    """Everything the sweep needs besides the task grid."""

    composition: Composition
    contexts: tuple[SweepContext, ...]
    #: One refutation (:mod:`repro.verifier.refutation`) per group.
    groups: tuple
    semantics: ChannelSemantics
    env_value_domain: tuple[Value, ...] | None = None
    budget: SearchBudget | None = None


@dataclass(frozen=True)
class SweepTask:
    """One cell of the (valuation, database) grid.

    ``group`` indexes the payload's refutations (one result per
    property in ``verify_all``); ``order`` is the task's position in the sweep of
    its group -- the determinism anchor.
    """

    group: int
    order: int
    ctx: int
    valuation: tuple[tuple[Var, Value], ...]


def freeze_valuation(valuation: Mapping[Var, Value]
                     ) -> tuple[tuple[Var, Value], ...]:
    """A hashable, deterministic form of a closure valuation."""
    return tuple(sorted(valuation.items(), key=lambda kv: kv[0].name))


def grid_tasks(cells: Iterable[tuple[int, int, Sequence[Mapping[Var, Value]]]],
               shard: tuple[int, int] | None = None) -> list[SweepTask]:
    """The task grid of ``(group, ctx, valuations)`` cells, in sweep order.

    Orders count per group across its cells (a property swept over
    several database contexts is one order), and *shard* keeps this
    shard's residue class of them.
    """
    next_order: dict[int, itertools.count] = {}
    tasks = [
        SweepTask(group=group,
                  order=next(next_order.setdefault(group, itertools.count())),
                  ctx=ctx, valuation=freeze_valuation(valuation))
        for group, ctx, valuations in cells
        for valuation in valuations
    ]
    return shard_filter(tasks, shard)


# ---------------------------------------------------------------------------
# one grid cell


@dataclass(frozen=True)
class ValuationOutcome:
    """Result of checking one valuation: lasso (if violated) + counters."""

    lasso_prefix: tuple | None
    lasso_cycle: tuple | None
    nba_states: int
    blue_visited: int
    red_visited: int

    @property
    def violated(self) -> bool:
        return self.lasso_cycle is not None


#: The (empty) result of a task cancelled by an earlier violation.
_NO_RESULT = ValuationOutcome(None, None, 0, 0, 0)


@dataclass(frozen=True)
class TaskOutcome:
    """What running one task produced."""

    task: SweepTask
    result: ValuationOutcome
    cancelled: bool = False
    states_expanded: int = 0
    wall_seconds: float = 0.0


def check_one_valuation(exploration: SharedExploration, group,
                        valuation: Mapping[Var, Value],
                        domain: VerificationDomain) -> ValuationOutcome:
    """Build + search one valuation's violation automaton.

    *group* is a refutation (:mod:`repro.verifier.refutation`); its
    automaton's product with the interned exploration is searched for
    an accepting lasso.  The product runs over state ids and the
    exploration's shared snapshot/letter caches; lasso nodes are mapped
    back to run snapshots before returning.
    """
    nba = group.automaton(valuation, domain)
    evaluator = InternedSnapshotEvaluator(
        exploration.composition, domain.values, nba.aps,
        exploration.shared,
    )
    lasso_nodes, search_stats = find_accepting_lasso(
        InternedProduct(exploration, nba, evaluator))
    prefix = cycle = None
    if lasso_nodes is not None:
        state_of = exploration.interner.state_of
        prefix = tuple(snapshot_of(state_of(n[0]))
                       for n in lasso_nodes.prefix)
        cycle = tuple(snapshot_of(state_of(n[0]))
                      for n in lasso_nodes.cycle)
    return ValuationOutcome(prefix, cycle, nba.num_states(),
                            search_stats.blue_visited,
                            search_stats.red_visited)


# ---------------------------------------------------------------------------
# running tasks


def _exploration(payload: SweepPayload, ctx_idx: int, contexts: dict
                 ) -> SharedExploration:
    """The interned exploration serving one context.

    The first task on a context explores lazily -- it may decide the
    verdict without the full graph -- and the second freezes the shared
    exploration (once; a budget overrun leaves it lazy), so later
    valuations are pure graph walks.  Only one context is kept:
    contexts partition the state space, so an old one cannot be reused
    and only pins memory.
    """
    entry = contexts.get(ctx_idx)
    if entry is None:
        contexts.clear()
        ctx = payload.contexts[ctx_idx]
        exploration = SharedExploration(transitions(
            payload.composition, dict(ctx.databases), ctx.domain.values,
            payload.semantics,
            pairs=any(group.pairs for group in payload.groups),
            budget=payload.budget,
            env_value_domain=payload.env_value_domain,
        ))
        entry = contexts[ctx_idx] = [exploration, 0]
    exploration, uses = entry
    if uses == 1:
        exploration.complete(strict=False)
    entry[1] = uses + 1
    return exploration


def _run_task(payload: SweepPayload, task: SweepTask,
              contexts: dict) -> TaskOutcome:
    exploration = _exploration(payload, task.ctx, contexts)
    t0 = time.perf_counter()
    result = check_one_valuation(
        exploration, payload.groups[task.group],
        dict(task.valuation), payload.contexts[task.ctx].domain,
    )
    wall = time.perf_counter() - t0
    instant("task-done", group=task.group, order=task.order,
            cancelled=False, wall_seconds=wall)
    return TaskOutcome(task, result,
                       states_expanded=exploration.states_expanded,
                       wall_seconds=wall)


def _cells(ordered: Sequence[SweepTask]) -> list[tuple[SweepTask, ...]]:
    """The contiguous runs of one (group, ctx) cell of the ordered grid."""
    return [tuple(cell) for _key, cell in itertools.groupby(
        ordered, key=lambda t: (t.group, t.ctx))]


def _merge_obs(stats: VerifierStats, mark: tuple) -> None:
    """Fold the phase and rule-cache movement since *mark* into *stats*."""
    seconds, counts, rule = mark
    stats.merge_phases(diff_numeric(phase_seconds(), seconds),
                       diff_numeric(phase_counts(), counts))
    stats.merge_rule_cache(rule_cache_delta(rule))


def run_sweep(payload: SweepPayload,
              tasks: Sequence[SweepTask]) -> list[VerificationResult]:
    """Run the task grid in global order; one result per group.

    A group stops at its lowest-order violation: its later tasks are
    recorded as cancelled without running.
    """
    ordered = sorted(tasks, key=lambda t: (t.group, t.order))
    n_groups = len(payload.groups)
    stats = [VerifierStats() for _ in range(n_groups)]
    outcomes: list[list[TaskOutcome]] = [[] for _ in range(n_groups)]
    decided = [_UNDECIDED] * n_groups
    contexts: dict = {}
    with phase(PHASE_SWEEP):
        progress = sweep_progress(len(ordered))
        instant("sweep-start", tasks=len(ordered))
        try:
            progress.set_info(groups=n_groups)
            for cell in _cells(ordered):
                group = cell[0].group
                mark = (phase_seconds(), phase_counts(), rule_cache_info())
                t0 = time.perf_counter()
                for task in cell:
                    if decided[group] < task.order:
                        outcome = TaskOutcome(task, _NO_RESULT,
                                              cancelled=True)
                    else:
                        outcome = _run_task(payload, task, contexts)
                        if outcome.result.violated:
                            decided[group] = task.order
                    outcomes[group].append(outcome)
                    result = outcome.result
                    progress.advance(
                        1, violated=int(result.violated),
                        cancelled=int(outcome.cancelled),
                        product_nodes=result.blue_visited
                        + result.red_visited,
                    )
                stats[group].wall_seconds += time.perf_counter() - t0
                _merge_obs(stats[group], mark)
        finally:
            progress.finish()
            instant("sweep-done", tasks=len(ordered))
    return [_result_for_group(group, outcomes[group], stats[group], payload)
            for group in range(n_groups)]


# ---------------------------------------------------------------------------
# aggregation


def _result_for_group(group: int, outcomes: Sequence[TaskOutcome],
                      stats: VerifierStats,
                      payload: SweepPayload) -> VerificationResult:
    """Fold one group's task outcomes (in order) into a result.

    Only tasks up to the decisive (lowest violated) order ran; they
    count toward the headline stats.  Cancelled tasks still appear in
    ``per_task``.
    """
    decisive = None
    for outcome in outcomes:
        task, result = outcome.task, outcome.result
        stats.record_task(TaskStats(
            group=task.group, order=task.order,
            wall_seconds=outcome.wall_seconds,
            nba_states=result.nba_states,
            product_nodes=result.blue_visited + result.red_visited,
            system_states=outcome.states_expanded,
            cancelled=outcome.cancelled,
        ))
        if outcome.cancelled:
            continue
        stats.valuations_checked += 1
        stats.nba_states_total += result.nba_states
        stats.merge_search(result.blue_visited, result.red_visited)
        stats.system_states = max(stats.system_states,
                                  outcome.states_expanded)
        if result.violated and decisive is None:
            decisive = outcome
    text = payload.groups[group].text
    counterexample = None
    domain = payload.contexts[-1].domain
    if decisive is not None:
        task, result = decisive.task, decisive.result
        stats.decisive_order = task.order
        domain = payload.contexts[task.ctx].domain
        counterexample = Counterexample(
            valuation={var.name: value for var, value in task.valuation},
            lasso=Lasso(result.lasso_prefix, result.lasso_cycle),
            property_text=text,
        )
    return VerificationResult(
        satisfied=decisive is None,
        property_text=text,
        counterexample=counterexample,
        stats=stats,
        domain_description=domain.describe(),
        semantics_description=payload.semantics.describe(),
    )
