"""The valuation sweep: one task grid, run in-process or on a process pool.

The verifier's outer loop is embarrassingly parallel: each canonical
valuation of the property's closure variables (times each candidate
database, for enumeration sweeps) spawns an independent Büchi
translation plus nested-DFS emptiness search.  Every ``verify*`` entry
point describes its work the same way -- a :class:`SweepPayload`
(composition, database contexts, sentences, semantics) plus a grid of
:class:`SweepTask` cells -- and calls :func:`run_sweep`, the one
valuation loop of :mod:`repro.verifier`.

* **In-process (``workers <= 1``).**  Tasks run in global order.  The
  exploration of a context is lazy for its first valuation (which may
  decide the verdict without the full graph) and frozen into CSR form
  from the second on, so later valuations are pure graph walks.
* **Pool (``workers > 1``).**  The driver expands a single-context
  graph once, pickles the payload (graph included) once, and hands it
  to every worker of a :class:`concurrent.futures.ProcessPoolExecutor`
  through the executor's initializer.  :func:`plan_batches` chunks the
  grid into batches that never span a ``(group, ctx)`` cell; they are
  submitted in global order.  A broken pool falls back to the
  in-process run, which reuses the driver's graph.
* **Lowest order wins.**  A group's verdict is decided by its
  lowest-order violated task, so any worker count and any schedule give
  the same verdict, decisive valuation, counterexample lasso and
  headline counters as the in-process run.  Workers publish violated
  orders in a shared cancel array, polled from inside the emptiness
  search (:class:`~repro.verifier.search.SearchCancelled`); only tasks
  *later* in the order are cancelled.
* **Shards.**  ``shard=(i, N)`` restricts the grid to the i-th residue
  class of the task order (``order % N == i``) while keeping global
  order numbers, so independent machines can each run one shard and
  ``repro merge-shards`` reassembles the global verdict by the same
  lowest-order-wins rule (:mod:`repro.verifier.shards`).
* **Stats.**  Every task reports wall time and node counts; only tasks
  at or before the decisive order count toward the headline
  :class:`VerifierStats`.  Observability deltas (phase seconds, rule
  cache, counters) are taken once per batch, never per valuation.

Cross-process serialization uses ``pickle.HIGHEST_PROTOCOL`` explicitly
-- the multiprocessing default is protocol 4, which measurably inflates
worker seeding cost on snapshot-heavy payloads.
"""

from __future__ import annotations

import itertools
import os
import pickle
import time
from concurrent.futures import (
    FIRST_COMPLETED, ProcessPoolExecutor, wait,
)
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from ..fo.instance import Instance
from ..fo.terms import Value, Var
from ..ltl.translate import ltl_to_buchi
from ..ltlfo.formulas import LTLFOSentence
from ..obs import (
    NULL_PROGRESS, PHASE_SWEEP, counter, counters_snapshot, diff_numeric,
    gauge, instant, merge_counters, phase, phase_counts, phase_seconds,
    reset_for_worker, sweep_progress,
)
from ..obs import ledger
from ..obs.live import DEFAULT_INTERVAL
from ..runtime.run import Lasso
from ..runtime.step import (
    clear_rule_cache, rule_cache_delta, rule_cache_info,
)
from ..spec.channels import ChannelSemantics
from ..spec.composition import Composition
from .atoms import InternedSnapshotEvaluator, negated_instance
from .domain import VerificationDomain
from .graph import ExploredGraph, InternedProduct, SharedExploration
from .product import SearchBudget, TransitionCache
from .result import (
    Counterexample, TaskStats, VerificationResult, VerifierStats,
)
from .search import SearchCancelled, find_accepting_lasso

#: Sentinel order meaning "no violation found yet" in the cancel array.
_UNDECIDED = 2 ** 62

#: Target number of batches per pool worker: coarse enough to amortize
#: per-batch traffic, fine enough to balance a skewed grid.
BATCHES_PER_WORKER = 4


# ---------------------------------------------------------------------------
# worker-count resolution


def resolve_workers(workers: int | None) -> int:
    """Normalize a ``workers=`` argument.

    ``None`` reads ``REPRO_WORKERS`` (default: 1); a non-positive count
    from either source means "all cores".
    """
    if workers is None:
        try:
            workers = int(os.environ.get("REPRO_WORKERS", ""))
        except ValueError:
            return 1
    if workers <= 0:
        return os.cpu_count() or 1
    return workers


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
    (``order % N == i``): deterministic, balanced even when early
    orders are systematically cheaper, and independent of the worker
    count and batch size.  A merged N-shard run therefore
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
    """Everything a worker needs, shipped once per worker.

    ``frozen_graph`` is set only when the driver pre-expanded the
    reachable graph of a single-context grid for a pool; it serves
    context 0 in the workers and in the post-crash in-process rerun.
    """

    composition: Composition
    contexts: tuple[SweepContext, ...]
    sentences: tuple[LTLFOSentence, ...]
    semantics: ChannelSemantics
    include_environment: bool = True
    env_value_domain: tuple[Value, ...] | None = None
    env_one_action_per_move: bool = True
    fair_scheduling: bool = False
    budget: SearchBudget | None = None
    #: Pre-expanded reachable graph of context 0 (pool sweeps only).
    frozen_graph: ExploredGraph | None = None


@dataclass(frozen=True)
class SweepTask:
    """One cell of the (valuation, database) grid.

    ``group`` indexes the payload's sentences (one result per property
    in ``verify_all``); ``order`` is the task's position in the sweep of
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


#: The (empty) result of a task cancelled before or during its search.
_NO_RESULT = ValuationOutcome(None, None, 0, 0, 0)


@dataclass(frozen=True)
class TaskOutcome:
    """What running one task produced."""

    task: SweepTask
    result: ValuationOutcome
    cancelled: bool = False
    states_expanded: int = 0
    wall_seconds: float = 0.0


@dataclass(frozen=True)
class BatchOutcome:
    """A batch's task outcomes plus the registry movement it caused.

    The observability deltas -- exclusive per-phase seconds/entry
    counts (:mod:`repro.obs.phases`), rule-cache counter movement
    (:func:`repro.runtime.step.rule_cache_delta`) and registry counters
    -- would otherwise die with a pool worker; the driver merges them
    into :class:`~repro.verifier.result.VerifierStats` so ``--stats``
    and ``repro profile`` report true totals at any worker count.
    ``worker`` is empty for batches run in the driver;
    ``wall_seconds`` is the batch's elapsed time.
    """

    group: int
    tasks: tuple[TaskOutcome, ...]
    phase_seconds: dict
    phase_counts: dict
    rule_cache: dict
    counters: dict
    worker: str = ""
    wall_seconds: float = 0.0


def check_one_valuation(exploration: SharedExploration,
                        sentence: LTLFOSentence,
                        valuation: Mapping[Var, Value],
                        domain: VerificationDomain,
                        fair_scheduling: bool = False,
                        should_stop=None) -> ValuationOutcome:
    """Translate + search one valuation of the closure variables.

    Translate the negated instance (:func:`negated_instance`) to a
    Büchi automaton and search its product with the interned
    exploration for an accepting lasso.  The product runs over state
    ids and the exploration's shared snapshot/letter caches; lasso
    nodes are mapped back to snapshots before returning.
    """
    nba = ltl_to_buchi(negated_instance(
        exploration.composition, sentence, valuation, domain,
        fair_scheduling))
    evaluator = InternedSnapshotEvaluator(
        exploration.composition, domain.values, nba.aps,
        exploration.shared,
    )
    lasso_nodes, search_stats = find_accepting_lasso(
        InternedProduct(exploration, nba, evaluator),
        should_stop=should_stop,
    )
    prefix = cycle = None
    if lasso_nodes is not None:
        state_of = exploration.interner.state_of
        prefix = tuple(state_of(n[0]) for n in lasso_nodes.prefix)
        cycle = tuple(state_of(n[0]) for n in lasso_nodes.cycle)
    return ValuationOutcome(prefix, cycle, nba.num_states(),
                            search_stats.blue_visited,
                            search_stats.red_visited)


# ---------------------------------------------------------------------------
# running tasks (the same code in the driver and in pool workers)


def _new_exploration(payload: SweepPayload,
                     ctx_idx: int) -> SharedExploration:
    if payload.frozen_graph is not None and ctx_idx == 0:
        return SharedExploration.from_graph(payload.frozen_graph,
                                            payload.composition)
    ctx = payload.contexts[ctx_idx]
    return SharedExploration(TransitionCache(
        payload.composition, dict(ctx.databases), ctx.domain.values,
        payload.semantics,
        include_environment=payload.include_environment,
        budget=payload.budget,
        env_value_domain=payload.env_value_domain,
        env_one_action_per_move=payload.env_one_action_per_move,
    ))


def _exploration(payload: SweepPayload, ctx_idx: int, contexts: dict
                 ) -> SharedExploration:
    """The interned exploration serving one context.

    A pre-expanded graph serves context 0 directly.  Otherwise the
    first task on a context explores lazily -- it may decide the verdict
    without the full graph -- and the second freezes the shared
    exploration (once; a budget overrun leaves it lazy), so later
    valuations are pure graph walks.  Only one context is kept per
    process: contexts partition the state space, so an old one cannot
    be reused and only pins memory.
    """
    entry = contexts.get(ctx_idx)
    if entry is None:
        contexts.clear()
        entry = contexts[ctx_idx] = [_new_exploration(payload, ctx_idx), 0]
    exploration, uses = entry
    if uses == 1:
        exploration.complete(strict=False)
    entry[1] = uses + 1
    return exploration


def _lower_cutoff(cancel, group: int, order: int) -> None:
    """Publish a violated *order* for *group* (lowest order wins)."""
    lock = cancel.get_lock() if hasattr(cancel, "get_lock") else nullcontext()
    with lock:
        if order < cancel[group]:
            cancel[group] = order


def _run_task(payload: SweepPayload, task: SweepTask, cancel,
              contexts: dict) -> TaskOutcome:
    def should_stop() -> bool:
        return cancel[task.group] < task.order

    if should_stop():
        return TaskOutcome(task, _NO_RESULT, cancelled=True)
    exploration = _exploration(payload, task.ctx, contexts)
    t0 = time.perf_counter()
    try:
        result = check_one_valuation(
            exploration, payload.sentences[task.group],
            dict(task.valuation), payload.contexts[task.ctx].domain,
            fair_scheduling=payload.fair_scheduling,
            should_stop=should_stop,
        )
    except SearchCancelled:
        result = None
    wall = time.perf_counter() - t0
    instant("task-done", group=task.group, order=task.order,
            cancelled=result is None, wall_seconds=wall)
    if result is None:
        return TaskOutcome(task, _NO_RESULT, cancelled=True,
                           wall_seconds=wall)
    if result.violated:
        _lower_cutoff(cancel, task.group, task.order)
    return TaskOutcome(task, result,
                       states_expanded=exploration.states_expanded,
                       wall_seconds=wall)


class _ObsWindow:
    """Registry movement since the window opened or was last taken."""

    def __init__(self) -> None:
        self._mark = self._now()

    @staticmethod
    def _now() -> tuple:
        return (phase_seconds(), phase_counts(), rule_cache_info(),
                counters_snapshot())

    def take(self) -> dict:
        seconds, counts, rule, counters = self._mark
        delta = {
            "phase_seconds": diff_numeric(phase_seconds(), seconds),
            "phase_counts": diff_numeric(phase_counts(), counts),
            "rule_cache": rule_cache_delta(rule),
            "counters": diff_numeric(counters_snapshot(), counters),
        }
        self._mark = self._now()
        return delta


def _advance(progress, outcome: TaskOutcome) -> None:
    result = outcome.result
    progress.advance(
        1, violated=int(result.violated),
        cancelled=int(outcome.cancelled),
        product_nodes=result.blue_visited + result.red_visited,
    )


def _run_batch(payload: SweepPayload, batch: Sequence[SweepTask], cancel,
               contexts: dict, window: _ObsWindow, worker: str = "",
               progress=NULL_PROGRESS) -> BatchOutcome:
    t0 = time.perf_counter()
    outcomes = []
    for task in batch:
        outcome = _run_task(payload, task, cancel, contexts)
        outcomes.append(outcome)
        _advance(progress, outcome)
    return BatchOutcome(group=batch[0].group, tasks=tuple(outcomes),
                        worker=worker,
                        wall_seconds=time.perf_counter() - t0,
                        **window.take())


# ---------------------------------------------------------------------------
# pool workers

_WORKER: dict = {}


def _init_worker(payload_bytes: bytes, cancel, next_index,
                 bootstrap: dict) -> None:
    clear_rule_cache()
    reset_for_worker()
    with next_index.get_lock():
        index = next_index.value
        next_index.value += 1
    # join the driver's run ledger (and, under spawn, re-attach the
    # trace sink) so this worker's spans carry run/worker/shard stamps
    # and land in the same stitched trace as the driver's
    ledger.adopt_worker(dict(bootstrap, worker=index))
    # the first batch's window also covers this set-up (payload and
    # graph unpickling), so nothing a worker does goes unreported
    _WORKER.update(window=_ObsWindow(), cancel=cancel, contexts={},
                   worker=f"pid-{os.getpid()}")
    _WORKER["payload"] = pickle.loads(payload_bytes)
    instant("worker-start", worker=index)


def _worker_batch(batch: Sequence[SweepTask]) -> BatchOutcome:
    # test hook: die mid-sweep, after claiming work, where a real crash
    # would hurt most (crash-robustness suite)
    kill_order = os.environ.get("REPRO_TEST_KILL_TASK", "")
    if kill_order and any(t.order == int(kill_order) for t in batch):
        os._exit(17)
    return _run_batch(_WORKER["payload"], batch, _WORKER["cancel"],
                      _WORKER["contexts"], _WORKER["window"],
                      _WORKER["worker"])


# ---------------------------------------------------------------------------
# driver


def plan_batches(ordered: Sequence[SweepTask],
                 workers: int) -> list[tuple[SweepTask, ...]]:
    """Chunk the ordered task grid into pool batches.

    Batches never span a (group, ctx) boundary -- a batch is a
    contiguous run of valuations of one property over one database
    context, so executing it reuses one exploration and its letter
    caches.  The chunk size targets ``BATCHES_PER_WORKER`` batches per
    worker.  Boundaries are a pure function of the ordered grid.
    """
    size = max(1, -(-len(ordered) // (workers * BATCHES_PER_WORKER)))
    return [cell[i:i + size] for cell in _cells(ordered)
            for i in range(0, len(cell), size)]


def _cells(ordered: Sequence[SweepTask]) -> list[tuple[SweepTask, ...]]:
    """The contiguous runs of one (group, ctx) cell of the ordered grid."""
    return [tuple(cell) for _key, cell in itertools.groupby(
        ordered, key=lambda t: (t.group, t.ctx))]


def payload_to_bytes(payload: SweepPayload, workers: int = 1) -> bytes:
    """Pickle the worker payload at ``HIGHEST_PROTOCOL``.

    When the payload carries a pre-expanded graph, the
    ``graph.shm_bytes_shipped`` counter records the graph bytes that
    each of the *workers* workers will deserialize.
    """
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    if payload.frozen_graph is not None and workers > 1:
        without_graph = pickle.dumps(replace(payload, frozen_graph=None),
                                     protocol=pickle.HIGHEST_PROTOCOL)
        counter("graph.shm_bytes_shipped").inc(
            max(0, len(data) - len(without_graph)) * workers
        )
    gauge("sweep.payload_bytes").set(len(data))
    return data


def _mp_context():
    import multiprocessing
    methods = multiprocessing.get_all_start_methods()
    preferred = os.environ.get("REPRO_START_METHOD", "").strip()
    if preferred and preferred in methods:
        return multiprocessing.get_context(preferred)
    method = "fork" if "fork" in methods else methods[0]
    return multiprocessing.get_context(method)


def _pre_expand(payload: SweepPayload) -> SweepPayload:
    """Expand a single-context payload's graph in the driver.

    The reachable snapshot graph is valuation-independent, so a pool
    expands it once here instead of once per worker.  Multi-context
    grids (database enumeration) skip this: contexts partition across
    workers, and each worker explores a context lazily.
    """
    if len(payload.contexts) != 1:
        return payload
    graph = _new_exploration(payload, 0).complete(strict=False)
    if graph is None:
        return payload
    return replace(payload, frozen_graph=graph)


def _run_in_process(payload: SweepPayload, ordered: Sequence[SweepTask],
                    progress) -> list[BatchOutcome]:
    """The in-process sweep: global order, one batch per (group, ctx)."""
    cancel = [_UNDECIDED] * len(payload.sentences)
    contexts: dict = {}
    return [
        _run_batch(payload, cell, cancel, contexts, _ObsWindow(),
                   progress=progress)
        for cell in _cells(ordered)
    ]


def _run_pool(payload_bytes: bytes, n_sentences: int,
              ordered: Sequence[SweepTask], workers: int,
              progress) -> list[BatchOutcome]:
    """Run the batches on a process pool; collect them as they finish."""
    batches = plan_batches(ordered, workers)
    gauge("sweep.batches").set(len(batches))
    mp = _mp_context()
    cancel = mp.Array("q", [_UNDECIDED] * n_sentences)
    initargs = (payload_bytes, cancel, mp.Value("i", 0),
                ledger.worker_bootstrap(0))
    results: list[BatchOutcome] = []
    with ProcessPoolExecutor(min(workers, len(batches)), mp_context=mp,
                             initializer=_init_worker,
                             initargs=initargs) as pool:
        # submitted in global order, so workers take the lowest orders
        # first and reach decisive violations early
        pending = {pool.submit(_worker_batch, batch) for batch in batches}
        while pending:
            done, pending = wait(pending, timeout=DEFAULT_INTERVAL,
                                 return_when=FIRST_COMPLETED)
            progress.tick()
            for future in done:
                batch = future.result()
                results.append(batch)
                for outcome in batch.tasks:
                    _advance(progress, outcome)
    return results


def run_sweep(payload: SweepPayload, tasks: Sequence[SweepTask],
              workers: int) -> list[VerificationResult]:
    """Run the task grid; one result per sentence of *payload*.

    A pool starts only when it can help (``workers > 1`` and at least
    two tasks) and the payload pickles; a pool that breaks (a worker
    died) falls back to the in-process run, which reuses the driver's
    pre-expanded graph instead of re-expanding.
    """
    t0 = time.perf_counter()
    ordered = sorted(tasks, key=lambda t: (t.group, t.order))
    pooled = False
    with phase(PHASE_SWEEP):
        progress = sweep_progress(len(ordered))
        instant("sweep-start", tasks=len(ordered), workers=workers)
        try:
            driver = _ObsWindow()
            payload_bytes = None
            if workers > 1 and len(ordered) > 1:
                payload = _pre_expand(payload)
                try:
                    payload_bytes = payload_to_bytes(payload, workers)
                except (pickle.PicklingError, TypeError, AttributeError):
                    pass  # an unpicklable payload runs in-process
            driver_obs = driver.take()
            progress.set_info(
                workers=workers, groups=len(payload.sentences),
                graph_states=(payload.frozen_graph.num_states
                              if payload.frozen_graph is not None
                              else None),
            )
            batches = None
            if payload_bytes is not None:
                try:
                    batches = _run_pool(payload_bytes,
                                        len(payload.sentences), ordered,
                                        workers, progress)
                    pooled = True
                except BrokenProcessPool:
                    counter("sweep.pool_broken").inc()
                    # start the progress story over: the in-process
                    # rerun executes the full grid from scratch
                    progress.reset()
            if batches is None:
                batches = _run_in_process(payload, ordered, progress)
        finally:
            progress.finish()
            instant("sweep-done", tasks=len(ordered))
    wall = time.perf_counter() - t0
    results = [
        _result_for_group(group, batches, payload,
                          workers if pooled else 1,
                          wall if pooled else None)
        for group in range(len(payload.sentences))
    ]
    if results:
        # the driver's one-off pre-expansion goes to the first group
        results[0].stats.merge_phases(driver_obs["phase_seconds"],
                                      driver_obs["phase_counts"])
        results[0].stats.merge_rule_cache(driver_obs["rule_cache"])
    return results


# ---------------------------------------------------------------------------
# aggregation


def _result_for_group(group: int, batches: Sequence[BatchOutcome],
                      payload: SweepPayload, workers: int,
                      wall_seconds: float | None) -> VerificationResult:
    """Fold one group's batches into a result (lowest order wins).

    ``wall_seconds`` is the pooled sweep's elapsed time, which every
    group shares (its batches interleave with the other groups'); in
    process (None) a group's time is the sum of its own batches.  Only
    tasks at or before the decisive (lowest violated) order count
    toward the headline stats -- exactly the tasks the in-process sweep
    runs -- so ``product_nodes_visited`` is the same at any worker
    count.  Cancelled and extra tasks still appear in ``per_task``.
    The observability deltas merge from every batch, counted or not:
    they measure compute that actually happened.
    """
    mine = [b for b in batches if b.group == group]
    rows = sorted(((o, b.worker) for b in mine for o in b.tasks),
                  key=lambda row: row[0].task.order)
    decisive = next((o for o, _ in rows if o.result.violated), None)
    cutoff = decisive.task.order if decisive is not None else _UNDECIDED
    if wall_seconds is None:
        wall_seconds = sum(b.wall_seconds for b in mine)
    stats = VerifierStats(workers=workers, wall_seconds=wall_seconds)
    for batch in mine:
        stats.merge_phases(batch.phase_seconds, batch.phase_counts)
        stats.merge_rule_cache(batch.rule_cache)
        if batch.worker:
            # fold pool-worker registry movement (graph.reuse_hits,
            # fo.index_builds, ...) into the driver's registry so
            # --metrics-json reports fleet-wide totals; in-process
            # batches already moved this registry directly
            merge_counters(batch.counters)
            stats.merge_worker(
                batch.worker, len(batch.tasks),
                sum(o.wall_seconds for o in batch.tasks),
                batch.phase_seconds, batch.rule_cache,
            )
    for outcome, worker in rows:
        task, result = outcome.task, outcome.result
        counted = not outcome.cancelled and task.order <= cutoff
        stats.record_task(TaskStats(
            group=task.group, order=task.order,
            wall_seconds=outcome.wall_seconds,
            nba_states=result.nba_states,
            product_nodes=result.blue_visited + result.red_visited,
            system_states=outcome.states_expanded,
            cancelled=not counted,
            worker=worker,
        ))
        if counted:
            stats.valuations_checked += 1
            stats.nba_states_total += result.nba_states
            stats.merge_search(result.blue_visited, result.red_visited)
            stats.system_states = max(stats.system_states,
                                      outcome.states_expanded)
    if payload.frozen_graph is not None:
        # workers served the driver's pre-expanded graph and report 0
        # expansions; the graph size is the true system-state count
        stats.system_states = max(stats.system_states,
                                  payload.frozen_graph.num_states)
    sentence = payload.sentences[group]
    counterexample = None
    domain = payload.contexts[-1].domain
    if decisive is not None:
        task, result = decisive.task, decisive.result
        stats.decisive_order = task.order
        domain = payload.contexts[task.ctx].domain
        counterexample = Counterexample(
            valuation={var.name: value for var, value in task.valuation},
            lasso=Lasso(result.lasso_prefix, result.lasso_cycle),
            property_text=str(sentence),
        )
    return VerificationResult(
        satisfied=decisive is None,
        property_text=str(sentence),
        counterexample=counterexample,
        stats=stats,
        domain_description=domain.describe(),
        semantics_description=payload.semantics.describe(),
    )
