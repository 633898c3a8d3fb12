"""Decision procedures: LTL-FO verification, protocol compliance,
modular (assume-guarantee) verification."""

from .atoms import (
    EventAtom, InternedSnapshotEvaluator, OccursAtom, PairState,
    SharedSnapshotContext, SnapshotEvaluator,
)
from .domain import (
    VerificationDomain, canonical_valuations, canonicalize_valuation,
    enumerate_databases, fresh_values, verification_domain,
)
from .graph import (
    ExploredGraph, InternedProduct, SharedExploration, StateInterner,
)
from .parallel import (
    SweepContext, SweepPayload, SweepTask, check_one_valuation,
    grid_tasks, resolve_shard, run_sweep, shard_filter,
)
from .shards import (
    MERGED_SCHEMA, SHARD_SCHEMA, merge_fragments,
    merge_metrics_snapshots, result_from_merged, shard_fragment,
    spec_sha,
)
from .product import ProductSystem, SearchBudget, TransitionCache
from .refutation import PropertyRefutation
from .result import (
    Counterexample, TaskStats, VerificationResult, VerifierStats,
)
from .search import LassoNodes, SearchStats, find_accepting_lasso
from .ltlfo_verifier import (
    preflight, verify, verify_all, verify_over_databases,
)
from .reference import verify_reference
from .modular import (
    environment_schema, modular_refutation, observer_translate,
    parse_env_spec, translate_env_spec, verify_modular,
)

__all__ = [
    "Counterexample", "EventAtom", "ExploredGraph", "InternedProduct",
    "InternedSnapshotEvaluator", "LassoNodes", "MERGED_SCHEMA",
    "OccursAtom", "PairState", "ProductSystem", "PropertyRefutation",
    "SHARD_SCHEMA", "SearchBudget", "SearchStats",
    "SharedExploration", "SharedSnapshotContext", "SnapshotEvaluator",
    "StateInterner",
    "SweepContext", "SweepPayload", "SweepTask", "TaskStats",
    "TransitionCache", "VerificationDomain", "VerificationResult",
    "VerifierStats", "canonical_valuations", "canonicalize_valuation",
    "check_one_valuation", "enumerate_databases",
    "environment_schema", "find_accepting_lasso", "fresh_values",
    "grid_tasks", "merge_fragments", "merge_metrics_snapshots",
    "modular_refutation", "observer_translate", "parse_env_spec",
    "preflight",
    "resolve_shard",
    "result_from_merged",
    "run_sweep", "shard_filter", "shard_fragment", "spec_sha",
    "translate_env_spec", "verification_domain", "verify",
    "verify_all", "verify_modular", "verify_over_databases",
    "verify_reference",
]
