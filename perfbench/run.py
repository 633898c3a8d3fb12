"""Time to verdict for ``repro``'s public API, end to end and per layer.

Usage::

    python3 perfbench/run.py --workload expand-batch --seed 1 \\
        --seconds 30 --trace 0

Run from the repository root.  Workloads (see NOTES.md):
``expand-batch``, ``valuation-sweep`` and ``spec-corpus``.

The load is a closed loop with one client: one operation at a time,
``workers=1``.  Every invocation of the workload runs in a fresh
interpreter (child.py), like one ``repro`` command, so no rule cache,
interner or lint cache survives from one invocation to the next.

``--trace 0`` starts invocations back to back until ``--seconds`` have
passed (at least two), plus set-up-only invocations until set-up was
measured five times, and prints the end-to-end metrics.  ``--trace 1``
runs a fixed amount of work whatever ``--seconds`` says: one plain
invocation, one with per-layer spans (layers.py) and one at
``workers=<usable cores>``, and prints the per-layer metrics.  Either way
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Times are
nominal: rescaled by each invocation's host factor (calibrate.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("expand-batch", "valuation-sweep", "spec-corpus")

MIN_CYCLES = 2
MIN_SETUPS = 5
#: Stop starting invocations after this long, so a run ends within 180 s.
LAST_START_S = 120.0
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark could not run (not a failed operation)."""


# -- invocations ---------------------------------------------------------


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def invoke(workload: str, seed: int, mode: str, workers: int,
           workdir: Path) -> dict:
    """Run child.py once; its set-up time counts from this launch."""
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed),
           mode, str(workers), str(workdir)]
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} invocation timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} invocation failed "
                         f"(exit {proc.returncode}):\n{proc.stderr[-3000:]}")
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    data["setup_s"] = data["t_ready"] - launched
    return data


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def stamp(workload: str, seed: int) -> dict:
    """Host, interpreter and source identity of this result."""
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                capture_output=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"workload": workload, "seed": seed, "cores": usable_cores(),
            "python": platform.python_version(), "commit": commit,
            "src_sha256": digest.hexdigest()[:16]}


# -- checking ------------------------------------------------------------


def tally(children: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems that make the run incorrect).

    Every failed operation counts in ``failed``.  Only the documented
    ``analysis.cost`` crash (NOTES.md) leaves the run correct; any other
    failure, a set-up problem or count drift makes it incorrect.
    """
    attempted = failed = 0
    problems: list[str] = []
    for child in children:
        problems += child["setup_problems"]
        for op in child["ops"]:
            attempted += 1
            if op["failure"] is not None:
                failed += 1
                if not op["known_defect"]:
                    problems.append(f"{op['name']}: {op['failure']}")
    return attempted, failed, problems


def determinism(children: list[dict]) -> list[str]:
    """Deterministic counts must repeat exactly across invocations."""
    first = children[0]
    drift = []
    for child in children[1:]:
        for key in ("counts", "work"):
            if child[key] != first[key]:
                drift.append(f"determinism failure: {key} differ between "
                             "invocations")
        if [op["cells"] for op in child["ops"]] != [
                op["cells"] for op in first["ops"]]:
            drift.append("determinism failure: cells differ")
    return sorted(set(drift))


# -- metrics -------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def nearest_rank(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def op_medians(cycles: list[dict]) -> list[float]:
    """Each operation's median nominal time over the run's invocations."""
    names = [op["name"] for op in cycles[0]["ops"]]
    if any([op["name"] for op in c["ops"]] != names for c in cycles):
        raise BenchError("invocations ran different operations")
    return [statistics.median(c["ops"][i]["seconds"] * c["host_factor"]
                              for c in cycles)
            for i in range(len(names))]


def end_to_end(cycles: list[dict], setups: list[dict]) -> dict:
    """End-to-end metrics; times are nominal (see calibrate.py)."""
    wall = sum(op_medians(cycles))
    latencies = [op["seconds"] * c["host_factor"]
                 for c in cycles for op in c["ops"]]
    cells = sum(op["cells"] for op in cycles[0]["ops"])
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(
            s["setup_s"] * s["host_factor"] for s in setups), "s"),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "op_p90_ms": (1000 * nearest_rank(latencies, 0.9), "ms"),
        "valuations_per_s": (_ratio(cells, wall), "1/s"),
        "peak_rss_mb": (statistics.median(
            c["peak_rss_mb"] for c in cycles), "MB"),
    }


def per_layer(plain: dict, traced: dict, pooled: dict) -> dict:
    """Per-layer metrics of one traced invocation (plus two plain ones).

    Times are nominal self times from the traced invocation; counts come
    from the inputs (``work``) and the ``repro.obs`` readers (``counts``).
    """
    lay = traced["layers"]
    sec = {layer: seconds * traced["host_factor"]
           for layer, seconds in lay["self_seconds"].items()}
    calls = lay["calls"]
    entries, tal = lay["entries"], lay["tally"]
    ctr = traced["counts"]["counters"]
    work = traced["work"]
    rule = traced["counts"]["rule_cache"]
    wall, plain_wall, pooled_wall = (
        child["host_factor"] * sum(op["seconds"] for op in child["ops"])
        for child in (traced, plain, pooled))
    docs = (entries.get("spec:load_document", 0)
            + calls.get("analysis.cold", 0) + calls.get("analysis.warm", 0))
    states = ctr.get("product.states_expanded", 0)
    nodes = ctr.get("search.blue_visited", 0) + ctr.get("search.red_visited", 0)
    peer_hits = ctr.get("lint.cache_peer_hits", 0)
    plain_raw = sum(op["seconds"] for op in plain["ops"])
    phase_total = sum(plain["phase_seconds"].values())
    attempted, failed, _ = tally([plain, traced, pooled])

    def ms(layer):
        return 1000 * sec.get(layer, 0.0)

    def us_per(layer, n):
        return _ratio(1e6 * sec.get(layer, 0.0), n)

    return {
        "setup.import_s": (statistics.median(
            [c["import_s"] * c["host_factor"] for c in (plain, pooled)]),
            "s"),
        "setup.inputs_s": (statistics.median(
            [c["inputs_s"] * c["host_factor"] for c in (plain, pooled)]),
            "s"),
        "spec.parse_ms_per_doc": (_ratio(ms("spec"), docs), "ms"),
        "ib.check_ms_per_spec": (_ratio(
            ms("ib"), entries.get("ib:check_composition", 0)), "ms"),
        "analysis.lint_cold_ms_per_peer": (_ratio(
            ms("analysis.cold"), work["lint_cold_peers"]), "ms"),
        "analysis.lint_warm_ms_per_doc": (_ratio(
            ms("analysis.warm"), work["lint_warm_docs"]), "ms"),
        "analysis.cache_peer_hit_ratio": (_ratio(
            peer_hits, peer_hits + ctr.get("lint.cache_peer_misses", 0)),
            "ratio"),
        "analysis.lint_failed": (work["lint_failed"], "count"),
        "domain.valuations": (tal.get("domain.valuations", 0), "count"),
        "domain.valuations_ms": (ms("domain"), "ms"),
        "ltl.automata_built": (ctr.get("translate.automata_built", 0),
                               "count"),
        "ltl.nba_states": (ctr.get("translate.nba_states", 0), "count"),
        "ltl.translate_ms_per_automaton": (_ratio(
            ms("ltl"), calls.get("ltl", 0)), "ms"),
        "step.states_expanded": (states, "count"),
        "step.expand_us_per_state": (us_per("step", calls.get("step", 0)),
                                     "us"),
        "step.reexpansion_ratio": (_ratio(states, work["distinct_states"]),
                                   "ratio"),
        "fo.evaluate_calls": (ctr.get("fo.evaluate_calls", 0), "count"),
        "fo.answers_calls": (ctr.get("fo.answers_calls", 0), "count"),
        "fo.rule_cache_hit_ratio": (_ratio(
            rule["hits"], rule["hits"] + rule["misses"]), "ratio"),
        "graph.distinct_states": (work["distinct_states"], "count"),
        "graph.freeze_ms": (ms("graph.freeze"), "ms"),
        "graph.csr_bytes": (tal.get("graph.csr_bytes", 0), "bytes"),
        "graph.reuse_hits": (ctr.get("graph.reuse_hits", 0), "count"),
        "graph.intern_us": (us_per("graph.intern",
                                   calls.get("graph.intern", 0)), "us"),
        "atoms.letters_computed": (calls.get("atoms", 0), "count"),
        "atoms.letter_us": (us_per("atoms", calls.get("atoms", 0)), "us"),
        "search.runs": (ctr.get("search.runs", 0), "count"),
        "search.product_nodes": (nodes, "count"),
        "search.us_per_product_node": (us_per("search", nodes), "us"),
        "parallel.speedup": (_ratio(plain_wall, pooled_wall), "ratio"),
        "parallel.graph_ship_bytes": (pooled["ship_bytes"], "bytes"),
        "obs.trace_overhead_ratio": (_ratio(wall, plain_wall), "ratio"),
        "obs.other_share": (_ratio(plain_raw - phase_total, plain_raw),
                            "ratio"),
        "obs.unspanned_share": (_ratio(sec.get("op", 0.0), wall), "ratio"),
        "ops.failed_ratio": (_ratio(failed, attempted), "ratio"),
    }


# -- runs ----------------------------------------------------------------


def measure(workload: str, seed: int, seconds: int,
            workdir: Path) -> tuple[list[dict], list[dict], dict, list[str]]:
    begin = time.monotonic()
    cycles: list[dict] = []
    while len(cycles) < MIN_CYCLES or time.monotonic() - begin < seconds:
        if time.monotonic() - begin > LAST_START_S:
            break
        cycles.append(invoke(workload, seed, "cycle", 1, workdir))
    setups = list(cycles)
    while len(setups) < MIN_SETUPS:
        setups.append(invoke(workload, seed, "setup", 1, workdir))
    return cycles, cycles, end_to_end(cycles, setups), []


#: Outside spans beside the ``repro.obs`` phases that time the same work.
CROSS_CHECK = (
    ("spec", ("spec",), ()),
    ("ib", ("ib",), ("ib-check",)),
    ("analysis", ("analysis.cold", "analysis.warm"), ("lint",)),
    ("domain", ("domain",), ("valuations",)),
    ("ltl", ("ltl",), ("translate",)),
    ("step", ("step",), ("expand", "rule-fire", "fo-eval")),
    ("search", ("search", "atoms", "graph.intern", "graph.freeze"),
     ("search",)),
)


def cross_check(traced: dict) -> list[str]:
    """Span self times beside the program's phase table, same operations."""
    spans = traced["layers"]["ops_self_seconds"]
    phases = traced["phase_seconds"]
    wall = sum(op["seconds"] for op in traced["ops"])
    lines = ["cross-check over the traced operations "
             f"(wall {wall:.4f} s): span self s | phase_seconds s"]
    for row, span_names, phase_names in CROSS_CHECK:
        span_s = sum(spans.get(name, 0.0) for name in span_names)
        phase_s = sum(sec for name, sec in phases.items()
                      if name in phase_names
                      or "lint" in phase_names and name.startswith("lint"))
        lines.append(f"  {row:10s} {span_s:10.4f} | {phase_s:10.4f}  "
                     f"{'+'.join(span_names)} | "
                     f"{'+'.join(phase_names) or '-'}")
    lines.append(f"  {'(other)':10s} {spans.get('op', 0.0):10.4f} | "
                 f"{wall - sum(phases.values()):10.4f}")
    return lines


def trace(workload: str, seed: int,
          workdir: Path) -> tuple[list[dict], list[dict], dict, list[str]]:
    plain = invoke(workload, seed, "cycle", 1, workdir)
    traced = invoke(workload, seed, "traced", 1, workdir)
    pooled = invoke(workload, seed, "cycle", usable_cores(), workdir)
    # the pooled invocation runs other code paths: its counts differ, so
    # only its answers are checked
    return ([plain, traced, pooled], [plain, traced],
            per_layer(plain, traced, pooled), cross_check(traced))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workdir = HERE / ".work"
    workdir.mkdir(exist_ok=True)
    try:
        if args.trace:
            checked, compared, metrics, notes = trace(
                args.workload, args.seed, workdir)
        else:
            checked, compared, metrics, notes = measure(
                args.workload, args.seed, args.seconds, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, problems = tally(checked)
    problems += determinism(compared)
    print("# " + json.dumps(stamp(args.workload, args.seed)))
    print(f"# invocations: {len(checked)}, operations: "
          f"{attempted}, failed: {failed} "
          f"(failed_ratio {_ratio(failed, attempted):.6f})")
    factors = [child["host_factor"] for child in checked]
    print(f"# host factor (nominal / measured time, calibrate.py): "
          f"median {statistics.median(factors):.4f}, range "
          f"{min(factors):.4f}-{max(factors):.4f}")
    for line in notes:
        print(f"# {line}")
    for problem in problems:
        print(f"# INCORRECT: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
