"""One benchmark invocation in a fresh interpreter, like one ``repro`` run.

Usage (started by run.py, never by hand)::

    python3 perfbench/child.py WORKLOAD SEED MODE WORKERS WORKDIR

MODE is ``setup`` (set up, then exit), ``cycle`` (set up, then run every
operation of the workload once) or ``traced`` (``cycle`` with per-layer
spans).  The last line of standard output is one JSON object.  Times
use ``time.monotonic``, which is system-wide, so the parent can measure
set-up from the moment it launched this interpreter.
"""

import json
import os
import resource
import shutil
import sys
import time

import calibrate

#: Sample the host's speed after at least this much operation time.
SAMPLE_EVERY_S = 1.0


def _numeric_delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()
            if v - before.get(k, 0)}


def main(argv: list[str]) -> int:
    workload_name, seed, mode, workers, workdir = argv
    t_import = time.monotonic()
    import repro.cli  # noqa: F401  (the cold import a user pays)
    import_s = time.monotonic() - t_import

    from repro.obs import counters_snapshot, gauge, phase_counts, \
        phase_seconds
    from repro.runtime.step import rule_cache_info

    t_inputs = time.monotonic()
    import workloads
    tracer = None
    if mode == "traced":
        import layers
        tracer = layers.Tracer()
        tracer.install()
    lint_dir = os.path.join(workdir, f"lint-{os.getpid()}")
    counters_before = counters_snapshot()
    phases_before = phase_counts()
    rule_before = rule_cache_info()
    try:
        workload = workloads.make(workload_name, int(seed), lint_dir)
        ops = workload.setup()
        t_ready = time.monotonic()
        result = {"t_ready": t_ready, "import_s": import_s,
                  "inputs_s": t_ready - t_inputs}
        host = calibrate.HostSpeed()
        host.sample(SAMPLE_EVERY_S)
        if mode == "setup":
            result["host_factor"] = host.factor()
            print(json.dumps(result))
            return 0

        seconds_before = phase_seconds()
        spans_before = dict(tracer.self_seconds) if tracer else {}
        outcomes = []
        ship_bytes = 0
        unsampled = 0.0
        for op in ops:
            segments = counters_snapshot().get("graph.shm_segments", 0)
            start = time.perf_counter()
            if tracer is not None:
                with tracer.span("op"):
                    outcome = workload.run(op, int(workers))
            else:
                outcome = workload.run(op, int(workers))
            outcome.seconds = time.perf_counter() - start
            outcomes.append(outcome)
            unsampled += outcome.seconds
            if unsampled >= SAMPLE_EVERY_S or op is ops[-1]:
                host.sample(unsampled)
                unsampled = 0.0
            if counters_snapshot().get("graph.shm_segments", 0) > segments:
                ship_bytes += int(gauge("graph.shm_bytes").value)
        phase_s = _numeric_delta(phase_seconds(), seconds_before)
        counters = _numeric_delta(counters_snapshot(), counters_before)
        counts = {
            "counters": counters,
            "phases": _numeric_delta(phase_counts(), phases_before),
            "rule_cache": {k: rule_cache_info()[k] - rule_before[k]
                           for k in ("hits", "misses", "evictions")},
        }
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.report()
            result["layers"]["ops_self_seconds"] = _numeric_delta(
                tracer.self_seconds, spans_before)
        ship_bytes += counters.get("graph.shm_bytes_shipped", 0)

        workload.check(outcomes)
        result.update({
            "ops": [{"name": o.op.name, "seconds": o.seconds,
                     "cells": o.cells, "failure": o.failure,
                     "known_defect": o.known_defect}
                    for o in outcomes],
            "host_factor": host.factor(),
            "setup_problems": workload.setup_problems,
            "work": dict(workload.work,
                         distinct_states=sum(
                             workload.graph_sizes(outcomes).values())),
            "counts": counts,
            "phase_seconds": phase_s,
            "ship_bytes": ship_bytes,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(lint_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
