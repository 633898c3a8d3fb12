"""The live progress plane: heartbeat records for running sweeps.

Long sweeps (thousands of valuations, remote shards)
are opaque while they run: the trace file is append-only raw material
and the metrics snapshot only exists at exit.  This module gives every
*active* run a small, always-current presence on disk:

``<runs root>/<run_id>/progress.json``
    the latest heartbeat, rewritten atomically (tmp + ``os.replace``)
    so readers never see a torn record;
``<runs root>/<run_id>/heartbeat.jsonl``
    the append-only history of heartbeats, for post-hoc rate plots.

``repro top`` (:mod:`repro.cli`) polls these files and renders a
refreshing terminal view -- from any terminal, with no connection to
the verifying process.  The same records are the obvious payload for
the ROADMAP's ``repro serve`` status endpoint.

Heartbeats are written only when a run-ledger context is active (CLI
entry points open one; library-level ``verify()`` calls in tests do
not), and can be disabled outright with ``REPRO_HEARTBEAT=0``.  The
writer is a null object when disabled, so call sites never branch.

Heartbeat record schema (``repro.heartbeat/1``)::

    {"schema": "repro.heartbeat/1", "run": ..., "kind": "sweep",
     "status": "running" | "done" | <terminal status>, "pid": ...,
     "total": ..., "done": ..., "elapsed": ..., "rate": ...,
     "eta_seconds": ..., "started": <epoch>, "updated": <epoch>,
     "counters": {...}, "info": {...}}

``total``/``done`` count sweep tasks (valuation batches) or fuzz
cases; ``eta_seconds`` extrapolates the observed rate over the
remaining count and is ``None`` until the first completion.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Mapping

from . import ledger

#: Version tag stamped on every heartbeat record.
HEARTBEAT_SCHEMA = "repro.heartbeat/1"

#: Root directory for per-run progress records; defaults to
#: ``<tempdir>/repro-runs`` so `repro top` finds runs with zero setup.
RUN_DIR_ENV = "REPRO_RUN_DIR"

#: Set to ``0`` to suppress heartbeat writing entirely.
HEARTBEAT_ENV = "REPRO_HEARTBEAT"

#: Minimum seconds between on-disk heartbeats (finish always writes).
DEFAULT_INTERVAL = 0.5


def runs_root() -> Path:
    override = os.environ.get(RUN_DIR_ENV, "").strip()
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / "repro-runs"


def run_dir(run_id: str) -> Path:
    return runs_root() / run_id


def heartbeats_enabled() -> bool:
    """Heartbeats are on by default; ``REPRO_HEARTBEAT=0`` disables."""
    return os.environ.get(HEARTBEAT_ENV, "").strip().lower() not in (
        "0", "false", "off", "no",
    )


class NullProgress:
    """The do-nothing stand-in used when heartbeats are off."""

    enabled = False

    def advance(self, n: int = 1, **counters) -> None:
        pass

    def add_counters(self, extra: Mapping) -> None:
        pass

    def set_info(self, **fields) -> None:
        pass

    def tick(self, force: bool = False) -> None:
        pass

    def reset(self) -> None:
        pass

    def finish(self, status: str = "done") -> None:
        pass


class ProgressPlane(NullProgress):
    """Writes rate-limited heartbeats for one run to the runs root.

    Single-writer by design: the driver process owns it and folds in
    task outcomes as they finish, so no cross-process
    coordination is needed beyond the atomic replace.
    """

    enabled = True

    def __init__(self, run_id: str, kind: str, total: int | None,
                 interval: float = DEFAULT_INTERVAL) -> None:
        self.run_id = run_id
        self.kind = kind
        self.total = total
        self.done = 0
        self.counters: dict[str, float] = {}
        self.info: dict = {}
        self.started = time.time()
        self._last_write = 0.0
        self.interval = interval
        self.directory = run_dir(run_id)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.tick(force=True)

    def advance(self, n: int = 1, **counters) -> None:
        """Record *n* finished work items (plus counter deltas)."""
        self.done += n
        for name, value in counters.items():
            if value:
                self.counters[name] = self.counters.get(name, 0) + value
        self.tick()

    def add_counters(self, extra: Mapping) -> None:
        """Fold a flat counter-delta mapping into the view."""
        for name, value in extra.items():
            if value:
                self.counters[name] = self.counters.get(name, 0) + value

    def set_info(self, **fields) -> None:
        """Attach static context (spec path, groups, graph size, ...)."""
        self.info.update(
            {k: v for k, v in fields.items() if v is not None})

    def reset(self) -> None:
        """Start progress over."""
        self.done = 0
        self.counters.clear()
        self.started = time.time()
        self.tick(force=True)

    def _record(self, status: str) -> dict:
        now = time.time()
        elapsed = max(now - self.started, 1e-9)
        rate = self.done / elapsed if self.done else None
        eta = None
        if (status == "running" and rate and self.total is not None
                and self.total > self.done):
            eta = (self.total - self.done) / rate
        return {
            "schema": HEARTBEAT_SCHEMA,
            "run": self.run_id,
            "kind": self.kind,
            "status": status,
            "pid": os.getpid(),
            "total": self.total,
            "done": self.done,
            "elapsed": elapsed,
            "rate": rate,
            "eta_seconds": eta,
            "started": self.started,
            "updated": now,
            "counters": dict(sorted(self.counters.items())),
            "info": self.info,
        }

    def _write(self, record: dict) -> None:
        payload = json.dumps(record, separators=(",", ":"), default=str)
        target = self.directory / "progress.json"
        tmp = self.directory / "progress.json.tmp"
        try:
            tmp.write_text(payload)
            os.replace(tmp, target)
            with open(self.directory / "heartbeat.jsonl", "a") as fh:
                fh.write(payload + "\n")
        except OSError:  # progress is best-effort; never fail the run
            pass
        self._last_write = time.time()

    def tick(self, force: bool = False) -> None:
        """Write a heartbeat if the rate-limit interval has elapsed."""
        if force or time.time() - self._last_write >= self.interval:
            self._write(self._record("running"))

    def finish(self, status: str = "done") -> None:
        """Write the final heartbeat (always, ignoring the interval)."""
        self._write(self._record(status))


#: Shared null instance; factories return it when heartbeats are off.
NULL_PROGRESS = NullProgress()


def _make(kind: str, total: int | None) -> NullProgress:
    run_id = ledger.current_run_id()
    if run_id is None or not heartbeats_enabled():
        return NULL_PROGRESS
    try:
        return ProgressPlane(run_id, kind, total)
    except OSError:  # unwritable runs root: degrade, don't fail
        return NULL_PROGRESS


def sweep_progress(total_tasks: int | None) -> NullProgress:
    """Progress writer for a valuation sweep (driver side)."""
    return _make("sweep", total_tasks)


def campaign_progress(total_cases: int | None) -> NullProgress:
    """Progress writer for a fuzz campaign."""
    return _make("fuzz", total_cases)


# ---------------------------------------------------------------------------
# reader side (`repro top`)


def read_progress(run_id: str) -> dict | None:
    """The latest heartbeat of *run_id*, or ``None``."""
    try:
        return json.loads((run_dir(run_id) / "progress.json").read_text())
    except (OSError, ValueError):
        return None


def list_runs() -> list[dict]:
    """Latest heartbeat of every run under the runs root, newest first."""
    root = runs_root()
    if not root.is_dir():
        return []
    records = []
    for entry in root.iterdir():
        record = read_progress(entry.name)
        if record is not None:
            records.append(record)
    records.sort(key=lambda r: r.get("updated", 0), reverse=True)
    return records


def latest_run() -> str | None:
    """The most recently updated run id, or ``None``."""
    records = list_runs()
    return records[0]["run"] if records else None


def _bar(done: int, total: int | None, width: int = 30) -> str:
    if not total:
        return "-" * width
    filled = min(width, int(width * done / total))
    return "#" * filled + "-" * (width - filled)


def render_progress(record: Mapping) -> str:
    """One heartbeat as the multi-line text block ``repro top`` shows."""
    total = record.get("total")
    done = record.get("done", 0)
    pct = f"{100 * done / total:5.1f}%" if total else "    ?"
    eta = record.get("eta_seconds")
    rate = record.get("rate")
    age = time.time() - record.get("updated", time.time())
    lines = [
        f"run {record.get('run')}  [{record.get('kind')}]  "
        f"{record.get('status')}  pid {record.get('pid')}"
        + (f"  (stale {age:.0f}s)" if age > 5 else ""),
        f"  [{_bar(done, total)}] {pct}  {done}/{total if total else '?'}"
        f"  elapsed {record.get('elapsed', 0):.1f}s"
        + (f"  rate {rate:.1f}/s" if rate else "")
        + (f"  eta {eta:.0f}s" if eta is not None else ""),
    ]
    info = record.get("info") or {}
    if info:
        pairs = "  ".join(f"{k}={v}" for k, v in sorted(info.items()))
        lines.append(f"  {pairs}")
    counters = record.get("counters") or {}
    if counters:
        pairs = "  ".join(f"{k}={v}" for k, v in sorted(counters.items()))
        lines.append(f"  {pairs}")
    return "\n".join(lines)
