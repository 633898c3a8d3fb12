"""Structured trace events as JSONL: span begin/end plus instants.

Event schema (one JSON object per line; ``repro.trace/2``):

``ts``
    seconds on the shared monotonic clock (comparable across the
    processes of one machine on Linux);
``pid`` / ``tid``
    emitting process and thread;
``ph``
    ``"B"`` (span begin), ``"E"`` (span end), or ``"I"`` (instant);
``name``
    the span/instant name (phase names for pipeline spans);
``args``
    optional JSON object of extra fields (instants only);
``run`` / ``worker`` / ``shard``
    the run-ledger stamp (:mod:`repro.obs.ledger`): the run id this
    event belongs to, the worker index (when the run context names
    one), and the ``i/N`` shard
    selector.  Present whenever a run context is active; these fields
    are what lets ``repro trace convert`` stitch JSONL files from many
    processes -- and many machines -- into one causally-ordered trace.

The first event a process writes into the sink is a ``stream-start``
instant whose ``args`` carry the schema tag and a ``wall`` epoch
timestamp.  That pairing of (monotonic ``ts``, epoch ``wall``) is the
stream's clock anchor: exporters compute ``wall - ts`` per pid and can
then place events from different files -- whose monotonic clocks are
not comparable across machines -- on one shared wall-clock axis.

Within one ``(pid, tid)`` stream, ``B``/``E`` events are properly
nested and balanced -- spans are emitted by :class:`repro.obs.phases.
phase`, a context manager.  Across processes the file is append-only
and **unbuffered**: every event is one ``write()`` of a full line on an
``O_APPEND`` handle opened with ``buffering=0``, so concurrent writers
never interleave mid-line and a fork can never capture half a line in
a userspace buffer.

Disabled (the default) means one module-global boolean check per
candidate event -- no clock reads, no allocation.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Mapping

#: Version tag stamped on every stream's opening instant event.
SCHEMA = "repro.trace/2"

_ENABLED = False
_PATH: str | None = None
_FILE = None
_LOCK = threading.Lock()
#: Run-ledger fields merged into every event (``run``/``worker``/...).
_STAMP: dict = {}
#: The pid that has written its ``stream-start`` anchor to the sink.
_ANCHORED_PID: int | None = None


def configure_tracing(path: str | None) -> None:
    """Start tracing to a fresh file at *path*, or stop with ``None``."""
    global _ENABLED, _PATH, _FILE, _ANCHORED_PID
    with _LOCK:
        if _FILE is not None:
            _FILE.close()
            _FILE = None
        _PATH = path
        _ENABLED = path is not None
        _ANCHORED_PID = None
        if path is not None:
            open(path, "w").close()
    if path is not None:
        instant("stream-start", schema=SCHEMA, wall=time.time())


def tracing_enabled() -> bool:
    return _ENABLED


def trace_path() -> str | None:
    return _PATH


def set_stamp(fields: Mapping | None) -> None:
    """Install the run-ledger stamp merged into every subsequent event.

    Called by :mod:`repro.obs.ledger` when a run context begins or
    ends; pass ``None`` (or ``{}``) to clear.  Keys land at the top
    level of each event (``run``, ``worker``, ``shard``).
    """
    global _STAMP
    _STAMP = dict(fields) if fields else {}


def stamp() -> dict:
    """A copy of the current run-ledger stamp."""
    return dict(_STAMP)


def _encode(event: dict) -> bytes:
    return (json.dumps(event, separators=(",", ":"), default=str)
            + "\n").encode("utf-8")


def _write(event: dict) -> None:
    global _FILE, _ANCHORED_PID
    if _STAMP:
        event = {**event, **_STAMP}
    with _LOCK:
        if _FILE is None:
            if _PATH is None:
                return
            # O_APPEND + buffering=0: every line is a single atomic
            # write syscall landing at end-of-file, even with several
            # processes sharing one sink.
            _FILE = open(_PATH, "ab", buffering=0)
        pid = event["pid"]
        if pid != _ANCHORED_PID:
            _ANCHORED_PID = pid
            if event.get("name") != "stream-start":
                anchor = {
                    "ts": event["ts"], "pid": pid, "tid": event["tid"],
                    "ph": "I", "name": "stream-start",
                    "args": {"schema": SCHEMA, "wall": time.time()},
                }
                if _STAMP:
                    anchor = {**anchor, **_STAMP}
                _FILE.write(_encode(anchor))
        _FILE.write(_encode(event))


def emit_span(ph: str, name: str) -> None:
    if not _ENABLED:
        return
    _write({
        "ts": time.monotonic(),
        "pid": os.getpid(),
        "tid": threading.get_ident(),
        "ph": ph,
        "name": name,
    })


def instant(name: str, **args) -> None:
    """Emit an instant event with optional JSON-able payload fields."""
    if not _ENABLED:
        return
    event = {
        "ts": time.monotonic(),
        "pid": os.getpid(),
        "tid": threading.get_ident(),
        "ph": "I",
        "name": name,
    }
    if args:
        event["args"] = args
    _write(event)
