"""A fixed pure-Python reference loop: how fast the host runs right now.

Shared hosts drift: other tenants can make the same verification take
1.7x longer for tens of seconds at a time, in CPU time as much as in
wall time.  Each invocation runs this loop between its operations, for
about one twentieth of their time, and the benchmark rescales the
operations to a host that runs one pass of the loop in exactly
:data:`REFERENCE_S` seconds, so most of the drift cancels.

The loop evaluates a fixed random and/or formula tree of ``__slots__``
nodes over boolean environments -- method calls, recursion, generator
expressions and dict lookups, the interpreter work the verifier's
formula evaluation and state expansion are made of.  It uses nothing
from ``repro``, so no change to the program under test moves it.
"""

from __future__ import annotations

import gc
import math
import random
from time import perf_counter

#: Seconds one pass of the loop takes on the nominal host.
REFERENCE_S = 0.015
#: Share of operation time spent sampling the loop.
SAMPLING_SHARE = 0.05


class _Node:
    __slots__ = ("kind", "kids", "var")

    def __init__(self, kind: int, kids: tuple, var: int) -> None:
        self.kind = kind
        self.kids = kids
        self.var = var

    def holds(self, env: dict) -> bool:
        if self.kind == 0:
            return env[self.var]
        if self.kind == 1:
            return all(kid.holds(env) for kid in self.kids)
        return any(kid.holds(env) for kid in self.kids)


def _tree(rng: random.Random, depth: int) -> _Node:
    if depth == 0:
        return _Node(0, (), rng.randrange(8))
    return _Node(rng.randrange(1, 3),
                 tuple(_tree(rng, depth - 1) for _ in range(3)), -1)


_TREE = _tree(random.Random(20061), 6)
_ENVS = [{i: bool(j * 37 >> i & 1) for i in range(8)} for j in range(256)]


def _loop() -> int:
    return sum(_TREE.holds(env) for env in _ENVS)


class HostSpeed:
    """Reference-loop samples taken between one invocation's operations."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.passes = 0
        _loop()                  # the first pass in an interpreter is slow

    def sample(self, op_seconds: float) -> None:
        """Run the loop for about ``SAMPLING_SHARE`` of *op_seconds*."""
        passes = max(2, math.ceil(op_seconds * SAMPLING_SHARE / REFERENCE_S))
        collecting = gc.isenabled()
        gc.disable()   # a collection of the program's heap is not host speed
        try:
            start = perf_counter()
            for _ in range(passes):
                _loop()
            self.seconds += perf_counter() - start
        finally:
            if collecting:
                gc.enable()
        self.passes += passes

    def factor(self) -> float:
        """Multiply this invocation's times by this to get nominal times."""
        return REFERENCE_S * self.passes / self.seconds
