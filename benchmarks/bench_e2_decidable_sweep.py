"""E2: Theorem 3.4's decidable regime -- verification cost sweeps.

Sweeps the three scale axes over the synthetic relay chain:
number of peers, queue bound k, and domain size.  The safety property
holds in every configuration (the theorem's decidable combination:
input-bounded specs, bounded queues, lossy channels); the interesting
output is how wall time / state count grows.
"""

import pytest

from repro.library.synthetic import (
    chain_databases, chain_safety_property, relay_chain,
)
from repro.spec import ChannelSemantics
from repro.verifier import VerificationDomain, verification_domain, verify

from harness import record


@pytest.mark.parametrize("n_relays", [0, 1, 2, 3])
def test_sweep_peers(benchmark, n_relays):
    composition = relay_chain(n_relays)
    databases = chain_databases(n_relays)

    def run():
        return verify(composition, chain_safety_property(n_relays),
                      databases)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    record("E2", f"peers sweep: {n_relays + 2} peers", result, True)


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_sweep_queue_bound(benchmark, bound):
    composition = relay_chain(1)
    databases = chain_databases(1)
    semantics = ChannelSemantics(lossy=True, queue_bound=bound)

    def run():
        return verify(composition, chain_safety_property(1), databases,
                      semantics=semantics)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    record("E2", f"queue-bound sweep: k={bound}", result, True)


@pytest.mark.parametrize("fresh", [1, 2, 3, 4])
def test_sweep_domain_size(benchmark, fresh):
    composition = relay_chain(1)
    databases = chain_databases(1)
    domain = verification_domain(composition, [], databases,
                                 fresh_count=fresh)

    def run():
        return verify(composition, chain_safety_property(1), databases,
                      domain=domain)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    record("E2", f"domain sweep: {len(domain.values)} values",
           result, True)
