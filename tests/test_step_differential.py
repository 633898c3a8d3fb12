"""State-by-state differential of the production step path.

:func:`repro.runtime.step.successors` (move tables, one view per state,
memoised move effects and input choices) must return, for every
reachable snapshot, exactly the tuple that the reference relation
:func:`repro.runtime.reference_step.successors` returns -- the same
successors in the same order.  Initial snapshots are compared the same
way.  The grid covers the library domains, a synthetic relay family and
generated specs on every theorem row (unbounded row-3.6 specs are given
a queue bound, since only bounded graphs are finite).
"""

from collections import deque
from dataclasses import replace

import pytest

from repro.fuzz import THEOREM_ROWS, generate
from repro.library import (
    dispatch, ecommerce, loan, payments, synthetic, travel,
)
from repro.runtime import initial_states, reference_step, successors
from repro.spec import DECIDABLE_DEFAULT
from repro.verifier import verification_domain


def assert_same_successors(composition, databases, semantics,
                           env_one_action_per_move=True, limit=20_000):
    """Walk the reachable graph comparing both step relations; returns
    the number of states compared."""
    domain = verification_domain(composition, [], databases,
                                 fresh_count=1).values
    starts = initial_states(composition, databases, domain)
    assert starts == reference_step.initial_states(composition, databases,
                                                   domain)
    seen = set(starts)
    frontier = deque(starts)
    while frontier:
        state = frontier.popleft()
        got = tuple(successors(
            composition, state, domain, semantics,
            env_one_action_per_move=env_one_action_per_move))
        want = tuple(reference_step.successors(
            composition, state, domain, semantics,
            env_one_action_per_move=env_one_action_per_move))
        assert got == want, f"successors diverge at state #{len(seen)}"
        for nxt in got:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
        assert len(seen) <= limit, "graph larger than the test expects"
    return len(seen)


LIBRARY = {
    "ecommerce": (ecommerce.ecommerce_composition,
                  lambda: ecommerce.standard_database("good")),
    "loan": (loan.loan_composition, lambda: loan.standard_database("fair")),
    "payments": (payments.payments_composition, payments.standard_database),
    "dispatch": (dispatch.dispatch_composition, dispatch.standard_database),
    "synthetic-chain": (lambda: synthetic.relay_chain(1),
                        lambda: synthetic.chain_databases(1, 2)),
    "synthetic-ring": (lambda: synthetic.relay_ring(1),
                       lambda: synthetic.chain_databases(1, 2)),
}


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_library_successors_match_reference(name):
    make_composition, make_databases = LIBRARY[name]
    assert assert_same_successors(make_composition(), make_databases(),
                                  DECIDABLE_DEFAULT) > 1


def test_environment_moves_unrestricted_match_reference():
    # open dispatch with every environment action combination per move
    assert assert_same_successors(dispatch.dispatch_composition(),
                                  dispatch.standard_database(),
                                  DECIDABLE_DEFAULT,
                                  env_one_action_per_move=False) > 1


@pytest.mark.slow
def test_travel_successors_match_reference():
    assert assert_same_successors(travel.travel_composition(),
                                  travel.standard_database(),
                                  DECIDABLE_DEFAULT) == 7688


# seeds 1-4 keep every graph below 2,500 states (seed 0 of row 3.6
# reaches 21,627 states at queue bound 1)
FUZZ_CASES = [(seed, row) for row in sorted(THEOREM_ROWS)
              for seed in range(1, 5)]


@pytest.mark.parametrize("seed,row", FUZZ_CASES)
def test_generated_successors_match_reference(seed, row):
    spec = generate(seed, row)
    semantics = spec.semantics
    if semantics.queue_bound is None:
        semantics = replace(semantics, queue_bound=1)
    assert assert_same_successors(spec.composition, spec.databases,
                                  semantics) > 1


def test_production_verify_never_reaches_the_reference(monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("production path reached reference_step")

    for name in ("successors", "peer_successors", "input_choices",
                 "initial_states"):
        monkeypatch.setattr(reference_step, name, forbidden)
    from repro.verifier import verify_all
    comp, dbs = synthetic.relay_chain(1), synthetic.chain_databases(1)
    [result] = verify_all(comp, [synthetic.chain_safety_property(1)], dbs)
    assert result.satisfied and result.stats.system_states > 1
