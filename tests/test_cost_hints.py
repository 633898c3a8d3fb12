"""Tests for the static cost model and pool batch planning."""

from repro.analysis import lint_composition
from repro.analysis.cost import composition_cost, peer_state_bits
from repro.verifier.parallel import SweepTask, plan_batches


def grid(groups, ctxs, per_cell):
    tasks = []
    for group in range(groups):
        order = 0
        for ctx in range(ctxs):
            for _ in range(per_cell):
                tasks.append(SweepTask(group=group, order=order, ctx=ctx,
                                       valuation=()))
                order += 1
    return tasks


class TestPlanBatches:
    def test_batches_cover_tasks_in_order(self):
        tasks = grid(2, 2, 7)
        batches = plan_batches(tasks, 3)
        assert [t for b in batches for t in b] == tasks
        for batch in batches:
            assert len({(t.group, t.ctx) for t in batch}) == 1


class TestCostModel:
    def test_peer_bits_grow_with_domain(self):
        from repro.library.loan import loan_composition

        peer = loan_composition().peer("O")
        assert peer_state_bits(peer, 3) < peer_state_bits(peer, 5)

    def test_composition_cost_has_per_peer_entries(self):
        from repro.library.payments import payments_composition

        cost = composition_cost(payments_composition(), 4, 1)
        assert cost["total"] > 0
        assert {"peer.Shop", "peer.PSP", "peer.Bank"} <= set(cost)

    def test_lint_report_carries_cost_hints(self):
        from repro.library.dispatch import dispatch_composition

        report = lint_composition(dispatch_composition())
        assert "cost" in report.passes_run
        assert report.cost_hints["total"] > 0
