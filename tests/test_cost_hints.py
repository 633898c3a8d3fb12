"""Tests for the static cost model."""

from repro.analysis import lint_composition
from repro.analysis.cost import composition_cost, peer_state_bits


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
