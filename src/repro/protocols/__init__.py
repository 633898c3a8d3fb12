"""Conversation protocols (Section 4): data-agnostic and data-aware."""

from .base import (
    AgnosticProtocol, DataAwareProtocol, Observer, guards_from_formula,
    protocol_automaton,
)
from .verify import (
    ProtocolRefutation, trace_of, verify_agnostic, verify_aware,
)

__all__ = [
    "AgnosticProtocol", "DataAwareProtocol", "Observer",
    "ProtocolRefutation", "guards_from_formula", "protocol_automaton",
    "trace_of", "verify_agnostic", "verify_aware",
]
