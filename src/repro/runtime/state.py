"""Global run states (snapshots) of a composition.

A :class:`GlobalState` captures one snapshot of Definition 2.6: every
peer's configuration (database, state, current input, previous input,
actions, error flags -- all stored in one qualified :class:`Instance`),
the contents of every channel queue, which peer moved to produce the
snapshot, and the channel events of that transition (which channels got a
message enqueued -- the observer-at-recipient events -- and which channels
a send fired into -- the observer-at-source events, Section 4).

States are immutable and hashable, so model checking can keep visited
sets of them.

:func:`snapshot_view` renders a state as the relational structure property
formulas are evaluated over (Section 3): in-queue symbols denote the first
queued message ``f(Q)``, out-queue symbols the last enqueued message
``l(Q)``, plus the ``empty_Q``, ``received_Q`` and ``move_W`` propositions
and, for open compositions, the environment's channel views ``ENV.q``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..errors import SemanticsError
from ..fo.instance import Instance
from ..fo.schema import (
    ENVIRONMENT_NAME, empty_name, move_name, received_name,
)
from ..fo.terms import Value
from ..spec.composition import Composition

#: One message: a set of rows (singleton for flat queues).
Message = frozenset
#: The FIFO contents of one channel, head first.
QueueContents = tuple


@dataclass(frozen=True, slots=True)
class GlobalState:
    """One snapshot of a composition run.

    ``data`` holds all qualified persistent relations (databases, states,
    inputs, previous inputs, actions, error flags).  ``queues`` maps each
    channel name to its FIFO contents (a tuple of messages, head first),
    stored as a sorted tuple of pairs for hashability.  ``mover`` names
    the peer (or ``"ENV"``) whose move produced this snapshot, ``None``
    for an initial snapshot.  ``enqueued``/``sent`` are the channel events
    of the producing transition.
    """

    data: Instance
    queues: tuple
    mover: str | None = None
    enqueued: frozenset = frozenset()
    sent: frozenset = frozenset()
    # Memoized hash: snapshots are hashed millions of times by visited
    # sets, transition caches, and the state interner, and the generated
    # dataclass hash re-walks the queue tuples on every call.
    _hash: int | None = field(default=None, init=False, repr=False,
                              compare=False)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.data, self.queues, self.mover,
                      self.enqueued, self.sent))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> tuple:
        # the memoized hash is process-dependent (seeded string hashing):
        # never pickle it (shard fragments carry pickled counterexamples)
        return (self.data, self.queues, self.mover, self.enqueued,
                self.sent)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(
            ("data", "queues", "mover", "enqueued", "sent"), state
        ):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_hash", None)

    def queue(self, channel: str) -> QueueContents:
        for name, contents in self.queues:
            if name == channel:
                return contents
        raise SemanticsError(f"unknown channel {channel!r}")

    def queue_map(self) -> dict[str, QueueContents]:
        return dict(self.queues)

    def with_queues(self, queue_map: Mapping[str, QueueContents]
                    ) -> "GlobalState":
        return GlobalState(
            data=self.data,
            queues=freeze_queues(queue_map),
            mover=self.mover,
            enqueued=self.enqueued,
            sent=self.sent,
        )

    def total_queued_messages(self) -> int:
        return sum(len(contents) for _n, contents in self.queues)

    def active_domain(self) -> frozenset[Value]:
        """All values in relations or queued messages of this snapshot."""
        dom = set(self.data.active_domain())
        for _name, contents in self.queues:
            for message in contents:
                for row in message:
                    dom.update(row)
        return frozenset(dom)


def freeze_queues(queue_map: Mapping[str, Iterable]) -> tuple:
    """Canonical, hashable form of a channel-name -> contents mapping."""
    return tuple(sorted(
        (name, tuple(contents)) for name, contents in queue_map.items()
    ))


def empty_queues(composition: Composition) -> tuple:
    """All channels empty."""
    return freeze_queues({c.name: () for c in composition.channels})


def first_message(contents: QueueContents) -> frozenset:
    """``f(Q)``: rows of the first message, or empty if the queue is empty."""
    return contents[0] if contents else frozenset()


def last_message(contents: QueueContents) -> frozenset:
    """``l(Q)``: rows of the last enqueued message, or empty."""
    return contents[-1] if contents else frozenset()


def _view_relations(state: GlobalState, composition: Composition
                    ) -> dict[str, frozenset]:
    """The relations :func:`snapshot_view` adds to ``state.data``."""
    extra: dict[str, frozenset] = {}
    queue_map = state.queue_map()
    for channel in composition.channels:
        contents = queue_map[channel.name]
        if channel.receiver is not None:
            base = f"{channel.receiver}.{channel.name}"
            extra[base] = first_message(contents)
            extra[f"{channel.receiver}.{empty_name(channel.name)}"] = (
                frozenset() if contents else frozenset({()})
            )
            extra[f"{channel.receiver}.{received_name(channel.name)}"] = (
                frozenset({()}) if channel.name in state.enqueued
                else frozenset()
            )
        else:
            extra[f"{ENVIRONMENT_NAME}.{channel.name}"] = (
                first_message(contents)
            )
        if channel.sender is not None:
            extra[f"{channel.sender}.{channel.name}"] = (
                last_message(contents)
            )
        else:
            extra[f"{ENVIRONMENT_NAME}.{channel.name}"] = (
                last_message(contents)
            )
    for peer in composition.peers:
        extra[move_name(peer.name)] = (
            frozenset({()}) if state.mover == peer.name else frozenset()
        )
    if not composition.is_closed:
        extra[move_name(ENVIRONMENT_NAME)] = (
            frozenset({()}) if state.mover == ENVIRONMENT_NAME
            else frozenset()
        )
    return extra


def snapshot_view(state: GlobalState, composition: Composition) -> Instance:
    """The relational structure a property/rules see at this snapshot.

    Adds to ``state.data``:

    * ``Receiver.q`` = first message of channel ``q`` (in-queue reading);
    * ``Sender.q``   = last enqueued message of ``q`` (out-queue reading);
    * ``Receiver.empty_q`` / ``Receiver.received_q`` propositions;
    * ``ENV.q`` views of environment channels (first message for channels
      the environment consumes, last message for channels it feeds);
    * ``move_W`` for every peer, and ``move_ENV`` when open.
    """
    return state.data.merged(
        Instance._from_frozen(_view_relations(state, composition))
    )


def view_relation_names(composition: Composition) -> frozenset[str]:
    """Names of the relations :func:`snapshot_view` derives from queues,
    channel events and the mover (the same code builds both)."""
    empty = GlobalState(data=Instance(), queues=empty_queues(composition))
    return frozenset(_view_relations(empty, composition))
