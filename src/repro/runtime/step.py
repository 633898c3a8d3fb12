"""The legal-successor relation (Definitions 2.3, 2.4 and 2.6).

One peer moves per step (serialized runs).  A move of peer ``W``:

1. evaluates all of ``W``'s rules on the current snapshot (database, state,
   current input, previous input, first messages of in-queues);
2. computes the new state (insert/delete semantics with no-op conflict
   resolution), actions, and previous inputs;
3. fires the send rules: nested sends collect all answers into one
   message; flat sends with several candidates either pick one
   nondeterministically or raise the ``error_Q`` flag (Theorem 3.8),
   depending on the :class:`~repro.spec.channels.ChannelSemantics`;
4. dequeues the first message of every in-queue *mentioned* in ``W``'s
   rules, then delivers sent messages: lossy channels may drop any sent
   message nondeterministically, and messages arriving at a full
   (k-bounded) queue are dropped;
5. finally, ``W``'s next user input is chosen nondeterministically among
   the options its input rules generate *in the successor configuration*
   (Definition 2.3 constrains the input of every configuration).

All nondeterminism (flat-send picks, losses, input choices) is enumerated,
so :func:`successors` returns every legal successor snapshot.

A peer's rules read only its own schema and its in-queue heads, so steps
1-3 depend only on the peer's local projection of the snapshot.  The
production path exploits that: each peer's rules are resolved once into
a move table (:class:`~repro.spec.composition.PeerMoves`), the snapshot
view is built once per state and shared by every peer move, and the
*move effect* (steps 1-3, plus the loss/delivery branches of the
messages sent) and the input choices are memoised on the extensions of
the relations they read.  Only the queue mechanics and the assembly of
successor snapshots run per move.  :mod:`repro.runtime.reference_step`
keeps the straightforward version as a test oracle.
"""

from __future__ import annotations

import itertools
import os
from collections import OrderedDict
from typing import Mapping, Sequence

from ..errors import SpecificationError
from ..fo.evaluator import answers
from ..fo.instance import FALSE_ROWS, TRUE_ROWS, Instance, Rows
from ..obs import PHASE_RULE_FIRE, counter, phase
from ..fo.terms import Value, value_sort_key
from ..spec.channels import (
    ChannelSemantics, FlatSendDiscipline, NestedEmptySend,
)
from ..spec.composition import Channel, Composition, PeerMoves
from ..spec.peer import Peer
from ..spec.rules import Rule
from .state import (
    GlobalState, empty_queues, snapshot_view, view_relation_names,
)

Domain = Sequence[Value]


def _row_key(row: tuple) -> tuple:
    """Deterministic sort key for rows with mixed str/int values."""
    return tuple(value_sort_key(v) for v in row)


class _RuleCache:
    """Process-local, bounded (LRU) memo of rule answers and move effects.

    A rule body's answers depend only on the extensions of the relations
    it mentions and the quantification domain, both of which repeat
    heavily across snapshots during model checking.  The same holds one
    level up for a whole peer move: its effect (:func:`_move_effect`)
    depends only on the relations the peer's rules read plus its own
    state and input relations, and its input choices only on what its
    input rules read.  All three kinds of entry share one LRU store.

    The cache is keyed by the owning process id so that child processes
    created by ``fork`` never serve (or mutate) entries inherited from
    the parent: the first access in a new process starts from an empty,
    private cache.  Entries are evicted least-recently-used once
    ``maxsize`` is reached, bounding memory in long-running services.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._pid = os.getpid()
        self._entries: OrderedDict = OrderedDict()
        # rules and move tables are interned by identity: a composition
        # hands out the same objects for every snapshot, and hashing a
        # Rule walks its whole body formula -- far too expensive per
        # lookup.  The object is kept in the value so its id cannot be
        # recycled while entries keyed on it may exist.
        self._relevant: dict[int, tuple[Rule, tuple[str, ...]]] = {}
        self._tables: dict[int, tuple[PeerMoves, bool]] = {}
        # relation extensions, domains and channel semantics are interned
        # by value into dense ids, so memo keys are flat int tuples
        # instead of nested frozenset tuples (cheap to hash and compare
        # on every lookup).
        self._extension_ids: dict = {}
        self._domain_ids: dict = {}
        self._semantics_ids: dict = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _check_owner(self) -> None:
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self.clear()

    def clear(self) -> None:
        self._entries.clear()
        self._relevant.clear()
        self._tables.clear()
        self._extension_ids.clear()
        self._domain_ids.clear()
        self._semantics_ids.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def relevant_relations(self, rule: Rule) -> tuple[str, ...]:
        entry = self._relevant.get(id(rule))
        if entry is None:
            from ..fo.formulas import relations
            entry = (rule, tuple(sorted(relations(rule.body))))
            self._relevant[id(rule)] = entry
        return entry[1]

    def table(self, composition: Composition, peer: str
              ) -> tuple[PeerMoves, bool]:
        """The peer's move table, and whether its input rules read a
        relation :func:`snapshot_view` derives (then input choices need
        the successor's view, not just its data)."""
        self._check_owner()
        moves = composition.moves(peer)
        entry = self._tables.get(id(moves))
        if entry is None:
            derived = view_relation_names(composition)
            entry = (moves, not derived.isdisjoint(moves.input_reads))
            self._tables[id(moves)] = entry
        return entry

    def _intern(self, table: dict, obj) -> int:
        interned = table.get(obj)
        if interned is None:
            interned = len(table)
            table[obj] = interned
        return interned

    def _key(self, head: tuple, source: Instance, domain: Domain,
             relevant: tuple[str, ...]) -> tuple:
        ext_ids = self._extension_ids
        key = [*head, self._intern(self._domain_ids, tuple(domain))]
        for rel in relevant:
            extension = source[rel]
            ext_id = ext_ids.get(extension)
            if ext_id is None:
                ext_id = ext_ids[extension] = len(ext_ids)
            key.append(ext_id)
        return tuple(key)

    def _store(self, key: tuple, value) -> None:
        self._entries[key] = value
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1

    def answers_for(self, rule: Rule, view: Instance, domain: Domain
                    ) -> Rows:
        self._check_owner()
        key = self._key((id(rule),), view, domain,
                        self.relevant_relations(rule))
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return cached
        self.misses += 1
        with phase(PHASE_RULE_FIRE):
            result = answers(rule.body, rule.head, view, domain)
        self._store(key, result)
        return result

    def move_effect(self, moves: PeerMoves, view: Instance,
                    domain: Domain, semantics: ChannelSemantics) -> tuple:
        """:func:`_move_effect`, memoised on the peer's local projection
        of *view* (``moves.reads``), the domain and the semantics."""
        head = ("move", id(moves),
                self._intern(self._semantics_ids, semantics))
        key = self._key(head, view, domain, moves.reads)
        cached = self._entries.get(key)
        if cached is not None:
            counter("step.move_effects_reused").inc()
            self._entries.move_to_end(key)
            return cached
        counter("step.move_effects_computed").inc()
        effect = _move_effect(moves, view, domain, semantics)
        self._store(key, effect)
        return effect

    def input_options(self, moves: PeerMoves, source: Instance,
                      domain: Domain) -> tuple[Instance, ...]:
        """:func:`_input_options`, memoised on what the input rules read
        in *source* (the successor's view, or its data when the input
        rules read no derived relation)."""
        key = self._key(("input", id(moves)), source, domain,
                        moves.input_reads)
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            return cached
        options = _input_options(moves, source, domain)
        self._store(key, options)
        return options

    def info(self) -> dict:
        return {
            "size": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: Entry bound of the rule-firing and move-effect memo.
RULE_CACHE_SIZE = 100_000

_RULE_CACHE = _RuleCache(RULE_CACHE_SIZE)


def clear_rule_cache() -> None:
    """Drop the rule-firing and move-effect memo (tests / long-running
    processes)."""
    _RULE_CACHE.clear()


def rule_cache_info() -> dict:
    """Size/hit/miss/eviction counters of this process's rule cache."""
    return _RULE_CACHE.info()


#: The monotonically increasing counters of :func:`rule_cache_info`
#: (``size``/``maxsize`` are levels, not counters, and are excluded
#: from deltas).
RULE_CACHE_COUNTER_KEYS = ("hits", "misses", "evictions")


def rule_cache_delta(before: Mapping[str, int]) -> dict[str, int]:
    """Positive counter movement of the rule cache since *before*.

    ``before`` is a prior :func:`rule_cache_info` snapshot.  Used to
    attribute cache activity to one verification call or sweep cell;
    a cache clear in between yields partial (never negative) numbers.
    """
    info = _RULE_CACHE.info()
    out: dict[str, int] = {}
    for key in RULE_CACHE_COUNTER_KEYS:
        delta = info[key] - before.get(key, 0)
        if delta > 0:
            out[key] = delta
    return out


def _rule_answers(rule: Rule | None, view: Instance, domain: Domain
                  ) -> Rows:
    if rule is None:
        return frozenset()
    return _RULE_CACHE.answers_for(rule, view, domain)


def _input_options(moves: PeerMoves, source: Instance, domain: Domain
                   ) -> tuple[Instance, ...]:
    """The peer's legal input assignments (see :func:`input_choices`),
    with options read from *source*."""
    per_input: list[list[tuple[str, Rows]]] = []
    for name, _prev, arity, rule in moves.inputs:
        options = _rule_answers(rule, source, domain)
        choices: list[tuple[str, Rows]] = [(name, FALSE_ROWS)]
        if arity == 0:
            # propositional: may be True only if the option rule holds
            # (an omitted rule means the option is never available)
            if options:
                choices.append((name, TRUE_ROWS))
        else:
            choices.extend(
                (name, frozenset({row}))
                for row in sorted(options, key=_row_key)
            )
        per_input.append(choices)
    return tuple(Instance._from_frozen(dict(combo))
                 for combo in itertools.product(*per_input))


def _choices_for(composition: Composition, moves: PeerMoves,
                 needs_view: bool, state: GlobalState, domain: Domain
                 ) -> tuple[Instance, ...]:
    source = snapshot_view(state, composition) if needs_view else state.data
    return _RULE_CACHE.input_options(moves, source, domain)


def input_choices(composition: Composition, state: GlobalState,
                  peer: Peer, domain: Domain
                  ) -> list[dict[str, Rows]]:
    """All legal input assignments for *peer* in snapshot *state*.

    Each assignment maps the peer's qualified input-relation names to at
    most one tuple (Definition 2.3: the user picks at most one option;
    propositional inputs may be set only when their option rule holds).
    """
    moves, needs_view = _RULE_CACHE.table(composition, peer.name)
    return [dict(choice.items()) for choice in
            _choices_for(composition, moves, needs_view, state, domain)]


def initial_states(composition: Composition,
                   databases: Mapping[str, Instance],
                   domain: Domain) -> list[GlobalState]:
    """All legal initial snapshots over the given per-peer databases.

    State, action, previous-input relations and queues start empty
    (Definition 2.6); each peer's initial input is any legal choice
    against its options in the initial configuration.
    """
    data_parts: dict[str, Rows] = {}
    for peer in composition.peers:
        db = databases.get(peer.name, Instance())
        declared = {s.name for s in peer.database}
        unknown = set(db.relations()) - declared
        if unknown:
            raise SpecificationError(
                f"database for peer {peer.name!r} mentions undeclared "
                f"relations {sorted(unknown)}"
            )
        for sym in peer.database:
            data_parts[f"{peer.name}.{sym.name}"] = db[sym.name]
    core = GlobalState(
        data=Instance(data_parts),
        queues=empty_queues(composition),
        mover=None,
    )
    # choose initial inputs peer by peer (options depend only on the
    # database in the empty initial configuration, so order is irrelevant)
    states = [core]
    for peer in composition.peers:
        moves, needs_view = _RULE_CACHE.table(composition, peer.name)
        states = [
            GlobalState(data=st.data.merged(choice), queues=st.queues,
                        mover=None)
            for st in states
            for choice in _choices_for(composition, moves, needs_view,
                                       st, domain)
        ]
    return states


def _resolve_flat_sends(
    candidates: Rows, semantics: ChannelSemantics
) -> list[tuple[frozenset | None, bool]]:
    """Outcomes of a flat send: (message rows or None, error-flag)."""
    if not candidates:
        return [(None, False)]
    if len(candidates) == 1:
        (row,) = candidates
        return [(frozenset({row}), False)]
    if semantics.flat_send is FlatSendDiscipline.DETERMINISTIC_ERROR:
        return [(None, True)]
    return [
        (frozenset({row}), False)
        for row in sorted(candidates, key=_row_key)
    ]


def _delivery_branches(
    messages: list[tuple[Channel, frozenset]],
    semantics: ChannelSemantics,
) -> tuple[tuple[tuple[str, frozenset], ...], ...]:
    """All loss/delivery combinations for the messages sent this step.

    Each branch lists the ``(channel name, message)`` pairs delivered;
    lossy channels may drop, perfect channels always deliver.
    """
    per_message = []
    for channel, message in messages:
        lossy = (
            semantics.nested_is_lossy() if channel.nested
            else semantics.flat_is_lossy()
        )
        sent = (channel.name, message)
        per_message.append((sent, None) if lossy else (sent,))
    return tuple(
        tuple(sent for sent in combo if sent is not None)
        for combo in itertools.product(*per_message)
    )


def _move_effect(moves: PeerMoves, view: Instance, domain: Domain,
                 semantics: ChannelSemantics) -> tuple:
    """Steps 1-3 of a move, plus the delivery branches of its messages.

    One ``(changed relations, sent channels, delivery branches)`` entry
    per combination of flat-send outcomes, in enumeration order.
    """
    updates: dict[str, Rows] = {}

    # state relations: insert/delete with no-op conflict semantics
    for name, insert, delete in moves.states:
        ins = _rule_answers(insert, view, domain)
        dele = _rule_answers(delete, view, domain)
        old = view[name]
        updates[name] = frozenset(
            (ins - dele) | (old & ins & dele) | (old - ins - dele)
        )

    # actions are recomputed on every move
    for name, rule in moves.actions:
        updates[name] = _rule_answers(rule, view, domain)

    # previous inputs: replaced by the current input when non-empty
    for name, prev, _arity, _rule in moves.inputs:
        current = view[name]
        if current:
            updates[prev] = current

    # send rules
    flat_outcomes: list[list[tuple]] = []
    nested_messages: list[tuple[Channel, frozenset]] = []
    for channel, rule, error in moves.sends:
        produced = _rule_answers(rule, view, domain)
        if error is None:
            if produced or (
                rule is not None
                and semantics.nested_empty_send is NestedEmptySend.ENQUEUE
            ):
                nested_messages.append((channel, frozenset(produced)))
        else:
            flat_outcomes.append([
                (channel, error, message, raised)
                for message, raised in _resolve_flat_sends(produced,
                                                           semantics)
            ])

    effect = []
    for flat_combo in itertools.product(*flat_outcomes):
        changed = dict(updates)
        messages: list[tuple[Channel, frozenset]] = []
        for channel, error, message, raised in flat_combo:
            changed[error] = TRUE_ROWS if raised else FALSE_ROWS
            if message is not None:
                messages.append((channel, message))
        messages.extend(nested_messages)
        messages.sort(key=lambda cm: cm[0].name)
        effect.append((
            Instance._from_frozen(changed),
            frozenset(channel.name for channel, _m in messages),
            _delivery_branches(messages, semantics),
        ))
    return tuple(effect)


def _peer_moves(composition: Composition, state: GlobalState,
                view: Instance, moves: PeerMoves, needs_view: bool,
                domain: Domain, semantics: ChannelSemantics
                ) -> list[GlobalState]:
    """All successors of *state* (whose view is *view*) when the peer of
    *moves* moves."""
    effect = _RULE_CACHE.move_effect(moves, view, domain, semantics)

    # queue mechanics: dequeue consumed in-queues first
    base_queues = state.queue_map()
    for name in moves.consumed:
        contents = base_queues[name]
        if contents:
            base_queues[name] = contents[1:]

    mover = moves.peer
    bound = semantics.queue_bound
    successors: list[GlobalState] = []
    for changed, sent, branches in effect:
        data0 = state.data.merged(changed)
        if not needs_view:
            # the same successor data for every delivery branch
            datas = [data0.merged(choice) for choice in
                     _RULE_CACHE.input_options(moves, data0, domain)]
        for branch in branches:
            queues = dict(base_queues)
            enqueued: set[str] = set()
            for name, message in branch:
                contents = queues[name]
                if bound is not None and len(contents) >= bound:
                    continue  # full queue: message dropped
                queues[name] = contents + (message,)
                enqueued.add(name)
            # base_queues kept the canonical (sorted) channel order
            frozen = tuple(queues.items())
            events = frozenset(enqueued)
            # the successor's input is chosen against the successor's
            # own options (Definition 2.3)
            if needs_view:
                candidate = GlobalState(data0, frozen, mover, events, sent)
                datas = [data0.merged(choice) for choice in
                         _RULE_CACHE.input_options(
                             moves, snapshot_view(candidate, composition),
                             domain)]
            for data in datas:
                successors.append(
                    GlobalState(data, frozen, mover, events, sent))
    return successors


def peer_successors(composition: Composition, state: GlobalState,
                    mover: str, domain: Domain,
                    semantics: ChannelSemantics) -> list[GlobalState]:
    """All legal successors of *state* when peer *mover* moves."""
    moves, needs_view = _RULE_CACHE.table(composition, mover)
    return _peer_moves(composition, state,
                       snapshot_view(state, composition), moves,
                       needs_view, domain, semantics)


def successors(composition: Composition, state: GlobalState,
               domain: Domain, semantics: ChannelSemantics,
               env_one_action_per_move: bool = False,
               env_value_domain: Domain | None = None) -> list[GlobalState]:
    """All legal successors of *state* (any peer may move).

    The snapshot view is built once and shared by every peer move.  For
    open compositions, environment moves are included; the ``env_*``
    knobs bound the environment's nondeterminism (see
    :func:`~repro.runtime.environment.environment_successors`).
    """
    view = snapshot_view(state, composition)
    out: list[GlobalState] = []
    for peer in composition.peers:
        moves, needs_view = _RULE_CACHE.table(composition, peer.name)
        out.extend(_peer_moves(composition, state, view, moves,
                               needs_view, domain, semantics))
    if not composition.is_closed:
        from .environment import environment_successors
        out.extend(
            environment_successors(
                composition, state, domain, semantics,
                one_action_per_move=env_one_action_per_move,
                value_domain=env_value_domain,
            )
        )
    return out
