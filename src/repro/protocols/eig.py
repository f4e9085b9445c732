"""Exponential Information Gathering (EIG) Byzantine agreement
[PSL 1980 / LSP 1982], the classical matching upper bound for the
paper's ``3f + 1`` node lower bound.

On a complete graph with ``n >= 3f + 1`` nodes, EIG reaches Byzantine
agreement in ``f + 1`` rounds against any ``f`` Byzantine nodes.  Each
node relays everything it has heard every round, building a tree of
claims ``"j_r said that ... j_1's input is v"`` indexed by paths of
distinct node ids; decisions resolve the tree bottom-up by majority.

Unlike the covering-refutation candidates, protocol devices know their
own identity (``my_id``) and the full roster — identities are part of
the problem setup for agreement algorithms, and adequate-graph
protocols are never installed in coverings.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import lru_cache
from typing import Any

from ..graphs.graph import CommunicationGraph, GraphError, NodeId
from ..runtime.sync.device import Message, NodeContext, PortLabel, State, SyncDevice

Path = tuple[Any, ...]


class EIGDevice(SyncDevice):
    """One node's EIG state machine.

    Parameters
    ----------
    my_id:
        This node's identity (must equal its port label at peers).
    all_ids:
        The full roster, in canonical order shared by all nodes.
    max_faults:
        The bound ``f``; the protocol runs ``f + 1`` rounds.
    default:
        Tie-breaking / missing-value default.
    """

    def __init__(
        self,
        my_id: NodeId,
        all_ids: Sequence[NodeId],
        max_faults: int,
        default: Any = 0,
    ) -> None:
        if my_id not in all_ids:
            raise GraphError("my_id must appear in the roster")
        self.my_id = my_id
        self.all_ids = tuple(all_ids)
        self.f = max_faults
        self.default = default
        self.rounds = max_faults + 1

    # State: (tree, decided) with tree a dict from paths to values.

    def init_state(self, ctx: NodeContext) -> State:
        return ({(): ctx.input}, None)

    def _level_entries(self, tree: Mapping[Path, Any], level: int) -> dict:
        return {path: v for path, v in tree.items() if len(path) == level}

    def send(
        self, ctx: NodeContext, state: State, round_index: int
    ) -> dict[PortLabel, Message]:
        tree, _decided = state
        if round_index >= self.rounds:
            return {}
        payload = tuple(
            sorted(
                self._level_entries(tree, round_index).items(),
                key=lambda kv: tuple(map(str, kv[0])),
            )
        )
        return {port: payload for port in ctx.ports}

    def transition(
        self,
        ctx: NodeContext,
        state: State,
        round_index: int,
        inbox: Mapping[PortLabel, Message],
    ) -> State:
        tree, decided = state
        if round_index >= self.rounds:
            return state
        tree = dict(tree)
        # Own relays: "I said that <path>" — known without a message.
        for path, value in self._level_entries(tree, round_index).items():
            if self.my_id not in path:
                tree[path + (self.my_id,)] = value
        for sender, payload in inbox.items():
            if payload is not None:
                tree.update(_relays(payload, sender, round_index))
        if round_index == self.rounds - 1:
            decided = self._resolve(tree)
        return (tree, decided)

    def choose(self, ctx: NodeContext, state: State) -> Any | None:
        return state[1]

    # -- helpers -----------------------------------------------------------

    def _resolve(self, tree: Mapping[Path, Any]) -> Any:
        """Bottom-up majority resolution (``newval`` in Lynch's book),
        one level at a time from the leaves to the root."""
        leaves, levels = _path_table(self.all_ids, self.rounds)
        default = self.default
        values = [tree.get(path, default) for path in leaves]
        for spans in levels:
            try:
                values = [
                    _strict_majority(values[start:stop], default)
                    for start, stop in spans
                ]
            except TypeError:
                # A faulty node's value (e.g. a list) cannot be hashed.
                values = [
                    _equality_majority(values[start:stop], default)
                    for start, stop in spans
                ]
        return values[0]


#: One slot per ``(sender, level)``: the payload object last expanded
#: for it and that payload's relay items.  See :func:`_relays`.
_RELAY_SLOTS: dict[tuple[Any, int], tuple[Any, tuple]] = {}


def _relays(payload: Any, sender: PortLabel, level: int) -> tuple:
    """The tree entries a level-``level`` broadcast from ``sender``
    adds at a receiver: ``(path + (sender,), value)`` for every entry
    whose path omits ``sender``, in payload order.

    A malformed payload yields ``()``: it is garbage from a faulty
    node, and is ignored.  That covers paths with repeated or
    unhashable elements, which could not key the tree.

    A correct sender hands the same payload object to all its
    receivers, so the result is memoized on identity, one slot per
    ``(sender, level)``.  That is sound because payloads are tuples
    (immutable), a hit needs ``slot[0] is payload``, and the slot's
    reference keeps the object alive, so its id is never reused for
    another payload.  Corrupted and equivocating payloads are new
    objects: they miss and are validated in full.
    """
    if not isinstance(payload, tuple):
        return ()
    key = (sender, level)
    slot = _RELAY_SLOTS.get(key)
    if slot is not None and slot[0] is payload:
        return slot[1]
    items = _expand(payload, sender, level)
    _RELAY_SLOTS[key] = (payload, items)
    return items


def _expand(payload: tuple, sender: PortLabel, level: int) -> tuple:
    items = []
    for entry in payload:
        if not (isinstance(entry, tuple) and len(entry) == 2):
            return ()
        path, value = entry
        if not isinstance(path, tuple) or len(path) != level:
            return ()
        try:
            if len(set(path)) != level:
                return ()
        except TypeError:  # an unhashable path element
            return ()
        if sender not in path:
            items.append((tuple(path) + (sender,), value))
    return tuple(items)


@lru_cache(maxsize=16)
def _path_table(
    all_ids: tuple[NodeId, ...], rounds: int
) -> tuple[tuple[Path, ...], tuple[tuple[tuple[int, int], ...], ...]]:
    """The shape of the EIG tree for a roster, shared by every device
    and every run with that roster.

    Returns the leaf paths (length ``rounds``) and, for each level
    from the deepest internal one up to the root, one ``(start,
    stop)`` span per path of that level: its children, in roster
    order, are entries ``start:stop`` of the level below.
    """
    level: list[Path] = [()]
    spans_by_level = []
    for _ in range(rounds):
        deeper: list[Path] = []
        spans = []
        for path in level:
            start = len(deeper)
            deeper.extend(path + (q,) for q in all_ids if q not in path)
            spans.append((start, len(deeper)))
        spans_by_level.append(tuple(spans))
        level = deeper
    return tuple(level), tuple(reversed(spans_by_level))


def _strict_majority(values: Sequence[Any], default: Any) -> Any:
    tally: dict[Any, int] = {}
    for v in values:
        tally[v] = tally.get(v, 0) + 1
    for value, count in tally.items():
        if count * 2 > len(values):
            return value
    return default


def _equality_majority(values: Sequence[Any], default: Any) -> Any:
    """:func:`_strict_majority` for values that may be unhashable: it
    counts by equality and returns the majority's first occurrence, as
    the dict tally would."""
    for v in values:
        if sum(w is v or w == v for w in values) * 2 > len(values):
            return v
    return default


def eig_devices(
    graph: CommunicationGraph, max_faults: int, default: Any = 0
) -> dict[NodeId, EIGDevice]:
    """An EIG device per node of a complete graph."""
    if not graph.is_complete():
        raise GraphError(
            "EIG requires a complete graph; relay over vertex-disjoint "
            "paths (protocols.dolev_relay) extends it to 2f+1-connected "
            "graphs"
        )
    if len(graph) < 3 * max_faults + 1:
        raise GraphError(
            f"EIG requires n >= 3f+1 (= {3 * max_faults + 1}); "
            f"got n = {len(graph)} — and the core engines prove no "
            "protocol can do better"
        )
    roster = tuple(graph.nodes)
    return {
        u: EIGDevice(u, roster, max_faults, default) for u in graph.nodes
    }
