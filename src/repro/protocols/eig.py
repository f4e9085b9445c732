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
from itertools import repeat
from typing import Any, NamedTuple

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
        # The roster table holds the roster's own objects; see _roster_table.
        self._table_key = (self.all_ids, self.rounds, tuple(map(id, self.all_ids)))

    # State: (tree, decided) with tree a dict from paths to values.

    def init_state(self, ctx: NodeContext) -> State:
        return ({(): ctx.input}, None)

    def send(
        self, ctx: NodeContext, state: State, round_index: int
    ) -> dict[PortLabel, Message]:
        tree, _decided = state
        if round_index >= self.rounds:
            return {}
        ranks = _roster_table(*self._table_key).ranks[round_index]
        payload = _roster_order(tree, round_index, ranks)
        if payload is None:
            entries = [kv for kv in tree.items() if len(kv[0]) == round_index]
            payload = tuple(
                sorted(entries, key=lambda kv: tuple(map(str, kv[0])))
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
        extend = _roster_table(*self._table_key).relays[round_index]
        me = self.my_id
        own = extend.get(id(me), {})
        # Own relays: "I said that <path>" — known without a message.
        # The level is the tree's trailing block (see _roster_order),
        # read backwards; an interned path needs no length check.
        relays = []
        for path, value in reversed(tree.items()):
            child = own.get(id(path), _FOREIGN)
            if child is _FOREIGN:
                if len(path) != round_index:
                    break
                if me not in path:
                    relays.append((path + (me,), value))
            elif child is not None:
                relays.append((child, value))
        tree = dict(tree)
        tree.update(reversed(relays))
        for sender, payload in inbox.items():
            if payload is not None:
                tree.update(
                    _relays(payload, sender, round_index, extend.get(id(sender)))
                )
        if round_index == self.rounds - 1:
            decided = self._resolve(tree)
        return (tree, decided)

    def choose(self, ctx: NodeContext, state: State) -> Any | None:
        return state[1]

    # -- helpers -----------------------------------------------------------

    def _resolve(self, tree: Mapping[Path, Any]) -> Any:
        """Bottom-up majority resolution (``newval`` in Lynch's book),
        one level at a time from the leaves to the root."""
        table = _roster_table(*self._table_key)
        default = self.default
        values = list(map(tree.get, table.leaves, repeat(default)))
        for spans in table.spans:
            values = [
                _majority(values[start:stop], default) for start, stop in spans
            ]
        return values[0]


def _roster_order(
    tree: Mapping[Path, Any], level: int, ranks: dict[int, int] | None
) -> tuple | None:
    """The level's entries sorted by ``tuple(map(str, path))``, read
    off the roster's precomputed order; ``None`` if that order does
    not apply.

    A device's tree grows by one level per round, appended after the
    levels above it, so the level is the tree's trailing block, read
    here backwards.

    ``ranks`` maps the id of each interned roster path of the level to
    its place in the sorted order, so a path that *is* one of those
    objects sorts exactly as that object does.  Any other path of the
    level — a forged one, or one equal to a roster path but not
    identical, such as ``(True,)`` for ``(1,)`` — may sort elsewhere,
    so the caller falls back to the sort.  ``ranks`` is ``None`` when
    two roster paths share a key: the stable sort then orders them by
    insertion.
    """
    if ranks is None:
        return None
    slots: list = [None] * len(ranks)
    for entry in reversed(tree.items()):
        rank = ranks.get(id(entry[0]))
        if rank is None:
            if len(entry[0]) != level:
                break
            return None
        slots[rank] = entry
    return tuple(filter(None, slots))


#: One slot per ``(sender, level)``: the payload object last expanded
#: for it and that payload's relay items.  See :func:`_relays`.
_RELAY_SLOTS: dict[tuple[Any, int], tuple[Any, tuple]] = {}

#: Marks a path that is not one of the roster table's interned paths.
_FOREIGN = object()


def _relays(
    payload: Any,
    sender: PortLabel,
    level: int,
    extend: Mapping[int, Path | None] | None = None,
) -> tuple:
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
    objects: they miss and are expanded again.

    ``extend`` is the roster table's relay map for ``(level,
    sender)``: the id of each interned level-``level`` path to its
    interned child ``path + (sender,)``, or to ``None`` if the path
    holds ``sender``.  A correct sender's payload carries those
    interned paths, so when every entry is a plain 2-tuple whose path
    *is* one of them, the items are read off the map without
    validation.  That is exact: an interned path is a tuple of
    ``level`` distinct roster ids, so it passes every check of the
    full validation, and its child is the same tuple that validation
    would build.  Any other entry sends the whole payload through the
    full validation.
    """
    if not isinstance(payload, tuple):
        return ()
    key = (sender, level)
    slot = _RELAY_SLOTS.get(key)
    if slot is not None and slot[0] is payload:
        return slot[1]
    items = None
    if extend is not None and type(payload) is tuple:
        items = _interned_relays(payload, extend)
    if items is None:
        items = _expand(payload, sender, level)
    _RELAY_SLOTS[key] = (payload, items)
    return items


def _interned_relays(payload: tuple, extend: Mapping[int, Any]) -> tuple | None:
    items = []
    for entry in payload:
        if type(entry) is not tuple or len(entry) != 2:
            return None
        child = extend.get(id(entry[0]), _FOREIGN)
        if child is _FOREIGN:
            return None
        if child is not None:
            items.append((child, entry[1]))
    return tuple(items)


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


class _RosterTable(NamedTuple):
    """Per-roster EIG tree shape; see :func:`_roster_table`."""

    leaves: tuple[Path, ...]
    spans: tuple[tuple[tuple[int, int], ...], ...]
    ranks: tuple[dict[int, int] | None, ...]
    relays: tuple[dict[int, dict[int, Path | None]], ...]


@lru_cache(maxsize=16)
def _roster_table(
    all_ids: tuple[NodeId, ...], rounds: int, ids: tuple[int, ...]
) -> _RosterTable:
    """The shape of the EIG tree for a roster, shared by every device
    and every run with that roster.  Each path of distinct roster ids
    is built once, and the tables below hold those objects, so the
    ids they are keyed by stay valid for the table's life: an id
    lookup hits only on the very object.  ``ids`` is
    ``tuple(map(id, all_ids))``; it keys the cache on the roster's
    objects, not just their values: a roster of equal but distinct
    objects gets its own table rather than one whose id lookups would
    always miss.  A table used with other objects stays exact, only
    slow.

    - ``leaves``: the paths of length ``rounds``.
    - ``spans``: for each level from the deepest internal one up to
      the root, one ``(start, stop)`` span per path of that level: its
      children, in roster order, are entries ``start:stop`` of the
      level below.
    - ``ranks``: for each sent level, the id of each path to its place
      when the level is sorted by ``tuple(map(str, path))``, or
      ``None`` if two paths share that key.
    - ``relays``: for each sent level, a map from the id of each
      roster member ``q`` to a map from the id of each path to its
      child ``path + (q,)``, or to ``None`` if the path holds ``q``.
    """
    level: list[Path] = [()]
    spans_by_level = []
    ranks = []
    relays = []
    for _ in range(rounds):
        keys = [tuple(map(str, path)) for path in level]
        if len(set(keys)) == len(keys):
            order = sorted(range(len(level)), key=keys.__getitem__)
            ranks.append({id(level[i]): rank for rank, i in enumerate(order)})
        else:
            ranks.append(None)
        by_sender: dict[int, dict[int, Path | None]] = {
            id(q): {} for q in all_ids
        }
        deeper: list[Path] = []
        spans = []
        for path in level:
            start = len(deeper)
            for q in all_ids:
                child = None
                if q not in path:
                    child = path + (q,)
                    deeper.append(child)
                by_sender[id(q)][id(path)] = child
            spans.append((start, len(deeper)))
        spans_by_level.append(tuple(spans))
        relays.append(by_sender)
        level = deeper
    return _RosterTable(
        tuple(level), tuple(reversed(spans_by_level)), tuple(ranks), tuple(relays)
    )


def _majority(values: Sequence[Any], default: Any) -> Any:
    """The value held by more than half of ``values``, else
    ``default``.  ``list.count`` compares by identity, then ``==``, so
    unhashable values from faulty nodes count like any other."""
    for v in values:
        if values.count(v) * 2 > len(values):
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
