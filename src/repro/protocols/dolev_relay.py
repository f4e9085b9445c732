"""Reliable point-to-point transmission over vertex-disjoint paths
(after Dolev, "The Byzantine Generals Strike Again").

In a graph of connectivity ``κ >= 2f + 1``, Menger's theorem gives
``2f + 1`` internally vertex-disjoint paths between any two nodes.
Flooding a value down all of them and taking the majority at the
receiver defeats any ``f`` Byzantine intermediaries, because at most
``f`` paths contain a faulty node.  This is the mechanism that makes
the paper's ``2f + 1`` connectivity bound tight: with it, any
complete-graph protocol (e.g. EIG) runs over a sparse-but-adequate
network; the core engines prove ``2f`` connectivity cannot suffice.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

from ..graphs.connectivity import vertex_disjoint_paths
from ..graphs.graph import CommunicationGraph, GraphError, NodeId
from ..runtime.sync.device import Message, NodeContext, PortLabel, State, SyncDevice


class RelayNodeDevice(SyncDevice):
    """One node's role in a single source→target transmission.

    Every node is constructed with the full path set (routing is public
    knowledge).  The source injects its input on every path in round 0;
    intermediaries forward a message only if it arrived from the
    correct predecessor on a path they belong to; the target collects
    one value per path and decides the majority once every path's
    latest possible arrival round has passed.
    """

    def __init__(
        self,
        my_id: NodeId,
        source: NodeId,
        target: NodeId,
        paths: Sequence[Sequence[NodeId]],
        default: Any = 0,
    ) -> None:
        self.my_id = my_id
        self.source = source
        self.target = target
        self.paths = [tuple(p) for p in paths]
        self.default = default
        self.deadline = max(len(p) for p in self.paths) - 1

    # State: (pending_sends, per_path_values, decided)
    # pending_sends: tuple of (next_hop, message) to emit next round.

    def init_state(self, ctx: NodeContext) -> State:
        pending = []
        if self.my_id == self.source:
            for path_id, path in enumerate(self.paths):
                pending.append(
                    (path[1], ("relay", path_id, 1, ctx.input))
                )
        return (tuple(pending), {}, None)

    def send(
        self, ctx: NodeContext, state: State, round_index: int
    ) -> dict[PortLabel, Message]:
        pending, _values, _decided = state
        out: dict[PortLabel, list] = {}
        for next_hop, message in pending:
            out.setdefault(next_hop, []).append(message)
        return {port: tuple(msgs) for port, msgs in out.items()}

    def transition(
        self,
        ctx: NodeContext,
        state: State,
        round_index: int,
        inbox: Mapping[PortLabel, Message],
    ) -> State:
        _pending, values, decided = state
        values = dict(values)
        new_pending = []
        for sender, bundle in sorted(
            inbox.items(), key=lambda kv: str(kv[0])
        ):
            if not isinstance(bundle, tuple):
                continue
            for message in bundle:
                parsed = self._parse(message, sender)
                if parsed is None:
                    continue
                path_id, hop, value = parsed
                path = self.paths[path_id]
                if path[hop] != self.my_id:
                    continue
                if self.my_id == self.target and hop == len(path) - 1:
                    values.setdefault(path_id, value)
                elif hop + 1 < len(path):
                    new_pending.append(
                        (path[hop + 1], ("relay", path_id, hop + 1, value))
                    )
        if (
            self.my_id == self.target
            and decided is None
            and round_index >= self.deadline
        ):
            decided = _majority(
                [values.get(i, None) for i in range(len(self.paths))],
                self.default,
            )
        return (tuple(new_pending), values, decided)

    def choose(self, ctx: NodeContext, state: State) -> Any | None:
        return state[2]

    def _parse(
        self, message: Any, sender: NodeId
    ) -> tuple[int, int, Any] | None:
        if not (
            isinstance(message, tuple)
            and len(message) == 4
            and message[0] == "relay"
        ):
            return None
        _tag, path_id, hop, value = message
        if not isinstance(path_id, int) or not 0 <= path_id < len(self.paths):
            return None
        path = self.paths[path_id]
        if not isinstance(hop, int) or not 1 <= hop < len(path):
            return None
        if path[hop - 1] != sender:
            return None  # not from the legitimate predecessor
        return path_id, hop, value


def _majority(values: Sequence[Any], default: Any) -> Any:
    tally: dict[Any, int] = {}
    for v in values:
        if v is not None:
            tally[v] = tally.get(v, 0) + 1
    if not tally:
        return default
    best = max(tally.values())
    winners = sorted((v for v, c in tally.items() if c == best), key=repr)
    return winners[0] if len(winners) == 1 else default


def relay_devices(
    graph: CommunicationGraph,
    source: NodeId,
    target: NodeId,
    max_faults: int,
    default: Any = 0,
) -> dict[NodeId, RelayNodeDevice]:
    """Relay devices for one transmission; requires ``2f + 1``
    vertex-disjoint paths (i.e. local connectivity ``>= 2f + 1``)."""
    paths = vertex_disjoint_paths(graph, source, target)
    needed = 2 * max_faults + 1
    if len(paths) < needed:
        raise GraphError(
            f"only {len(paths)} vertex-disjoint {source!r}->{target!r} "
            f"paths; need {needed} for f = {max_faults} (and the core "
            "engines prove this is necessary)"
        )
    paths = paths[:needed]
    return {
        u: RelayNodeDevice(u, source, target, paths, default)
        for u in graph.nodes
    }


def transmission_rounds(
    graph: CommunicationGraph, source: NodeId, target: NodeId, max_faults: int
) -> int:
    """Rounds needed for the majority decision at the target."""
    paths = vertex_disjoint_paths(graph, source, target)[: 2 * max_faults + 1]
    return max(len(p) for p in paths) - 1
