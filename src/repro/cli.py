"""Command-line interface: run the paper's experiments from a shell.

Examples
--------
::

    python -m repro classify --graph triangle --faults 1
    python -m repro refute byzantine --graph triangle --faults 1
    python -m repro refute connectivity --graph diamond --faults 1
    python -m repro refute weak --delta 1.0
    python -m repro refute firing --delta 1.0
    python -m repro refute eps-delta --epsilon 0.25 --delta-input 1.0
    python -m repro refute clock --alpha 0.1
    python -m repro sweep nodes --faults 1 2
    python -m repro sweep connectivity --faults 1
    python -m repro demo eig --graph complete:7 --faults 2
    python -m repro demo sparse --graph circulant:7:1,2 --faults 1
    python -m repro campaign --protocol naive --graph complete:4 --links 2
    python -m repro campaign --protocol eig --graph complete:4 --faults 1
    python -m repro --seed 7 campaign --protocol naive --frontier
    python -m repro campaign --protocol naive --graph complete:4 --jobs 4
    python -m repro sweep nodes --faults 1 2 --jobs 4
    python -m repro campaign --protocol naive --trace out.jsonl --metrics
    python -m repro profile summary out.jsonl
    python -m repro profile events out.jsonl --kind round_end
    python -m repro campaign --protocol eig --checkpoint ckpt/
    python -m repro sweep nodes --faults 1 2 --checkpoint ckpt/
    python -m repro resume ckpt/

Graph specs: ``triangle``, ``diamond``, ``complete:N``, ``ring:N``,
``wheel:N``, ``star:N``, ``circulant:N:o1,o2,...``.

The global ``--seed`` (before the subcommand) drives every randomized
run — fault campaigns and the ``demo`` liars alike — so any run is
reproducible from the command line.  ``--jobs N`` on ``campaign`` /
``sweep`` fans the independent work units across worker processes;
results (and ``--json`` files) are identical to serial runs.

Observability: ``--trace FILE`` on ``campaign`` / ``sweep``
records a JSONL telemetry trace of the run (byte-identical for any
``--jobs`` value), ``--metrics`` prints the run summary, and ``repro
profile {summary,events,metrics} FILE`` inspects a recorded trace.

Checkpointing: ``--checkpoint DIR`` on ``campaign`` / ``sweep``
journals every completed attempt, frontier level, or sweep point to a
crash-safe run store; ``repro resume DIR`` re-runs the saved command,
skipping journaled items — output (including ``--json`` files and
``--trace`` traces) is byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from . import obs
from .analysis import SWEEP_HEADERS, connectivity_sweep, format_table, node_bound_sweep
from .core import (
    SynchronizationSetting,
    refute_connectivity,
    refute_epsilon_delta,
    refute_firing_squad,
    refute_node_bound,
    refute_weak_agreement,
    refute_clock_sync,
)
from .graphs import (
    CommunicationGraph,
    GraphError,
    circulant,
    classify,
    complete_graph,
    diamond,
    required_connectivity,
    required_nodes,
    ring,
    star,
    triangle,
    wheel,
)
from .problems import ByzantineAgreementSpec
from .protocols import (
    ExchangeOnceWeakDevice,
    LowerEnvelopeClockDevice,
    MajorityVoteDevice,
    MedianDevice,
    RelayFireDevice,
    eig_devices,
    sparse_agreement_devices,
)
from .runtime.sync import RandomLiarDevice
from .runtime.sync import make_system, run
from .runtime.timed import LinearClock


def parse_graph(spec: str) -> CommunicationGraph:
    """Parse a graph spec like ``triangle`` or ``circulant:7:1,2``."""
    parts = spec.split(":")
    name = parts[0]
    try:
        if name == "triangle":
            return triangle()
        if name == "diamond":
            return diamond()
        if name == "complete":
            return complete_graph(int(parts[1]))
        if name == "ring":
            return ring(int(parts[1]))
        if name == "wheel":
            return wheel(int(parts[1]))
        if name == "star":
            return star(int(parts[1]))
        if name == "circulant":
            offsets = [int(o) for o in parts[2].split(",")]
            return circulant(int(parts[1]), offsets)
    except (IndexError, ValueError) as exc:
        raise GraphError(f"malformed graph spec {spec!r}: {exc}") from exc
    raise GraphError(f"unknown graph family {name!r}")


def _cmd_classify(args) -> int:
    graph = parse_graph(args.graph)
    print(classify(graph, args.faults).describe())
    return 0


def _cmd_refute(args) -> int:
    if args.problem == "byzantine":
        graph = parse_graph(args.graph)
        devices = {u: MajorityVoteDevice() for u in graph.nodes}
        witness = refute_node_bound(graph, devices, args.faults, args.rounds)
    elif args.problem == "connectivity":
        graph = parse_graph(args.graph)
        devices = {u: MajorityVoteDevice() for u in graph.nodes}
        witness = refute_connectivity(graph, devices, args.faults, args.rounds)
    elif args.problem == "weak":
        factories = {
            u: (lambda: ExchangeOnceWeakDevice(decide_at=2 * args.delta))
            for u in triangle().nodes
        }
        witness = refute_weak_agreement(
            factories, delta=args.delta, decision_deadline=3 * args.delta
        )
    elif args.problem == "firing":
        factories = {
            u: (lambda: RelayFireDevice(fire_at=2.5 * args.delta))
            for u in triangle().nodes
        }
        witness = refute_firing_squad(
            factories, delta=args.delta, fire_deadline=3 * args.delta
        )
    elif args.problem == "eps-delta":
        devices = {u: MedianDevice() for u in triangle().nodes}
        witness = refute_epsilon_delta(
            devices,
            epsilon=args.epsilon,
            delta=args.delta_input,
            gamma=args.gamma,
            rounds=args.rounds,
        )
    elif args.problem == "clock":
        lower = LinearClock(1.0, 0.0)
        setting = SynchronizationSetting(
            p=LinearClock(1.0, 0.0),
            q=LinearClock(args.rate, 0.0),
            lower=lower,
            upper=LinearClock(1.0, args.envelope_gap),
            alpha=args.alpha,
            t_prime=1.0,
        )
        factories = {
            u: (lambda: LowerEnvelopeClockDevice(lower))
            for u in triangle().nodes
        }
        witness = refute_clock_sync(factories, setting)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.problem)
    if getattr(args, "json", None):
        from .analysis.witness_io import save_witness

        path = save_witness(witness, args.json)
        print(f"witness written to {path}")
    if getattr(args, "verbose", False):
        from .analysis.traces import explain_witness

        print(explain_witness(witness))
    else:
        print(witness.describe())
    return 0


def _cmd_sweep(args) -> int:
    from .analysis.sweep import sweep_store_key

    # Reject a bad fault bound, with the sweep's own GraphError, before
    # a run store is created for it.
    if args.dimension == "nodes":
        for f in args.faults:
            required_nodes(f)
    else:
        if len(args.faults) > 1:
            raise ValueError(
                "sweep connectivity takes one --faults value, got "
                f"{len(args.faults)}"
            )
        required_connectivity(args.faults[0])
    shard = None
    if getattr(args, "checkpoint", None):
        from .analysis.runstore import RunStore

        store = RunStore(args.checkpoint)
        store.write_meta(
            "sweep",
            args.seed,
            {
                "dimension": args.dimension,
                "faults": list(args.faults),
                "jobs": args.jobs,
                "trace": getattr(args, "trace", None),
                "metrics": getattr(args, "metrics", False),
            },
        )
        effective = (
            list(args.faults)
            if args.dimension == "nodes"
            else args.faults[0]
        )
        shard = store.shard(sweep_store_key(args.dimension, effective))
    try:
        if args.dimension == "nodes":
            rows = node_bound_sweep(
                tuple(args.faults), jobs=args.jobs, store=shard
            )
            title = f"Theorem 1 node-bound sweep, f in {args.faults}"
        else:
            rows = connectivity_sweep(
                args.faults[0], jobs=args.jobs, store=shard
            )
            title = f"Connectivity sweep, f = {args.faults[0]}"
    finally:
        if shard is not None:
            shard.close()
    print(format_table(SWEEP_HEADERS, [r.as_tuple() for r in rows], title))
    return 0


def _cmd_report(args) -> int:
    from .analysis.report import render_report

    print(render_report())
    return 0


def _cmd_demo(args) -> int:
    graph = parse_graph(args.graph)
    f = args.faults
    if f < 0:
        raise ValueError(f"--faults must be non-negative, got {f}")
    if args.protocol == "eig":
        devices = dict(eig_devices(graph, f))
        rounds = f + 1
    else:
        devices, rounds = sparse_agreement_devices(graph, f)
        devices = dict(devices)
    nodes = list(graph.nodes)
    split = len(nodes) - f
    for i, node in enumerate(nodes[split:]):
        devices[node] = RandomLiarDevice(seed=args.seed + i)
    inputs = {u: i % 2 for i, u in enumerate(nodes)}
    behavior = run(make_system(graph, devices, inputs), rounds)
    correct = nodes[:split]
    verdict = ByzantineAgreementSpec().check(
        inputs, behavior.decisions(), correct
    )
    print(f"graph: {graph!r}, f = {f}, {rounds} rounds")
    print(f"inputs:    {inputs}")
    print(f"decisions: { {u: behavior.decision(u) for u in correct} }")
    print(f"spec:      {verdict.describe()}")
    return 0 if verdict.ok else 1


def _campaign_factory(protocol: str, faults: int):
    """(device_factory, default_rounds) for a campaign protocol."""
    if protocol == "naive":
        return (
            lambda graph: {u: MajorityVoteDevice() for u in graph.nodes},
            2,
        )
    if protocol == "eig":
        return (lambda graph: eig_devices(graph, faults), faults + 1)
    raise GraphError(f"unknown protocol {protocol!r}")


def _cmd_campaign(args) -> int:
    from .analysis.campaign import (
        CampaignConfig,
        counterexample_from_dict,
        degradation_frontier,
        replay_counterexample,
        run_campaign,
    )
    from .analysis.tables import format_table
    from .runtime.memo import BehaviorCache

    if args.frontier and args.verbose:
        raise ValueError("--verbose cannot be combined with --frontier")
    graph = parse_graph(args.graph)
    factory, default_rounds = _campaign_factory(args.protocol, args.faults)
    rounds = args.rounds if args.rounds is not None else default_rounds
    kinds = None if args.kinds is None else tuple(args.kinds.split(","))
    config = CampaignConfig(
        graph=graph,
        device_factory=factory,
        rounds=rounds,
        max_node_faults=args.faults,
        max_link_faults=args.links,
        attempts=args.attempts,
        seed=args.seed,
        **({} if kinds is None else {"link_kinds": kinds}),
    )

    if args.replay:
        from .analysis.witness_io import graph_to_dict, load_campaign

        for flag, given in (
            ("--frontier", args.frontier),
            ("--json", args.json),
            ("--checkpoint", getattr(args, "checkpoint", None)),
        ):
            if given:
                raise ValueError(f"{flag} cannot be combined with --replay")
        data = load_campaign(args.replay)
        entry = data.get("shrunk") or data.get("found")
        if not entry:
            print("error: replay file holds no counterexample", file=sys.stderr)
            return 2
        if data.get("graph") != graph_to_dict(graph):
            raise ValueError(
                f"replay file {args.replay} was recorded on another graph "
                f"than --graph {args.graph}"
            )
        if data.get("rounds") != rounds:
            raise ValueError(
                f"replay file {args.replay} was recorded with "
                f"{data.get('rounds')} rounds, not {rounds} "
                "(set --rounds to match)"
            )
        ce = counterexample_from_dict(entry, graph)
        _, verdict, trace = replay_counterexample(config, ce)
        print(f"replayed: {verdict.describe()}")
        print(trace.describe())
        return 0

    shard = None
    if getattr(args, "checkpoint", None):
        from .analysis.campaign import campaign_store_key, frontier_store_key
        from .analysis.runstore import RunStore

        store = RunStore(args.checkpoint)
        store.write_meta("campaign", args.seed, _campaign_meta_args(args))
        key = (
            frontier_store_key(config)
            if args.frontier
            else campaign_store_key(config)
        )
        shard = store.shard(key)

    if args.frontier:
        from .analysis.campaign import FRONTIER_HEADERS

        try:
            frontier = degradation_frontier(
                config,
                jobs=args.jobs,
                store=shard,
            )
        finally:
            if shard is not None:
                shard.close()
        print(
            format_table(
                FRONTIER_HEADERS,
                [row.as_tuple() for row in frontier.rows],
                f"graceful degradation, {args.protocol} on {args.graph} "
                f"(f={args.faults})",
            )
        )
        print(frontier.describe())
        if args.json:
            from .analysis.witness_io import save_frontier

            path = save_frontier(frontier, args.json)
            print(f"frontier written to {path}")
        return 0

    cache = BehaviorCache()
    try:
        result = run_campaign(
            config,
            jobs=args.jobs,
            cache=cache,
            store=shard,
        )
    finally:
        if shard is not None:
            shard.close()
    print(result.describe())
    if args.verbose:
        print(cache.describe())
    if result.broken and args.verbose and result.injection_trace:
        print("injection trace of the shrunk counterexample:")
        print(result.injection_trace.describe())
    if args.json:
        from .analysis.witness_io import save_campaign

        path = save_campaign(result, args.json)
        print(f"campaign written to {path}")
    return 0


def _campaign_meta_args(args) -> dict:
    """The campaign flags a run store must save so ``repro resume`` can
    rebuild the exact command (the global ``--seed`` is saved
    separately)."""
    return {
        "protocol": args.protocol,
        "graph": args.graph,
        "faults": args.faults,
        "links": args.links,
        "rounds": args.rounds,
        "attempts": args.attempts,
        "kinds": args.kinds,
        "jobs": args.jobs,
        "frontier": args.frontier,
        "replay": None,
        "json": args.json,
        "verbose": args.verbose,
        "trace": getattr(args, "trace", None),
        "metrics": getattr(args, "metrics", False),
    }


def _cmd_resume(args) -> int:
    """Re-run the command a ``--checkpoint`` store was created by,
    skipping journaled work items.

    The store's ``meta.json`` holds the original subcommand, seed and
    flags; output — including ``--json`` files and ``--trace`` traces —
    is byte-identical to an uninterrupted run.  ``--jobs`` may be
    overridden (results are identical for any value).
    """
    from .analysis.runstore import RunStore

    store = RunStore(args.dir, create=False)
    meta = store.read_meta()
    handlers = {"campaign": _cmd_campaign, "sweep": _cmd_sweep}
    handler = handlers.get(meta["command"])
    if handler is None:
        raise ValueError(
            f"run store {args.dir} was written by unknown command "
            f"{meta['command']!r}"
        )
    saved = dict(meta["args"])
    if args.jobs is not None:
        saved["jobs"] = args.jobs
    resumed = argparse.Namespace(
        seed=meta["seed"], checkpoint=args.dir, **saved
    )
    # main() decided telemetry from the bare `resume` args; the saved
    # command's own --trace/--metrics flags are honored here instead.
    return _with_telemetry(resumed, handler)


def _cmd_profile(args) -> int:
    if args.view == "summary":
        print(obs.summarize_trace(args.trace_file))
    elif args.view == "events":
        print(
            obs.format_events(
                args.trace_file,
                kind=args.kind,
                limit=args.limit,
                offset=args.offset,
            )
        )
    else:
        print(obs.format_metrics(args.trace_file))
    return 0


def _with_telemetry(args, handler) -> int:
    """``handler(args)`` under the telemetry its ``--trace``/``--metrics``
    flags ask for; once it returns, write the trace and print the
    summary they asked for."""
    trace = getattr(args, "trace", None)
    metrics = getattr(args, "metrics", False)
    if not (trace or metrics):
        return handler(args)
    obs.enable(trace=bool(trace))
    try:
        code = handler(args)
        obs.absorb_connectivity_stats(obs.get_registry())
        if trace:
            events = obs.write_trace(trace)
            print(f"trace written to {trace} ({events} events)")
        if metrics:
            print(obs.render_live_summary())
        return code
    finally:
        obs.reset()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Executable reproduction of FLM 1985, 'Easy Impossibility "
            "Proofs for Distributed Consensus Problems'"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="seed for every randomized search (campaign, demo)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="adequate or inadequate?")
    p.add_argument("--graph", default="triangle")
    p.add_argument("--faults", type=int, default=1)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("refute", help="run an impossibility engine")
    p.add_argument(
        "problem",
        choices=[
            "byzantine", "connectivity", "weak", "firing", "eps-delta",
            "clock",
        ],
    )
    p.add_argument("--graph", default="triangle")
    p.add_argument("--faults", type=int, default=1)
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--delta-input", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--rate", type=float, default=1.2)
    p.add_argument("--envelope-gap", type=float, default=2.0)
    p.add_argument("--json", help="also write the witness to this JSON file")
    p.add_argument(
        "--verbose", action="store_true",
        help="print full traces of the violated behaviors",
    )
    p.set_defaults(func=_cmd_refute)

    p = sub.add_parser("sweep", help="threshold sweeps")
    p.add_argument("dimension", choices=["nodes", "connectivity"])
    p.add_argument("--faults", type=int, nargs="+", default=[1])
    p.add_argument(
        "--jobs", type=int, default=1,
        help="fan sweep points across N worker processes "
        "(output identical to serial)",
    )
    _add_checkpoint_flag(p, "sweep points")
    _add_telemetry_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "report", help="run every theorem's engine and tabulate"
    )
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("demo", help="run a positive protocol")
    p.add_argument("protocol", choices=["eig", "sparse"])
    p.add_argument("--graph", default="complete:4")
    p.add_argument("--faults", type=int, default=1)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser(
        "campaign",
        help="fault-injection campaign: nodes + links, with shrinking",
    )
    p.add_argument("--protocol", choices=["naive", "eig"], default="naive")
    p.add_argument("--graph", default="complete:4")
    p.add_argument(
        "--faults", type=int, default=0, help="max faulty nodes (f)"
    )
    p.add_argument(
        "--links", type=int, default=2, help="max faulty links (k)"
    )
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--attempts", type=int, default=100)
    p.add_argument(
        "--kinds",
        help="comma-separated link-fault kinds "
        "(drop,corrupt,delay,omit,partition)",
    )
    p.add_argument(
        "--jobs", type=int, default=1,
        help="fan campaign attempts (or frontier levels) across N worker "
        "processes; reports are byte-identical to serial runs",
    )
    p.add_argument(
        "--frontier", action="store_true",
        help="sweep the link budget and report the degradation frontier",
    )
    p.add_argument(
        "--replay", help="re-run the counterexample stored in this JSON file"
    )
    p.add_argument(
        "--json",
        help="write the campaign result (or the frontier rows) to this file",
    )
    p.add_argument(
        "--verbose", action="store_true",
        help="print the shrunk counterexample's injection trace",
    )
    _add_checkpoint_flag(p, "attempts (or frontier levels)")
    _add_telemetry_flags(p)
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser(
        "resume",
        help="resume an interrupted --checkpoint campaign or sweep",
    )
    p.add_argument(
        "dir", help="the --checkpoint directory of the interrupted run"
    )
    p.add_argument(
        "--jobs", type=int, default=None,
        help="override the saved --jobs value (results are identical "
        "for any value)",
    )
    p.set_defaults(func=_cmd_resume)

    p = sub.add_parser(
        "profile", help="inspect a JSONL telemetry trace (--trace output)"
    )
    p.add_argument(
        "view", choices=["summary", "events", "metrics"],
        help="summary: event and metric totals; events: the "
        "timeline; metrics: the trace's run.* counters",
    )
    p.add_argument("trace_file", help="a trace written by --trace FILE")
    p.add_argument("--kind", help="events view: only this event kind")
    p.add_argument(
        "--limit", type=int, default=40,
        help="events view: show at most N events (default 40)",
    )
    p.add_argument(
        "--offset", type=int, default=0,
        help="events view: skip the first N matching events",
    )
    p.set_defaults(func=_cmd_profile)

    return parser


def _add_checkpoint_flag(p: argparse.ArgumentParser, items: str) -> None:
    p.add_argument(
        "--checkpoint", metavar="DIR",
        help=f"journal completed {items} to a crash-safe run store in "
        "DIR; 'repro resume DIR' continues an interrupted run with "
        "byte-identical output",
    )


def _add_telemetry_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace", metavar="FILE",
        help="record a JSONL telemetry trace of the run to FILE "
        "(byte-identical for any --jobs value; inspect with "
        "'repro profile')",
    )
    p.add_argument(
        "--metrics", action="store_true",
        help="print the telemetry run summary (events, metrics, spans) "
        "after the run",
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        jobs = getattr(args, "jobs", None)
        if jobs is not None and jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {jobs}")
        return _with_telemetry(args, args.func)
    except (GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
