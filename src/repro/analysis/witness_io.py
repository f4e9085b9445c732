"""Witness serialization: dump an impossibility witness to a JSON-safe
structure (and to disk) for external tooling, dashboards, or archives.

Full behaviors are large; the serialization keeps the argument's
skeleton — per-behavior correct/faulty sets, verdicts, decisions, and
chain links — plus engine extras, and can optionally inline the
violated behaviors' message traces.

All writes are atomic (tmp + fsync + rename, via
:func:`repro.analysis.runstore.atomic_write_text`): a crash mid-save
leaves either the previous file or the complete new one, never a
truncated JSON that a later ``repro campaign --replay`` chokes on.
Loading goes through :func:`load_json_file`, which turns truncated or
hand-mangled input into a one-line error naming the file instead of a
raw ``json`` traceback.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..core.witness import ImpossibilityWitness
from .runstore import atomic_write_text


def _jsonable(value: Any) -> Any:
    """Best-effort conversion to JSON-safe values."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


def graph_to_dict(graph: Any) -> dict[str, list[str]]:
    """A graph's shape as saved in witness and campaign files: sorted
    node names and sorted ``u-v`` edge names."""
    return {
        "nodes": sorted(map(str, graph.nodes)),
        "edges": sorted(
            f"{min(str(u), str(v))}-{max(str(u), str(v))}"
            for (u, v) in graph.edges
        ),
    }


def witness_to_dict(
    witness: ImpossibilityWitness, include_traces: bool = False
) -> dict[str, Any]:
    """A JSON-safe summary of a witness."""
    behaviors = []
    for checked in witness.checked:
        constructed = checked.constructed
        entry: dict[str, Any] = {
            "label": checked.label,
            "correct": sorted(map(str, constructed.correct_nodes)),
            "faulty": sorted(map(str, constructed.faulty_nodes)),
            "ok": checked.verdict.ok,
            "violations": [
                {
                    "condition": v.condition,
                    "detail": v.detail,
                    "nodes": sorted(map(str, v.nodes)),
                }
                for v in checked.verdict.violations
            ],
        }
        decisions = getattr(constructed, "decisions", None)
        if callable(decisions):
            entry["decisions"] = _jsonable(decisions())
        inputs = getattr(constructed, "inputs", None)
        if inputs is not None:
            entry["inputs"] = _jsonable(dict(inputs))
        if include_traces and not checked.verdict.ok:
            behavior = getattr(constructed, "behavior", None)
            edge_behaviors = getattr(behavior, "edge_behaviors", None)
            if edge_behaviors:
                entry["message_traces"] = {
                    f"{u}->{v}": _jsonable(
                        getattr(eb, "messages", getattr(eb, "sends", ()))
                    )
                    for (u, v), eb in edge_behaviors.items()
                }
        behaviors.append(entry)
    return {
        "problem": witness.problem,
        "bound": witness.bound,
        "graph": graph_to_dict(witness.graph),
        "max_faults": witness.max_faults,
        "found": witness.found,
        "behaviors": behaviors,
        "links": [
            {
                "node": str(link.node),
                "covering_node": str(link.covering_node),
                "between": [link.first, link.second],
            }
            for link in witness.links
        ],
        "extra": _jsonable(witness.extra),
    }


def save_witness(
    witness: ImpossibilityWitness,
    path: str | Path,
    include_traces: bool = False,
) -> Path:
    """Write the witness summary as JSON, atomically; return the path."""
    return atomic_write_text(
        path,
        json.dumps(
            witness_to_dict(witness, include_traces=include_traces),
            indent=2,
            sort_keys=True,
        ),
    )


def campaign_to_dict(result: Any) -> dict[str, Any]:
    """A JSON-safe summary of a campaign result (see
    :mod:`repro.analysis.campaign`) — enough to re-run the shrunk
    counterexample with ``repro campaign --replay``."""
    from .campaign import CampaignResult, counterexample_to_dict

    assert isinstance(result, CampaignResult)
    config = result.config
    data: dict[str, Any] = {
        "kind": "campaign",
        "graph": graph_to_dict(config.graph),
        "rounds": config.rounds,
        "budget": {
            "node_faults": config.max_node_faults,
            "link_faults": config.max_link_faults,
        },
        "seed": config.seed,
        "attempts": result.attempts,
        "broken": result.broken,
        "found": None,
        "shrunk": None,
        "shrink_steps": result.shrink_steps,
        "injection_trace": None,
    }
    if result.found is not None:
        data["found"] = counterexample_to_dict(result.found)
        data["violations"] = [
            {"condition": v.condition, "detail": v.detail}
            for v in result.found.verdict.violations
        ]
    if result.shrunk is not None:
        data["shrunk"] = counterexample_to_dict(result.shrunk)
    if result.injection_trace is not None:
        data["injection_trace"] = result.injection_trace.to_jsonable()
    return _jsonable(data)


def save_campaign(result: Any, path: str | Path) -> Path:
    """Write a campaign summary as JSON, atomically; return the path."""
    return atomic_write_text(
        path, json.dumps(campaign_to_dict(result), indent=2, sort_keys=True)
    )


def save_frontier(frontier: Any, path: str | Path) -> Path:
    """Write a degradation frontier's rows as JSON, atomically, each in
    the run-store journal's row encoding; return the path."""
    from .campaign import frontier_row_to_dict

    rows = [frontier_row_to_dict(row) for row in frontier.rows]
    return atomic_write_text(
        path, json.dumps({"rows": rows}, indent=2, sort_keys=True)
    )


def load_json_file(path: str | Path, what: str = "file") -> Any:
    """Read a JSON file with clear errors instead of raw tracebacks.

    ``what`` names the artifact in the message ("campaign summary",
    "witness").  Missing files and unparseable content both raise
    :class:`ValueError` mentioning the path, which the CLI renders as a
    one-line ``error: ...``.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise ValueError(f"{what} {path} not found") from None
    except OSError as exc:
        raise ValueError(f"cannot read {what} {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{what} {path} is corrupt or truncated "
            f"(not valid JSON: {exc})"
        ) from exc


def load_campaign(path: str | Path) -> dict[str, Any]:
    """Load a saved campaign summary, validating its shape."""
    data = load_json_file(path, "campaign summary")
    if not isinstance(data, dict) or data.get("kind") != "campaign":
        raise ValueError(
            f"campaign summary {path} is not a campaign file "
            "(expected a JSON object with kind='campaign')"
        )
    return data
