"""Sweeps, tables and figure renderings for the benchmark harness."""

from .diagrams import (
    diamond_figure,
    eight_ring_figure,
    hexagon_figure,
    ring_figure,
    triangle_figure,
    witness_chain_figure,
)
from .sweep import (
    SWEEP_HEADERS,
    SweepRow,
    connectivity_sweep,
    node_bound_sweep,
    sweep_store_key,
)
from .parallel import (
    ItemError,
    ParallelRunner,
    available_parallelism,
    fork_available,
)
from .runstore import RunStore, RunStoreError, Shard, atomic_write_text
from .campaign import (
    CampaignConfig,
    CampaignResult,
    Counterexample,
    DegradationFrontier,
    FRONTIER_HEADERS,
    FrontierRow,
    NodeFault,
    campaign_store_key,
    degradation_frontier,
    frontier_store_key,
    replay_counterexample,
    run_campaign,
    sample_fault_plan,
    shrink_counterexample,
)
from .convergence import (
    ConvergenceCurve,
    measure_convergence,
    theoretical_dlpsw_factor,
)
from .report import ReportLine, full_report, render_report
from .witness_io import (
    campaign_to_dict,
    load_campaign,
    load_json_file,
    save_campaign,
    save_witness,
    witness_to_dict,
)
from .metrics import COMPARE_HEADERS, RunMetrics, compare, measure
from .tables import format_table
from .traces import (
    render_fire_times,
    render_sync_decisions,
    render_sync_messages,
    render_timed_events,
)

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "Counterexample",
    "DegradationFrontier",
    "FRONTIER_HEADERS",
    "FrontierRow",
    "ItemError",
    "NodeFault",
    "ParallelRunner",
    "RunStore",
    "RunStoreError",
    "SWEEP_HEADERS",
    "Shard",
    "SweepRow",
    "atomic_write_text",
    "campaign_store_key",
    "campaign_to_dict",
    "degradation_frontier",
    "frontier_store_key",
    "sweep_store_key",
    "replay_counterexample",
    "run_campaign",
    "sample_fault_plan",
    "save_campaign",
    "shrink_counterexample",
    "connectivity_sweep",
    "diamond_figure",
    "eight_ring_figure",
    "COMPARE_HEADERS",
    "RunMetrics",
    "ConvergenceCurve",
    "ReportLine",
    "measure_convergence",
    "theoretical_dlpsw_factor",
    "available_parallelism",
    "fork_available",
    "full_report",
    "load_campaign",
    "load_json_file",
    "render_report",
    "save_witness",
    "witness_to_dict",
    "compare",
    "format_table",
    "measure",
    "render_fire_times",
    "render_sync_decisions",
    "render_sync_messages",
    "render_timed_events",
    "hexagon_figure",
    "node_bound_sweep",
    "ring_figure",
    "triangle_figure",
    "witness_chain_figure",
]
