"""Experiment campaigns reproducing the paper's §6 evaluation.

Structured as three independent layers — description
(:class:`ScenarioGrid` expanding figure × scenario × granularity × rep
axes into :class:`WorkUnit`\\ s), execution (the :class:`Executor`
implementations: inline, process pool, TCP master/worker), and results
(the append-only :class:`RunStore` every executor writes scenario-tagged
rows into, from which :class:`CampaignResult` views are rebuilt).
Campaigns are therefore distributable across machines and resumable
after a crash, with bit-identical rows whichever path ran them.

The front door is the declarative API (:mod:`repro.experiments.api`): a
serializable :class:`CampaignSpec` describing the whole campaign —
scenario axes, executor, store backend, lease policy, reps, seeds —
run through the :class:`Campaign` facade, with every name resolving via
the pluggable registries in :mod:`repro.experiments.registry`.  The
paper's figures ship as spec files under ``repro/experiments/specs/``.
See ``API.md`` for the schema and the migration table.
"""

from repro.experiments.config import (
    ExperimentConfig,
    FIGURES,
    GRANULARITY_SWEEP_A,
    GRANULARITY_SWEEP_B,
    PORT_POLICIES,
    default_num_graphs,
)
from repro.experiments.registry import (
    EXECUTORS,
    SCHEDULERS,
    STORES,
    arrival_process_names,
    executor_names,
    failure_model_names,
    network_names,
    register_arrival_process,
    register_executor,
    register_failure_model,
    register_network,
    register_scheduler,
    register_store,
    register_topology,
    scheduler_names,
    store_names,
    topology_names,
)
from repro.experiments.arrival import (
    ArrivalEvent,
    ArrivalSpec,
    generate_arrivals,
    recorded_trace,
)
from repro.fault.model import (
    CorrelatedFailureModel,
    FailureModel,
    FailureSpec,
    build_failure_model,
)
from repro.experiments.online import (
    JobRecord,
    OnlineHarness,
    OnlinePoint,
    check_online_shape,
    run_online_rep,
)
from repro.experiments.grid import (
    ScenarioGrid,
    WorkUnit,
)
from repro.experiments.harness import (
    generate_instance,
    run_rep,
    run_point,
    CampaignResult,
    PointResult,
    RepResult,
    ALGORITHM_RUNNERS,
    FAULTFREE_RUNNERS,
)
from repro.experiments.store import (
    RunStore,
    StoreError,
    canonical_row_key,
    make_store,
    open_store,
    read_store_backend,
    result_to_dict,
    result_from_dict,
    row_matches,
)
from repro.experiments.columnar import (
    ColumnarStore,
)
from repro.experiments.query import (
    StoreCampaignView,
    aggregate_points,
)
from repro.experiments.executors import (
    Executor,
    LeasePolicy,
    SerialExecutor,
    ProcessExecutor,
    SocketExecutor,
    SpeculationPolicy,
    make_executor,
    run_worker,
    EXECUTOR_NAMES,
)
from repro.experiments.campaign import (
    run_campaign,
    run_grid,
    resume_campaign,
)
from repro.experiments.api import (
    Campaign,
    CampaignConfigError,
    CampaignHandle,
    CampaignSpec,
    ExecutorSpec,
    ProgressEvent,
    StoreSpec,
    apply_overrides,
    figure_spec,
    parse_override,
    shipped_spec_paths,
)
from repro.experiments.service import (
    CampaignService,
    ServiceClient,
    ServiceExecutor,
    ServiceJobHandle,
    gc_job_dirs,
)
from repro.experiments.figures import (
    run_figure,
    check_shape,
    ShapeReport,
)
from repro.experiments.stats import (
    SeriesStats,
    summarize_series,
    paired_mean_difference,
    dominates,
    win_rate,
    geometric_mean_ratio,
    rep_series,
    paired_rep_series,
    compare_reps,
    PairedComparison,
)
from repro.experiments.svg import (
    SvgLineChart,
    campaign_to_charts,
    write_html_report,
)
from repro.experiments.extra import (
    heterogeneity_sweep,
    platform_size_sweep,
    sweep_table,
)
from repro.experiments.compare import (
    ComparisonRow,
    compare_algorithms,
    comparison_table,
    campaign_comparison,
    campaign_comparison_table,
    CampaignComparisonRow,
    COMPARABLE,
)
from repro.experiments.report import (
    render_figure,
    render_online,
    panel_a,
    panel_b,
    panel_c,
    messages_table,
    online_latency_table,
    online_robustness_table,
    scenario_label,
    write_csv,
)

__all__ = [
    "ExperimentConfig",
    "FIGURES",
    "GRANULARITY_SWEEP_A",
    "GRANULARITY_SWEEP_B",
    "PORT_POLICIES",
    "default_num_graphs",
    "Campaign",
    "CampaignConfigError",
    "CampaignHandle",
    "CampaignSpec",
    "ExecutorSpec",
    "ProgressEvent",
    "StoreSpec",
    "apply_overrides",
    "figure_spec",
    "parse_override",
    "shipped_spec_paths",
    "CampaignService",
    "ServiceClient",
    "ServiceExecutor",
    "ServiceJobHandle",
    "gc_job_dirs",
    "SCHEDULERS",
    "EXECUTORS",
    "STORES",
    "register_scheduler",
    "register_executor",
    "register_store",
    "register_network",
    "register_topology",
    "register_arrival_process",
    "register_failure_model",
    "scheduler_names",
    "executor_names",
    "store_names",
    "network_names",
    "topology_names",
    "arrival_process_names",
    "failure_model_names",
    "ArrivalEvent",
    "ArrivalSpec",
    "generate_arrivals",
    "recorded_trace",
    "FailureModel",
    "CorrelatedFailureModel",
    "FailureSpec",
    "build_failure_model",
    "JobRecord",
    "OnlineHarness",
    "OnlinePoint",
    "check_online_shape",
    "run_online_rep",
    "ScenarioGrid",
    "WorkUnit",
    "generate_instance",
    "run_rep",
    "run_point",
    "run_campaign",
    "run_grid",
    "resume_campaign",
    "CampaignResult",
    "PointResult",
    "RepResult",
    "ALGORITHM_RUNNERS",
    "FAULTFREE_RUNNERS",
    "RunStore",
    "ColumnarStore",
    "StoreError",
    "StoreCampaignView",
    "aggregate_points",
    "canonical_row_key",
    "make_store",
    "open_store",
    "read_store_backend",
    "result_to_dict",
    "result_from_dict",
    "row_matches",
    "Executor",
    "LeasePolicy",
    "SerialExecutor",
    "ProcessExecutor",
    "SocketExecutor",
    "SpeculationPolicy",
    "make_executor",
    "run_worker",
    "EXECUTOR_NAMES",
    "run_figure",
    "check_shape",
    "ShapeReport",
    "render_figure",
    "render_online",
    "panel_a",
    "panel_b",
    "panel_c",
    "messages_table",
    "online_latency_table",
    "online_robustness_table",
    "scenario_label",
    "write_csv",
    "SeriesStats",
    "summarize_series",
    "paired_mean_difference",
    "dominates",
    "win_rate",
    "geometric_mean_ratio",
    "rep_series",
    "paired_rep_series",
    "compare_reps",
    "PairedComparison",
    "SvgLineChart",
    "campaign_to_charts",
    "write_html_report",
    "heterogeneity_sweep",
    "platform_size_sweep",
    "sweep_table",
    "ComparisonRow",
    "compare_algorithms",
    "comparison_table",
    "campaign_comparison",
    "campaign_comparison_table",
    "CampaignComparisonRow",
    "COMPARABLE",
]
