"""End-to-end experiment flow (place -> power -> thermal -> area management).

Single points are evaluated with :class:`ExperimentSetup` and
:func:`evaluate_strategy`; grids of points are executed by the
:class:`Campaign` runner, which shares one :class:`SolverCache` across all
points and can fan them out over worker threads or — with
``executor="process"`` — shard them across worker processes, each holding
its own unpickled copy of the baselines.  The staged path — :class:`FlowGraph`
over a content-addressed :class:`ArtifactStore` — runs the same pipeline
as explicit stages and re-executes only stages whose input hashes changed,
producing bitwise-identical results.  A persistent :class:`ResultStore`
makes whole campaigns incremental: completed grid points are published as
they finish and reused verbatim by any later (or interrupted-and-rerun)
sweep, across processes and across the ``repro serve`` daemon.
"""

from .artifacts import (
    LegalizedArtifact,
    PlacementArtifact,
    PowerArtifact,
    StaArtifact,
    ThermalArtifact,
    WhitespaceArtifact,
    netlist_digest,
    placement_digest,
)
from .cache import CacheStats, SolverCache, geometry_key, package_fingerprint
from .graph import STAGES, FlowGraph
from .experiment import (
    DEFAULT_OVERHEADS,
    DEFAULT_STRATEGIES,
    ExperimentSetup,
    PreparedEvaluation,
    StrategyOutcome,
    evaluate_strategy,
    finish_evaluation,
    prepare_evaluation,
    sweep_overheads,
)
from .runner import (
    Campaign,
    CampaignPoint,
    CampaignRecord,
    CampaignResult,
    FailedPoint,
    concentrated_hotspot_campaign,
    concentrated_hotspot_table,
)
from .recover import FsckReport, fsck_store, recover_store
from .store import (
    ArtifactStore,
    PruneReport,
    ResultStore,
    StoreStats,
    StoreUsage,
    prune_store,
    result_key,
    scan_store,
    setup_digest,
)

__all__ = [
    "ArtifactStore",
    "StoreStats",
    "ResultStore",
    "StoreUsage",
    "PruneReport",
    "setup_digest",
    "result_key",
    "scan_store",
    "prune_store",
    "FsckReport",
    "fsck_store",
    "recover_store",
    "FlowGraph",
    "STAGES",
    "PlacementArtifact",
    "PowerArtifact",
    "WhitespaceArtifact",
    "LegalizedArtifact",
    "ThermalArtifact",
    "StaArtifact",
    "netlist_digest",
    "placement_digest",
    "CacheStats",
    "SolverCache",
    "geometry_key",
    "package_fingerprint",
    "ExperimentSetup",
    "PreparedEvaluation",
    "StrategyOutcome",
    "evaluate_strategy",
    "finish_evaluation",
    "prepare_evaluation",
    "sweep_overheads",
    "DEFAULT_OVERHEADS",
    "DEFAULT_STRATEGIES",
    "Campaign",
    "CampaignPoint",
    "CampaignRecord",
    "CampaignResult",
    "FailedPoint",
    "concentrated_hotspot_campaign",
    "concentrated_hotspot_table",
]
