"""Run catalog + artifact store with QC gates and an operator dashboard.

The simulation keeps its own science: every registry run and ops
snapshot is catalogued as a content-addressed record in a plain
catalog directory (:mod:`repro.artifacts.store`), judged by QC
gates before it may become a baseline (:mod:`repro.artifacts.qc`), and
rendered as KPI / burn-rate / Pareto views (:mod:`repro.artifacts.dash`).
"""

from repro.artifacts.dash import (
    DEFAULT_AVAILABILITY_TARGET,
    pareto_frontier,
    render_dash,
)
from repro.artifacts.ingest import (
    ingest,
    ops_record,
    run_record,
)
from repro.artifacts.qc import (
    DEFAULT_GATED_METRICS,
    QCCheck,
    QCReport,
    QCThresholds,
    run_qc,
)
from repro.artifacts.records import (
    RUN_KINDS,
    CellResult,
    RunRecord,
    canonical_data,
    canonical_json,
    config_hash,
    payload_digest,
)
from repro.artifacts.store import (
    CATALOG_CONTAINER,
    MANIFEST_VERSION,
    CatalogError,
    CatalogStore,
)

__all__ = [
    "CATALOG_CONTAINER",
    "DEFAULT_AVAILABILITY_TARGET",
    "DEFAULT_GATED_METRICS",
    "MANIFEST_VERSION",
    "RUN_KINDS",
    "CatalogError",
    "CatalogStore",
    "CellResult",
    "QCCheck",
    "QCReport",
    "QCThresholds",
    "RunRecord",
    "canonical_data",
    "canonical_json",
    "config_hash",
    "ingest",
    "ops_record",
    "pareto_frontier",
    "payload_digest",
    "render_dash",
    "run_qc",
    "run_record",
]
