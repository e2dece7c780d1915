"""Paper-anchored calibration constants.

Every number that ties the simulator to Hill et al., *Early observations
on the performance of Windows Azure* (Sci. Prog. 19 (2011) 121-132),
lives here, annotated with the paper section it comes from.  Nothing
else in the codebase hard-codes a paper number.

Units: seconds for time, megabytes (MB = 1e6 bytes unless noted) for
data, MB/s for bandwidth, following the paper's own reporting units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

# ---------------------------------------------------------------------------
# Network (Sections 3.1, 4.2, 6.1)
# ---------------------------------------------------------------------------

#: Per-connection blob bandwidth limit seen by small instances.
#: Section 6.1: "For 1-8 concurrent clients we saw a 100 Mbit/s, or
#: approximately 13 MB/s, limitation."  Note this is a *storage-side*
#: per-connection cap, not the VM NIC: Fig. 5 shows the same small VMs
#: reaching ~90 MB/s on internal TCP endpoints.
BLOB_PER_CLIENT_CAP_MBPS = 13.0

#: Physical host / storage-server NIC.  Section 4.2: "We assume that the
#: physical hardware is Gigabit Ethernet, which has a limit of 125 MB/s."
GIGE_MBPS = 125.0

#: Replication degree of all storage services.  Sections 3.3 and 6.1 both
#: describe blobs and queue messages as triple-replicated.
REPLICATION_FACTOR = 3

#: Intra-rack TCP round-trip latency distribution (Fig. 4): "approximately
#: 50% of the time the latency is equal to 1 ms; 75% of the time the latency
#: is 2 ms or better", with a small multi-ms tail.  Values below are the
#: (latency_ms, weight) support used for same-rack pairs; cross-rack pairs
#: add switch hops (see network.latency).
TCP_LATENCY_SAME_RACK_MS: Tuple[Tuple[float, float], ...] = (
    (0.7, 0.18),
    (0.95, 0.40),
    (1.7, 0.12),
    (1.9, 0.06),
)
TCP_LATENCY_TAIL_MS: Tuple[Tuple[float, float], ...] = (
    (2.6, 0.10),
    (3.0, 0.06),
    (4.5, 0.04),
    (7.0, 0.025),
    (10.0, 0.015),
)

#: Placement spillover: probability that capacity fragmentation pushes an
#: instance out of its deployment's preferred rack.  Two independent
#: spills of ~8% make ~15% of pairs cross-rack (matching the Fig. 5 tail).
VM_PLACEMENT_SPILL_RATE = 0.08

# ---------------------------------------------------------------------------
# Blob service (Section 3.1, Fig. 1; recommendations in 6.1)
# ---------------------------------------------------------------------------

#: Aggregate read ceiling against a single blob.  Section 3.1: maximum
#: observed download throughput 393.4 MB/s at 128 clients; Section 6.1
#: attributes this to "three 1 GB/s links" (triple replication).
BLOB_DOWNLOAD_SERVER_MBPS = 400.0

#: Aggregate write ceiling into one container.  Section 3.1: maximum upload
#: throughput 124.25 MB/s at 192 clients -- one GigE link's worth, because
#: writes funnel through the partition primary.
BLOB_UPLOAD_SERVER_MBPS = 125.0

#: Per-connection front-end service curve: with n concurrent connections,
#: the front end grants each at most ``A * n**-gamma`` MB/s (the hard
#: aggregate ceiling above still applies on top).  Calibrated from the
#: Fig. 1 anchors: 1-8 readers NIC-limited at ~12.5 MB/s, ~half a single
#: reader's bandwidth at 32 readers, aggregate ceiling reached near 128.
BLOB_DOWNLOAD_FRONTEND_A_MBPS = 42.4
BLOB_DOWNLOAD_FRONTEND_GAMMA = 0.54

#: Upload curve: writes pay the replication commit, so a single writer
#: achieves "about half the bandwidth" of a reader (Section 3.1, Fig. 1);
#: anchors: ~1.25 MB/s at 64 writers, ceiling ~125 MB/s binding at 192.
BLOB_UPLOAD_FRONTEND_A_MBPS = 6.5
BLOB_UPLOAD_FRONTEND_GAMMA = 0.40

#: Test blob size (Section 3.1: "a single 1 GB blob").
BLOB_TEST_SIZE_MB = 1000.0

#: Per-request fixed latency (connection + front-end auth + first byte).
BLOB_REQUEST_LATENCY_S = 0.08

#: Server-side blob copy bandwidth (no client NIC involved; bounded by
#: the storage backend's internal replication fabric).
BLOB_SERVER_COPY_MBPS = 100.0

# ---------------------------------------------------------------------------
# Table service (Section 3.2, Fig. 2; recommendations in 6.1)
# ---------------------------------------------------------------------------

#: Client-observed base latency of a keyed operation on an unloaded
#: partition, seconds (network RTT + fixed server path).  Sets the
#: 1-client throughput intercepts of Fig. 2.
TABLE_BASE_LATENCY_S: Dict[str, float] = {
    "insert": 0.022,
    "query": 0.012,
    "update": 0.020,
    "delete": 0.018,
}

#: Per-connection front-end service curve of the table partition server
#: (seconds x active_requests**gamma); bends Insert/Query per-client
#: throughput down gradually without a hard cap by 192 clients.
TABLE_FRONTEND_C_S = 0.004
TABLE_FRONTEND_GAMMA = 0.5

#: CPU-pool seconds per op (marshalling etc.) for a 1 kB entity.
TABLE_CPU_S: Dict[str, float] = {
    "insert": 0.0007,
    "query": 0.0005,
    "update": 0.0006,
    "delete": 0.0005,
}

#: Exclusive-latch portion of each op (seconds).  Update targets the *same
#: entity* from every client (Section 3.2), so its latch is the entity lock
#: and it serializes at ~1/0.011 = 91 ops/s: server max near 8 clients.
#: Delete briefly latches the partition index (cap ~1720 ops/s: saturation
#: right around 128 clients).  Insert's index latch is shorter still (cap
#: ~4000, not reached by 192); Query takes none.
TABLE_EXCLUSIVE_S: Dict[str, float] = {
    "insert": 0.00025,
    "query": 0.0,
    "update": 0.0110,
    "delete": 0.00058,
}

#: Additional CPU seconds per kB of entity payload.
TABLE_CPU_PER_KB_S = 0.00003

#: Partition-server cores available for CPU work (scans, marshalling).
TABLE_SERVER_CORES = 8

#: Ingest budget: in-flight payload beyond the knee adds shed probability
#: per MB.  Tuned so 64 kB entities start timing out at 128 concurrent
#: clients and fail for ~half the clients at 192 (Section 3.2), while
#: <= 16 kB entities never trip it.
TABLE_OVERLOAD_KNEE_MB = 3.0
TABLE_OVERLOAD_SLOPE_PER_MB = 2.2e-4

#: Client-side operation timeout (2009 StorageClient default, 30 s); the
#: source of the 64 kB insert timeout exceptions at 128/192 clients
#: (Section 3.2).
TABLE_CLIENT_TIMEOUT_S = 30.0

#: Property-filter (non-indexed) queries scan the partition; Section 6.1:
#: with ~220k entities and 32 clients, over half the clients time out.
#: Scan CPU cost in seconds per 1000 entities scanned (a ~220k-entity scan
#: costs ~15 s solo; 32 concurrent scans queue on 8 cores, pushing every
#: wave after the first past the 30 s client timeout).
TABLE_SCAN_S_PER_1K_ENTITIES = 0.07

#: Entity count pre-populated for the property-filter experiment (6.1).
TABLE_SCAN_EXPERIMENT_ENTITIES = 220_000

#: Entities inserted per client in the paper's protocol (Section 3.2).
TABLE_OPS_PER_CLIENT: Dict[str, int] = {
    "insert": 500,
    "query": 500,
    "update": 100,
    "delete": 500,
}

# ---------------------------------------------------------------------------
# Queue service (Section 3.3, Fig. 3; recommendations in 6.1)
# ---------------------------------------------------------------------------

#: Client-observed base latency (seconds) per op on an unloaded queue.
#: Section 6.1: "With 16 or fewer writers each client obtained 15-20 ops/s"
#: => ~50-65 ms per op at low load.
QUEUE_BASE_LATENCY_S: Dict[str, float] = {
    "add": 0.048,
    "receive": 0.052,
    "peek": 0.040,
}

#: Exclusive service portion (seconds).  Add commits to three replicas
#: (cap ~1/0.00176 = 568 -> observed 569 ops/s peak at 64 clients);
#: Receive also takes the head-of-queue latch to assign each message to
#: exactly one client (cap ~1/0.00236 = 424 ops/s); Peek reads the primary
#: without state change (still rising at 192 clients: 3878 ops/s).
QUEUE_EXCLUSIVE_S: Dict[str, float] = {
    "add": 0.00176,
    "receive": 0.00236,
    "peek": 0.0,
}

#: Per-connection front-end curve of the queue partition server.
QUEUE_FRONTEND_C_S: Dict[str, float] = {
    "add": 0.0015,
    "receive": 0.0015,
    "peek": 0.0005,
}
QUEUE_FRONTEND_GAMMA = 0.5

#: CPU-pool seconds per op.
QUEUE_CPU_S: Dict[str, float] = {
    "add": 0.0008,
    "receive": 0.0009,
    "peek": 0.0004,
}

#: Additional CPU seconds per kB of message payload (small: Section 3.3
#: found 512 B - 8 kB messages behave alike).
QUEUE_CPU_PER_KB_S = 0.00004

#: Maximum queue message visibility timeout (Section 5.2: 2 hours).
QUEUE_MAX_VISIBILITY_TIMEOUT_S = 7200.0

# ---------------------------------------------------------------------------
# VM lifecycle (Section 4.1, Table 1)
# ---------------------------------------------------------------------------

#: Table 1 anchors: mean/std seconds per phase, keyed (role, size).
#: "Add" means time for newly added instances to become ready after a
#: doubling request.  XL deployments hold one instance, so Add was N/A; we
#: model XL add like large plus the size trend for completeness but the
#: Table-1 experiment reports it as N/A, matching the paper.
VM_PHASE_ANCHORS: Dict[Tuple[str, str], Dict[str, Tuple[float, float]]] = {
    ("worker", "small"): {
        "create": (86, 27), "run": (533, 36), "add": (1026, 355),
        "suspend": (40, 30), "delete": (6, 5),
    },
    ("worker", "medium"): {
        "create": (61, 10), "run": (591, 42), "add": (740, 176),
        "suspend": (37, 12), "delete": (5, 3),
    },
    ("worker", "large"): {
        "create": (54, 11), "run": (660, 91), "add": (774, 137),
        "suspend": (35, 8), "delete": (6, 6),
    },
    ("worker", "extralarge"): {
        "create": (51, 9), "run": (790, 30), "add": (870, 140),
        "suspend": (42, 19), "delete": (6, 5),
    },
    ("web", "small"): {
        "create": (86, 17), "run": (594, 32), "add": (1132, 478),
        "suspend": (86, 14), "delete": (6, 2),
    },
    ("web", "medium"): {
        "create": (61, 10), "run": (637, 77), "add": (789, 181),
        "suspend": (92, 17), "delete": (6, 6),
    },
    ("web", "large"): {
        "create": (52, 9), "run": (679, 40), "add": (670, 155),
        "suspend": (94, 14), "delete": (5, 3),
    },
    ("web", "extralarge"): {
        "create": (55, 16), "run": (827, 40), "add": (900, 150),
        "suspend": (96, 3), "delete": (6, 8),
    },
}

#: Instances per deployment by size, keeping under the 20-core CTP account
#: limit while allowing doubling (Section 4.1).
VM_DEPLOYMENT_COUNT: Dict[str, int] = {
    "small": 4, "medium": 2, "large": 1, "extralarge": 1,
}

#: Cores per VM size (Azure 2009 SKUs).
VM_CORES: Dict[str, int] = {
    "small": 1, "medium": 2, "large": 4, "extralarge": 8,
}

#: Observation (3): ~4 minute lag between the 1st and 4th instance of a
#: small deployment becoming ready -> ~80 s mean stagger per instance.
VM_READY_STAGGER_MEAN_S = 80.0
VM_READY_STAGGER_STD_S = 25.0

#: Observation (5): a 1.2 MB package starts ~30 s faster than a 5 MB one
#: => effective package deployment bandwidth ~0.127 MB/s on top of a
#: control-plane base.  Create anchors above correspond to the paper's
#: ~5 MB test package.
VM_CREATE_PACKAGE_BW_MBPS = 0.127
VM_TEST_PACKAGE_MB = 5.0

#: VM startup failure rate across all test cases (Section 4.1: 2.6%).
VM_STARTUP_FAILURE_RATE = 0.026

#: Number of successful runs collected in the paper's campaign.
VM_CAMPAIGN_RUNS = 431

# ---------------------------------------------------------------------------
# ModisAzure (Section 5, Table 2, Fig. 7)
# ---------------------------------------------------------------------------

#: Deployment scale (Section 5.1: "up to 200 instances concurrently").
MODIS_WORKER_COUNT = 200

#: Task execution mix (Table 2), used to calibrate the request generator.
MODIS_TASK_MIX: Dict[str, float] = {
    "source_download": 0.0457,
    "aggregation": 0.0029,
    "reprojection": 0.5579,
    "reduction": 0.3936,
}

#: Per-cause failure rates out of all task executions (Table 2).  "Success"
#: in Table 2 is 65.50%; the remainder beyond the enumerated causes is
#: user-code/MATLAB failures the paper omits.
MODIS_FAILURE_RATES: Dict[str, float] = {
    "unknown_failure": 0.1130,
    "blob_already_exists": 0.0598,
    "unknown_null_log": 0.0457,
    "download_source_failed": 0.0410,
    "connection_failure": 0.0029,
    "vm_execution_timeout": 0.0017,
    "operation_timeout": 0.0014,
    "corrupt_blob_read": 0.0010,
    "server_busy": 0.0004,
    "blob_read_fail": 0.0002,
    "nonexistent_source_blob": 0.0002,
    "unable_to_read_input": 20 / 3_054_430,
    "bad_image_format": 15 / 3_054_430,
    "transport_error": 12 / 3_054_430,
    "internal_storage_client_error": 10 / 3_054_430,
    "out_of_disk_space": 7 / 3_054_430,
}
MODIS_SUCCESS_RATE = 0.6550

#: Timeout-kill policy (Section 5.2): cancel a task still running after 4x
#: its historical average completion time.
MODIS_TIMEOUT_MULTIPLIER = 4.0

#: The manager predicts a task's runtime from the history of like tasks;
#: the prediction errs by a lognormal factor with this log-sigma.  At the
#: 4x threshold the error is inconsequential; at 2x it starts killing
#: healthy-but-mispredicted executions (the Section 5.2 "tighter bounds"
#: trade-off the ablation bench quantifies).
MODIS_PREDICTION_SIGMA = 0.30

#: Typical healthy task durations (Section 5.2: "a normal task execution
#: completed within 10 min"; reprojection "several minutes ... on a
#: small-size instance").  Seconds, (mean, std) of lognormals.
MODIS_TASK_DURATION_S: Dict[str, Tuple[float, float]] = {
    "source_download": (150.0, 60.0),
    "aggregation": (240.0, 90.0),
    "reprojection": (300.0, 100.0),
    "reduction": (360.0, 130.0),
}

#: Host degradation model driving Fig. 7.  Hosts flip into a degraded
#: state in which guest computation runs >= 4x slower.  Most days a tiny
#: base fraction of executions land on a slow host; on rare "epidemic"
#: days a whole slice of the fleet degrades (paper: daily timeout share
#: ranged 0% to ~16%).  Epidemic days coincide with below-average task
#: volume (small denominators are how 16% days coexist with the 0.17%
#: campaign aggregate of Table 2).
MODIS_DEGRADED_SLOWDOWN = 6.0
MODIS_DAILY_DEGRADED_BASE = 0.0005    # typical degraded-worker fraction
MODIS_EPIDEMIC_DAY_RATE = 0.06        # fraction of days with a burst
MODIS_EPIDEMIC_SEVERITY_BETA = (1.2, 5.0)  # Beta shape of burst severity
MODIS_EPIDEMIC_SEVERITY_SCALE = 0.18       # max burst fraction ~18%
MODIS_EPIDEMIC_VOLUME_FACTOR = 0.4    # task volume multiplier on burst days

#: Campaign window (Section 5.2): February through September 2010.
MODIS_CAMPAIGN_DAYS = 212

# ---------------------------------------------------------------------------
# Storage client retry policy (2009 StorageClient defaults)
# ---------------------------------------------------------------------------

STORAGE_RETRY_COUNT = 3
STORAGE_RETRY_BACKOFF_S = 1.0

# ---------------------------------------------------------------------------
# Experiment client scales used throughout Section 3
# ---------------------------------------------------------------------------

CONCURRENCY_LEVELS: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 192)


@dataclass(frozen=True)
class CalibrationSummary:
    """Grouped view of the constants, for documentation and reports."""

    network: Dict[str, object] = field(default_factory=lambda: {
        "blob_per_client_cap_mbps": BLOB_PER_CLIENT_CAP_MBPS,
        "gige_mbps": GIGE_MBPS,
        "replication_factor": REPLICATION_FACTOR,
    })
    blob: Dict[str, object] = field(default_factory=lambda: {
        "download_server_mbps": BLOB_DOWNLOAD_SERVER_MBPS,
        "upload_server_mbps": BLOB_UPLOAD_SERVER_MBPS,
        "test_size_mb": BLOB_TEST_SIZE_MB,
    })
    vm: Dict[str, object] = field(default_factory=lambda: {
        "startup_failure_rate": VM_STARTUP_FAILURE_RATE,
        "campaign_runs": VM_CAMPAIGN_RUNS,
    })
    modis: Dict[str, object] = field(default_factory=lambda: {
        "workers": MODIS_WORKER_COUNT,
        "timeout_multiplier": MODIS_TIMEOUT_MULTIPLIER,
    })
