"""Workload drivers: the paper's benchmark programs, re-implemented.

Each driver builds a fresh simulated platform, runs the paper's exact
protocol (Sections 3-4) against it, and returns structured results the
experiment modules turn into tables/figures.
"""

from repro.workloads.harness import Platform, build_platform
from repro.workloads.blob_bench import BlobBenchResult, run_blob_test, sweep_blob
from repro.workloads.table_bench import (
    TableBenchResult,
    run_table_test,
    run_property_filter_test,
    sweep_table,
)
from repro.workloads.queue_bench import (
    QueueBenchResult,
    run_queue_test,
    sweep_queue,
)
from repro.workloads.vm_bench import VMCampaignResult, run_vm_campaign
from repro.workloads.tcp_bench import TcpBenchResult, run_tcp_test

__all__ = [
    "BlobBenchResult",
    "Platform",
    "QueueBenchResult",
    "TableBenchResult",
    "TcpBenchResult",
    "VMCampaignResult",
    "build_platform",
    "run_blob_test",
    "run_property_filter_test",
    "run_queue_test",
    "run_table_test",
    "run_tcp_test",
    "run_vm_campaign",
    "sweep_blob",
    "sweep_queue",
    "sweep_table",
]
