"""ModisAzure: the paper's eScience pipeline application (Section 5).

A bag-of-tasks satellite-imagery pipeline at ~200 worker instances:
user requests decompose into source-download, reprojection, aggregation
and reduction tasks flowing through Azure queues, with blob storage for
source/intermediate/final products, table storage for task status, a
task monitor enforcing the 4x timeout-kill-retry rule, and the host
degradation process that makes that rule necessary.

The package reproduces Table 2 (task/failure breakdown) and Fig. 7
(daily VM-timeout percentage); Fig. 6, the architecture, is
``repro.modis.app``.
"""

from repro.modis.catalog import ModisCatalog, SourceGranule
from repro.modis.tasks import Task, TaskKind, TaskOutcome
from repro.modis.failures import FailureModel
from repro.modis.generator import RequestGenerator, UserRequest
from repro.modis.monitor import TaskMonitor
from repro.modis.worker import WorkerPool
from repro.modis.app import ModisAzureApp, ModisConfig, ModisRunResult
from repro.modis.analysis import daily_timeout_series, failure_breakdown, task_breakdown

__all__ = [
    "FailureModel",
    "ModisAzureApp",
    "ModisCatalog",
    "ModisConfig",
    "ModisRunResult",
    "RequestGenerator",
    "SourceGranule",
    "Task",
    "TaskKind",
    "TaskMonitor",
    "TaskOutcome",
    "UserRequest",
    "WorkerPool",
    "daily_timeout_series",
    "failure_breakdown",
    "task_breakdown",
]
