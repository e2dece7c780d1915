"""Task model: the unit of work ModisAzure executes and retries."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Tuple

from repro import calibration as cal
from repro.simcore import Distribution


class TaskKind(enum.Enum):
    """The four task classes of Table 2."""

    SOURCE_DOWNLOAD = "source_download"
    AGGREGATION = "aggregation"
    REPROJECTION = "reprojection"
    REDUCTION = "reduction"


class TaskOutcome(enum.Enum):
    """Per-execution outcome, aligned with Table 2's failure taxonomy."""

    SUCCESS = "success"
    UNKNOWN_FAILURE = "unknown_failure"
    BLOB_ALREADY_EXISTS = "blob_already_exists"
    UNKNOWN_NULL_LOG = "unknown_null_log"
    DOWNLOAD_SOURCE_FAILED = "download_source_failed"
    CONNECTION_FAILURE = "connection_failure"
    VM_EXECUTION_TIMEOUT = "vm_execution_timeout"
    OPERATION_TIMEOUT = "operation_timeout"
    CORRUPT_BLOB_READ = "corrupt_blob_read"
    SERVER_BUSY = "server_busy"
    BLOB_READ_FAIL = "blob_read_fail"
    NONEXISTENT_SOURCE_BLOB = "nonexistent_source_blob"
    UNABLE_TO_READ_INPUT = "unable_to_read_input"
    BAD_IMAGE_FORMAT = "bad_image_format"
    TRANSPORT_ERROR = "transport_error"
    INTERNAL_STORAGE_CLIENT_ERROR = "internal_storage_client_error"
    OUT_OF_DISK_SPACE = "out_of_disk_space"
    USER_CODE_ERROR = "user_code_error"


#: Outcomes that end a task's retry loop despite being logged as
#: failures: "blob already exists" means another worker produced the
#: output; null-log downloads are verified via the blob, not the log;
#: user-code bugs fail deterministically, so retries cannot help.
TERMINAL_FAILURES = frozenset(
    {
        TaskOutcome.BLOB_ALREADY_EXISTS,
        TaskOutcome.UNKNOWN_NULL_LOG,
        TaskOutcome.USER_CODE_ERROR,
    }
)

#: Terminal failures after which the task's product exists (completed).
TERMINAL_COMPLETE = frozenset(
    {TaskOutcome.BLOB_ALREADY_EXISTS, TaskOutcome.UNKNOWN_NULL_LOG}
)


#: Nominal (healthy-VM) duration distributions per kind.
DURATION_DISTS = {
    TaskKind(kind): Distribution.lognormal_from_mean_std(mean, std)
    for kind, (mean, std) in cal.MODIS_TASK_DURATION_S.items()
}

_task_ids = itertools.count(1)


@dataclass
class ExecutionRecord:
    """One row of the task-execution log (the input to Table 2/Fig. 7)."""

    task_id: int
    kind: TaskKind
    attempt: int
    worker: int
    started_at: float
    finished_at: float
    outcome: TaskOutcome
    degraded_worker: bool = False

    @property
    def duration_s(self) -> float:
        return self.finished_at - self.started_at

    @property
    def day(self) -> int:
        return int(self.started_at // 86_400)


@dataclass
class Task:
    """One distinct unit of work (may run multiple times via retries)."""

    kind: TaskKind
    request_id: int
    tile: Tuple[int, int] = (8, 4)
    day_index: int = 0
    nominal_duration_s: float = 300.0
    #: The task manager's runtime estimate for this task (history-based,
    #: so it carries prediction error); 0 means "use nominal".
    predicted_duration_s: float = 0.0
    id: int = field(default_factory=lambda: next(_task_ids))
    attempts: int = 0
    completed: bool = False
    abandoned: bool = False

    @property
    def finished(self) -> bool:
        return self.completed or self.abandoned

    @property
    def expected_duration_s(self) -> float:
        """What the manager believes this task should take."""
        return self.predicted_duration_s or self.nominal_duration_s

    def __repr__(self) -> str:
        return (
            f"<Task #{self.id} {self.kind.value} req={self.request_id}"
            f" attempts={self.attempts}>"
        )
