"""Simulated Windows Azure storage services.

Three services sit behind partition servers that model the 2009-era
storage stack's contention behaviour:

* :mod:`repro.storage.blob`  -- containers of triple-replicated blobs;
  reads fan out over replicas (~3x GigE aggregate), writes funnel
  through the partition primary (~1x GigE).
* :mod:`repro.storage.table` -- schemaless entities in partitions with
  PartitionKey/RowKey indexing, unconditional updates and full-partition
  property-filter scans.
* :mod:`repro.storage.queue` -- triple-replicated FIFO-ish queues with
  visibility timeouts.

The shared front end (:mod:`repro.storage.partition`) provides per-key
exclusive latches, a bounded CPU pool, a per-connection service curve
and overload shedding -- the mechanisms from which the paper's Fig. 2
and Fig. 3 concurrency shapes emerge.
"""

from repro.service.spec import OpSpec
from repro.storage.account import (
    GeoReplicatedAccount,
    ReplicationConfig,
    StorageAccount,
)
from repro.storage.blob import BlobService, BlobMeta
from repro.storage.errors import (
    AccountFailoverError,
    BlobAlreadyExistsError,
    BlobNotFoundError,
    CorruptBlobError,
    EntityAlreadyExistsError,
    EntityNotFoundError,
    OperationTimeoutError,
    QueueEmptyError,
    ServerBusyError,
    StorageError,
)
from repro.storage.partition import PartitionServer
from repro.storage.queue import QueueMessage, QueueService
from repro.storage.table import Entity, TableService

__all__ = [
    "AccountFailoverError",
    "BlobAlreadyExistsError",
    "BlobMeta",
    "BlobNotFoundError",
    "BlobService",
    "CorruptBlobError",
    "Entity",
    "EntityAlreadyExistsError",
    "EntityNotFoundError",
    "GeoReplicatedAccount",
    "OpSpec",
    "OperationTimeoutError",
    "PartitionServer",
    "QueueEmptyError",
    "QueueMessage",
    "QueueService",
    "ReplicationConfig",
    "ServerBusyError",
    "StorageAccount",
    "StorageError",
    "TableService",
]
