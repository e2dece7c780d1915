"""Client-side SDK: what the paper's test programs linked against.

Mirrors the 2009 StorageClient / Service Management API surface the
authors used: typed clients with operation timeouts and a bounded retry
policy for retryable failures, plus TCP internal endpoints for direct
VM-to-VM communication (Section 4.2).
"""

from repro.resilience.backoff import RetryPolicy
from repro.client.base import ClientTimeoutError, race_timeout
from repro.client.service_client import ServiceClient
from repro.client.blob_client import BlobClient
from repro.client.table_client import TableClient
from repro.client.queue_client import QueueClient
from repro.client.management import ManagementClient
from repro.client.tcp import TcpEndpointPair
from repro.client.parallel import StripedReader, parallel_upload, replicate_blob

__all__ = [
    "BlobClient",
    "ClientTimeoutError",
    "ManagementClient",
    "QueueClient",
    "RetryPolicy",
    "ServiceClient",
    "StripedReader",
    "TableClient",
    "TcpEndpointPair",
    "parallel_upload",
    "race_timeout",
    "replicate_blob",
]
