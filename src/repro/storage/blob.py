"""The Azure Blob storage service model.

Blobs live in containers and are triple-replicated.  The bandwidth
behaviour of Fig. 1 arises from three stacked constraints:

* each small-instance client NIC is capped (~12.5 MB/s, Section 6.1);
* reads of one blob fan out over its three replicas, so the aggregate
  read ceiling is ~3x GigE (the paper measured 393.4 MB/s); writes
  funnel through the partition primary, ~1x GigE (measured 124.25 MB/s);
* the front end grants each connection at most ``A * n**-gamma`` MB/s
  with ``n`` concurrent connections (per-connection handling overhead),
  set as the front-end link's flow ceiling whenever ``n`` changes, which
  bends the per-client curve down between the NIC-limited region
  (1-8 clients) and the hard ceiling (>=128 clients).

Every operation is one pass through the shared
:class:`~repro.service.pipeline.RequestPipeline`: fault-injection
admission, base request latency, then (for data ops) a network transfer
with per-link connection accounting, then the metadata commit.
Transfers run as flows on the shared :class:`FlowNetwork`, so blob
traffic, VM-to-VM traffic and background traffic all contend for the
same simulated links.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional, Protocol, Tuple

import numpy as np

from repro import calibration as cal
from repro.network.flows import FlowNetwork
from repro.network.links import Link
from repro.service.pipeline import LatencyProfile, RequestPipeline, TransferSpec
from repro.service.spec import OpSpec
from repro.service.tracing import RequestTracer
from repro.simcore import Environment
from repro.storage.errors import (
    BlobAlreadyExistsError,
    BlobNotFoundError,
    CorruptBlobError,
)

#: Admission-time op descriptors handed to an attached fault injector.
_GET_OP = OpSpec("blob.get")
_PUT_OP = OpSpec("blob.put")


@dataclass
class BlobMeta:
    """Metadata of one stored blob.  ``etag`` and ``content_token`` are
    numbered per :class:`BlobService`, so identical runs in one process
    see identical values."""

    container: str
    name: str
    size_mb: float
    etag: int
    #: Opaque content identity; integrity checks compare it.
    content_token: int
    created_at: float = 0.0

    @property
    def path(self) -> str:
        return f"{self.container}/{self.name}"


class NetworkEndpoint(Protocol):
    """Anything with a NIC pair can talk to blob storage (VMs do)."""

    nic_tx: Link
    nic_rx: Link


class BlobService:
    """A blob storage account endpoint.

    Parameters
    ----------
    network:
        The shared flow network transfers run on.
    replicas:
        Read fan-out degree (3 in Azure; the replication ablation varies
        this).
    """

    def __init__(
        self,
        env: Environment,
        rng: np.random.Generator,
        network: FlowNetwork,
        name: str = "blobs",
        replicas: int = cal.REPLICATION_FACTOR,
        tracer: Optional[RequestTracer] = None,
    ) -> None:
        if replicas < 1:
            raise ValueError("need at least one replica")
        self.env = env
        self.rng = rng
        self.network = network
        self.name = name
        self.replicas = replicas
        self._containers: Dict[str, Dict[str, BlobMeta]] = {}
        self._etags = itertools.count(1)
        self._tokens = itertools.count(1)
        # Each blob lives on its own partition range: reads of one blob
        # share that blob's replica set (~replicas x GigE); writes into
        # one container funnel through that container's partition
        # primary (~1x GigE).  Links and connection counts are per
        # blob/container, which is what makes the Section 6.1
        # copy-striping recommendation work.
        self._download_links: Dict[Tuple[str, str], Link] = {}
        self._upload_links: Dict[str, Link] = {}
        self._download_conns: Dict[Link, int] = {}
        self._upload_conns: Dict[Link, int] = {}
        # The service curves are pure functions of the connection count;
        # memoizing per n keeps the pow() off every connection change.
        self._download_curve: Dict[int, float] = {}
        self._upload_curve: Dict[int, float] = {}
        #: Staged (uncommitted) block-blob blocks: (container, name) ->
        #: {block_id: size_mb}.
        self._staged: Dict[Tuple[str, str], Dict[str, float]] = {}
        #: Optional fault injector (see :mod:`repro.faults`); consulted
        #: at data-plane request admission, like a partition server's.
        self.fault_injector: Optional[Any] = None
        self.pipeline = RequestPipeline(
            env,
            rng,
            service=name,
            latency=LatencyProfile(fixed_frac=0.8, jitter_frac=0.2),
            network=network,
            owner=self,
            tracer=tracer,
        )

    @property
    def tracer(self) -> Optional[RequestTracer]:
        return self.pipeline.tracer

    # -- per-blob/container links and the front-end service curve ---------
    def download_link(self, container: str, name: str) -> Link:
        """The replica-set egress link serving one blob's reads."""
        key = (container, name)
        link = self._download_links.get(key)
        if link is None:
            per_replica = (
                cal.BLOB_DOWNLOAD_SERVER_MBPS / cal.REPLICATION_FACTOR
            )
            link = Link(
                f"{self.name}.read:{container}/{name}",
                per_replica * self.replicas,
            )
            self._download_links[key] = link
            self._download_conns[link] = 0
        return link

    def upload_link(self, container: str) -> Link:
        """The partition-primary ingress link for one container."""
        link = self._upload_links.get(container)
        if link is None:
            link = Link(
                f"{self.name}.write:{container}", cal.BLOB_UPLOAD_SERVER_MBPS
            )
            self._upload_links[container] = link
            self._upload_conns[link] = 0
        return link

    def _bump(self, conns: Dict[Link, int], link: Link, delta: int) -> None:
        """Count a connection in or out of a front-end link and set its
        flow ceiling from the service curve (the pipeline pokes after)."""
        conns[link] += delta
        n = max(conns[link], 1)
        if conns is self._download_conns:
            cap = self._download_curve.get(n)
            if cap is None:
                curve = (
                    cal.BLOB_DOWNLOAD_FRONTEND_A_MBPS
                    * n ** -cal.BLOB_DOWNLOAD_FRONTEND_GAMMA
                )
                cap = min(cal.BLOB_PER_CLIENT_CAP_MBPS, curve)
                self._download_curve[n] = cap
        else:
            cap = self._upload_curve.get(n)
            if cap is None:
                cap = (
                    cal.BLOB_UPLOAD_FRONTEND_A_MBPS
                    * n ** -cal.BLOB_UPLOAD_FRONTEND_GAMMA
                )
                self._upload_curve[n] = cap
        self.network.set_flow_ceiling(link, cap)

    def _download_transfer(
        self, client: NetworkEndpoint, container: str, name: str, size_mb: float
    ) -> TransferSpec:
        link = self.download_link(container, name)
        return TransferSpec(
            route=(link, client.nic_rx),
            size_mb=size_mb,
            label=f"blob-dl:{name}",
            acquire=lambda: self._bump(self._download_conns, link, +1),
            release=lambda: self._bump(self._download_conns, link, -1),
        )

    def _upload_transfer(
        self,
        client: NetworkEndpoint,
        container: str,
        size_mb: float,
        label: str,
    ) -> TransferSpec:
        link = self.upload_link(container)
        return TransferSpec(
            route=(client.nic_tx, link),
            size_mb=size_mb,
            label=label,
            acquire=lambda: self._bump(self._upload_conns, link, +1),
            release=lambda: self._bump(self._upload_conns, link, -1),
        )

    def _meta(
        self,
        container: str,
        name: str,
        size_mb: float,
        content_token: Optional[int] = None,
    ) -> BlobMeta:
        """A new blob version: the next etag, and the next content token
        unless the content is copied."""
        return BlobMeta(
            container, name, size_mb, next(self._etags),
            next(self._tokens) if content_token is None else content_token,
            created_at=self.env.now,
        )

    # -- administrative -------------------------------------------------------
    def create_container(self, container: str) -> None:
        self._containers.setdefault(container, {})

    def exists(self, container: str, name: str) -> bool:
        return name in self._containers.get(container, {})

    def get_meta(self, container: str, name: str) -> BlobMeta:
        try:
            return self._containers[container][name]
        except KeyError:
            raise BlobNotFoundError(
                f"{container}/{name}", service=self.name
            ) from None

    def seed_blob(self, container: str, name: str, size_mb: float) -> BlobMeta:
        """Administratively create a blob without simulating the upload
        (pre-population for experiments, e.g. Fig. 1's 1 GB test blob)."""
        if size_mb <= 0:
            raise ValueError(f"size_mb must be > 0, got {size_mb}")
        blobs = self._containers.setdefault(container, {})
        meta = self._meta(container, name, size_mb)
        blobs[name] = meta
        return meta

    def blob_count(self, container: str) -> int:
        return len(self._containers.get(container, {}))

    def total_stored_mb(self) -> float:
        return sum(
            blob.size_mb
            for blobs in self._containers.values()
            for blob in blobs.values()
        )

    # -- data plane ------------------------------------------------------------
    def upload(
        self,
        client: NetworkEndpoint,
        container: str,
        name: str,
        size_mb: float,
        overwrite: bool = False,
    ) -> Generator:
        """Upload a blob from ``client``; returns its BlobMeta.

        Raises BlobAlreadyExistsError if the name is taken (checked again
        at commit, so racing uploads of the same name serialize to one
        winner -- the source of ModisAzure's 'blob already exists' rows).
        """
        if size_mb <= 0:
            raise ValueError(f"size_mb must be > 0, got {size_mb}")
        blobs = self._containers.setdefault(container, {})

        def taken() -> bool:
            return not overwrite and name in blobs

        def precheck() -> None:
            if taken():
                raise BlobAlreadyExistsError(
                    f"{container}/{name}", service=self.name, op="blob.put"
                )

        def commit() -> BlobMeta:
            precheck()  # racing uploads: re-check at commit
            meta = self._meta(container, name, size_mb)
            blobs[name] = meta
            return meta

        result = yield from self.pipeline.execute(
            "blob.put",
            admit=True,
            admit_op=_PUT_OP,
            base_latency_s=cal.BLOB_REQUEST_LATENCY_S,
            precheck=precheck,
            transfer=lambda: self._upload_transfer(
                client, container, size_mb, f"blob-up:{name}"
            ),
            commit=commit,
        )
        return result

    def download(
        self,
        client: NetworkEndpoint,
        container: str,
        name: str,
        corrupt_probability: float = 0.0,
    ) -> Generator:
        """Download a blob to ``client``; returns its BlobMeta.

        ``corrupt_probability`` lets failure-injection layers surface
        CorruptBlobError at the observed Table-2 rate.
        """
        meta = self.get_meta(container, name)

        def commit() -> BlobMeta:
            if (
                corrupt_probability > 0
                and self.rng.random() < corrupt_probability
            ):
                raise CorruptBlobError(
                    f"{container}/{name}: checksum mismatch",
                    service=self.name,
                    op="blob.get",
                )
            return meta

        result = yield from self.pipeline.execute(
            "blob.get",
            admit=True,
            admit_op=_GET_OP,
            base_latency_s=cal.BLOB_REQUEST_LATENCY_S,
            transfer=lambda: self._download_transfer(
                client, container, name, meta.size_mb
            ),
            commit=commit,
        )
        return result

    def delete_blob(self, container: str, name: str) -> Generator:
        """Remove a blob."""

        def commit() -> None:
            blobs = self._containers.get(container, {})
            if name not in blobs:
                raise BlobNotFoundError(
                    f"{container}/{name}", service=self.name, op="blob.delete"
                )
            del blobs[name]

        yield from self.pipeline.execute(
            "blob.delete",
            base_latency_s=cal.BLOB_REQUEST_LATENCY_S,
            commit=commit,
        )

    # -- extended API: copies, block upload -------------------------------
    def copy_blob(
        self,
        container: str,
        src_name: str,
        dst_name: str,
        overwrite: bool = False,
    ) -> Generator:
        """Server-side copy: no client bandwidth, pays backend copy time.

        The Section 6.1 recommendation ("use data replication on the
        blob storage to expand the server-side bandwidth limit") builds
        on this: copies of a hot blob live on distinct partition ranges
        and serve reads independently.
        """
        src = self.get_meta(container, src_name)
        blobs = self._containers.setdefault(container, {})

        def precheck() -> None:
            if not overwrite and dst_name in blobs:
                raise BlobAlreadyExistsError(
                    f"{container}/{dst_name}",
                    service=self.name,
                    op="blob.copy",
                )

        def commit() -> BlobMeta:
            precheck()  # racing copies: re-check at commit
            meta = self._meta(
                container, dst_name, src.size_mb, src.content_token
            )
            blobs[dst_name] = meta
            return meta

        result = yield from self.pipeline.execute(
            "blob.copy",
            base_latency_s=cal.BLOB_REQUEST_LATENCY_S,
            precheck=precheck,
            work_s=src.size_mb / cal.BLOB_SERVER_COPY_MBPS,
            commit=commit,
        )
        return result

    def put_block(
        self,
        client: NetworkEndpoint,
        container: str,
        name: str,
        block_id: str,
        size_mb: float,
    ) -> Generator:
        """Stage one block of a block blob (uncommitted)."""
        if size_mb <= 0:
            raise ValueError(f"size_mb must be > 0, got {size_mb}")

        def commit() -> None:
            self._staged.setdefault((container, name), {})[block_id] = size_mb

        yield from self.pipeline.execute(
            "blob.put_block",
            base_latency_s=cal.BLOB_REQUEST_LATENCY_S,
            transfer=lambda: self._upload_transfer(
                client, container, size_mb, f"blob-block:{name}/{block_id}"
            ),
            commit=commit,
        )

    def put_block_list(
        self,
        container: str,
        name: str,
        block_ids: "Tuple[str, ...]",
        overwrite: bool = False,
    ) -> Generator:
        """Commit staged blocks into a blob (atomic, metadata-only)."""
        blobs = self._containers.setdefault(container, {})
        staged = self._staged.get((container, name), {})
        missing = [b for b in block_ids if b not in staged]

        def commit() -> BlobMeta:
            if missing:
                raise BlobNotFoundError(
                    f"{container}/{name}: uncommitted blocks missing:"
                    f" {missing}",
                    service=self.name,
                    op="blob.put_block_list",
                )
            if not overwrite and name in blobs:
                raise BlobAlreadyExistsError(
                    f"{container}/{name}",
                    service=self.name,
                    op="blob.put_block_list",
                )
            size = sum(staged[b] for b in block_ids)
            meta = self._meta(container, name, size)
            blobs[name] = meta
            del self._staged[(container, name)]
            return meta

        result = yield from self.pipeline.execute(
            "blob.put_block_list",
            base_latency_s=cal.BLOB_REQUEST_LATENCY_S,
            commit=commit,
        )
        return result

    def active_transfers(self) -> Tuple[int, int]:
        """(downloads, uploads) currently in flight."""
        return (
            sum(self._download_conns.values()),
            sum(self._upload_conns.values()),
        )
