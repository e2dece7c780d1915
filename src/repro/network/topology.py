"""Datacenter topology: hosts, racks, and oversubscribed uplinks.

The model is the classic 2009-era tree: hosts with GigE NICs sit in
racks behind a top-of-rack (ToR) switch; each rack has an uplink into an
aggregation core whose capacity is ``rack_uplink_mbps`` (oversubscribed
relative to the sum of host NICs).  VM-to-VM paths are:

* same host  -> no network links (memory-speed, modelled by a cap),
* same rack  -> srcNIC -> dstNIC,
* cross rack -> srcNIC -> src rack uplink -> dst rack downlink -> dstNIC.

Hypervisor NIC scheduling caps small VMs at ~12.5 MB/s (Section 6.1);
that cap is applied per-VM, not per-host, so several small VMs on one
host can together exceed one VM's share but never the host NIC.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

from repro.network.links import Link
from repro import calibration as cal


class Host:
    """A physical machine with a full-duplex GigE NIC."""

    _ids = itertools.count()

    def __init__(self, rack: "Rack", nic_mbps: float) -> None:
        self.id = next(Host._ids)
        self.rack = rack
        self.name = f"host{self.id}"
        self.nic_tx = Link(f"{self.name}.tx", nic_mbps)
        self.nic_rx = Link(f"{self.name}.rx", nic_mbps)

    def __repr__(self) -> str:
        return f"<Host {self.name} rack={self.rack.index}>"


class Rack:
    """A rack: a set of hosts behind a ToR switch with one uplink."""

    def __init__(self, index: int, uplink_mbps: float) -> None:
        self.index = index
        self.hosts: List[Host] = []
        self.uplink_tx = Link(f"rack{index}.up", uplink_mbps)
        self.uplink_rx = Link(f"rack{index}.down", uplink_mbps)

    def __repr__(self) -> str:
        return f"<Rack {self.index} hosts={len(self.hosts)}>"


class Datacenter:
    """The physical plant underlying compute and storage simulations.

    Parameters
    ----------
    racks:
        Number of racks.
    hosts_per_rack:
        Hosts in each rack.
    host_nic_mbps:
        Full-duplex NIC capacity per host (default GigE = 125 MB/s).
    oversubscription:
        Ratio of summed host NICs to rack uplink capacity.  4:1 was
        typical of 2009 datacenters and produces the congested cross-rack
        population of Fig. 5.
    """

    def __init__(
        self,
        racks: int = 8,
        hosts_per_rack: int = 16,
        host_nic_mbps: float = cal.GIGE_MBPS,
        oversubscription: float = 4.0,
    ) -> None:
        if racks < 1 or hosts_per_rack < 1:
            raise ValueError("need at least one rack and one host")
        if oversubscription < 1.0:
            raise ValueError("oversubscription must be >= 1")
        self.host_nic_mbps = host_nic_mbps
        uplink = host_nic_mbps * hosts_per_rack / oversubscription
        #: (src.id, dst.id) -> link tuple.  Paths are static, and the
        #: TCP benches resolve the same pairs for every sample; caching
        #: returns the identical tuple object instead of rebuilding it.
        self._path_cache: Dict[Tuple[int, int], Tuple[Link, ...]] = {}
        self.racks: List[Rack] = []
        self.hosts: List[Host] = []
        for r in range(racks):
            rack = Rack(r, uplink)
            for _ in range(hosts_per_rack):
                host = Host(rack, host_nic_mbps)
                rack.hosts.append(host)
                self.hosts.append(host)
            self.racks.append(rack)

    def path(self, src: Host, dst: Host) -> Tuple[Link, ...]:
        """Links crossed by a flow from ``src`` to ``dst``."""
        key = (src.id, dst.id)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        if src is dst:
            links: Tuple[Link, ...] = ()
        elif src.rack is dst.rack:
            links = (src.nic_tx, dst.nic_rx)
        else:
            links = (
                src.nic_tx,
                src.rack.uplink_tx,
                dst.rack.uplink_rx,
                dst.nic_rx,
            )
        self._path_cache[key] = links
        return links

    def same_rack(self, src: Host, dst: Host) -> bool:
        return src.rack is dst.rack

    def host_count(self) -> int:
        return len(self.hosts)

    def __repr__(self) -> str:
        return (
            f"<Datacenter racks={len(self.racks)}"
            f" hosts={len(self.hosts)}>"
        )
