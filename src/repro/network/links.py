"""Capacitated network links."""

from __future__ import annotations


class Link:
    """A unidirectional capacity constraint shared by flows.

    Links are pure capacity records; sharing behaviour lives in the
    max-min allocator.  ``capacity_mbps`` uses MB/s (the paper's unit),
    not megabits.  Links compare and hash by identity (the default
    object protocol, done in C): the allocator keys every per-link
    table by link, and its results do not depend on iteration order.
    """

    __slots__ = ("name", "capacity_mbps")

    def __init__(self, name: str, capacity_mbps: float) -> None:
        if capacity_mbps <= 0:
            raise ValueError(f"link {name!r}: capacity must be > 0")
        self.name = name
        self.capacity_mbps = float(capacity_mbps)

    def __repr__(self) -> str:
        return f"<Link {self.name} {self.capacity_mbps} MB/s>"
