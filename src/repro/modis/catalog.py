"""Synthetic MODIS source-data catalog.

Section 5.1: "the size of the data for 10 years of the entire
continental United States is approximately 4 TB spread across 585 K
input source files", fetched over FTP, with a typical task consuming
3-4 source files of several-to-tens of MB each.

The synthetic catalog covers the continental US with a grid of
sinusoidal tiles; each (tile, day, band-group) triple names one granule
with a deterministic pseudo-size.  Granule names are stable, so blob
caching ("has this already been downloaded?") works exactly as in the
real system.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Tuple

#: Continental-US tile grid (MODIS sinusoidal h08-h13 x v04-v06 is ~16
#: land tiles; we use a named 4x4 grid).
TILE_GRID: Tuple[Tuple[int, int], ...] = tuple(
    (h, v) for h in range(8, 12) for v in range(4, 8)
)

#: Spectral band groups per granule day (the 36 bands ship grouped).
BAND_GROUPS = 10

#: Catalog depth in days (10 years of daily coverage).
CATALOG_DAYS = 3650


@dataclass(frozen=True)
class SourceGranule:
    """One FTP-hosted source file."""

    tile: Tuple[int, int]
    day: int
    band_group: int
    size_mb: float

    @property
    def name(self) -> str:
        h, v = self.tile
        return f"MOD09.h{h:02d}v{v:02d}.d{self.day:04d}.b{self.band_group}"


class ModisCatalog:
    """Deterministic synthetic granule catalog."""

    def __init__(
        self,
        tiles: Tuple[Tuple[int, int], ...] = TILE_GRID,
        days: int = CATALOG_DAYS,
        band_groups: int = BAND_GROUPS,
    ) -> None:
        if not tiles or days < 1 or band_groups < 1:
            raise ValueError("catalog needs tiles, days and band groups")
        self.tiles = tiles
        self.days = days
        self.band_groups = band_groups

    @property
    def total_files(self) -> int:
        return len(self.tiles) * self.days * self.band_groups

    def granule(self, tile: Tuple[int, int], day: int, band_group: int) -> SourceGranule:
        if tile not in self.tiles:
            raise ValueError(f"tile {tile} not in catalog")
        if not 0 <= day < self.days:
            raise ValueError(f"day {day} outside catalog range")
        if not 0 <= band_group < self.band_groups:
            raise ValueError(f"band group {band_group} out of range")
        return SourceGranule(
            tile=tile, day=day, band_group=band_group,
            size_mb=self._size_mb(tile, day, band_group),
        )

    @property
    def total_size_tb(self) -> float:
        # Mean granule size x count; sizes are deterministic uniforms in
        # [2, 12.3] MB, mean ~7.15 MB -> ~4 TB at 585k files scale.
        return self.total_files * 7.15 / 1e6

    # -- deterministic pseudo-randomness ------------------------------------
    @staticmethod
    def _digest(key: str) -> int:
        return int.from_bytes(
            hashlib.sha256(key.encode()).digest()[:8], "little"
        )

    def _size_mb(self, tile, day, band_group) -> float:
        u = self._digest(f"{tile}/{day}/{band_group}") / 2**64
        return 2.0 + u * 10.3  # several MB to tens of MB (Section 5.1)
