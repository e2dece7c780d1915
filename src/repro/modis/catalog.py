"""Synthetic MODIS source-data catalog.

Section 5.1: "the size of the data for 10 years of the entire
continental United States is approximately 4 TB spread across 585 K
input source files", fetched over FTP, with a typical task consuming
3-4 source files of several-to-tens of MB each.

The synthetic catalog covers the continental US with a grid of
sinusoidal tiles; each (tile, day, band-group) triple is one source
file.  The request generator draws tiles and days from it.
"""

from __future__ import annotations

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


class ModisCatalog:
    """The synthetic source-file catalog: its tiles, days and size."""

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

    @property
    def total_size_tb(self) -> float:
        # Mean file size x count: files of 2-12.3 MB ("several to tens
        # of MB"), mean ~7.15 MB -> ~4 TB at 585k files scale.
        return self.total_files * 7.15 / 1e6
