"""Measurement collection: tallies and time series.

A :class:`Tally` keeps scalar samples for exact percentiles (the hedge
delay reads one per hedged call); a :class:`TimeSeries` keeps
``(time, value)`` points, such as the ModisAzure analysis's daily
timeout percentages and the monitoring layer's sampled gauges.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import List

import numpy as np


class Tally:
    """Exact percentiles over scalar observations.

    Samples are kept in ascending order: each ``observe`` costs an
    O(log n) search plus an insert memmove, and ``percentile`` is an
    O(1) lookup with no array materialized.  The hedge delay reads a
    percentile on every hedged call; reported quantiles elsewhere use
    the bounded-memory :class:`repro.observability.histogram.Histogram`.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._samples: List[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError(f"tally {self.name!r} cannot observe NaN")
        insort(self._samples, value)

    @property
    def count(self) -> int:
        return len(self._samples)

    def percentile(self, q: float) -> float:
        """``np.percentile(samples, q)`` bit for bit (its default
        ``linear`` rule and two-sided lerp), read off the sorted list."""
        n = len(self._samples)
        if n == 0:
            raise ValueError(f"tally {self.name!r} is empty")
        if not 0 <= q <= 100:
            raise ValueError("Percentiles must be in the range [0, 100]")
        vi = (n - 1) * (float(q) / 100)
        if vi >= n - 1:
            # numpy lerps the last sample with itself at weight vi + 1
            # (so an infinite last sample gives NaN).
            lo = hi = -1
        else:
            lo = math.floor(vi)
            hi = lo + 1
        t = vi - lo
        a, b = self._samples[lo], self._samples[hi]
        return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


class TimeSeries:
    """(time, value) observations, e.g. daily timeout percentages."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def record(self, time: float, value: float) -> None:
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"time series {self.name!r} requires nondecreasing times"
            )
        self._times.append(float(time))
        self._values.append(float(value))

    @property
    def times(self) -> np.ndarray:
        return np.asarray(self._times, dtype=float)

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self._values, dtype=float)

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self):
        return iter(zip(self._times, self._values))
