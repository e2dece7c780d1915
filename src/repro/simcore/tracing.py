"""Measurement collection: tallies and time series.

A :class:`Tally` keeps scalar samples with exact percentiles (the hedge
delay reads one per hedged call); a :class:`TimeSeries` keeps
``(time, value)`` points, such as the ModisAzure analysis's daily
timeout percentages and the monitoring layer's sampled gauges.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from typing import Iterable, List

import numpy as np


class Tally:
    """Streaming summary of scalar observations (Welford's algorithm).

    Keeps all samples as well, retained in ascending order (``samples()``
    returns them sorted): each ``observe`` costs an O(log n) search plus
    an insert memmove, ``percentile`` is an O(1) lookup and
    ``fraction_below`` an O(log n) search, with no array materialized.
    The hedge delay reads a percentile on every hedged call.  Sample
    counts in this project are modest (≤ a few million floats).
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._samples: List[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError(f"tally {self.name!r} cannot observe NaN")
        self._n += 1
        delta = value - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (value - self._mean)
        insort(self._samples, value)

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    @property
    def count(self) -> int:
        return self._n

    @property
    def mean(self) -> float:
        if self._n == 0:
            raise ValueError(f"tally {self.name!r} is empty")
        return self._mean

    @property
    def std(self) -> float:
        """Population standard deviation (matches the paper's STD columns)."""
        if self._n == 0:
            raise ValueError(f"tally {self.name!r} is empty")
        return math.sqrt(self._m2 / self._n)

    @property
    def minimum(self) -> float:
        if self._n == 0:
            raise ValueError(f"tally {self.name!r} is empty")
        return self._samples[0]

    @property
    def maximum(self) -> float:
        if self._n == 0:
            raise ValueError(f"tally {self.name!r} is empty")
        return self._samples[-1]

    @property
    def total(self) -> float:
        return self._mean * self._n

    def percentile(self, q: float) -> float:
        """``np.percentile(samples, q)`` bit for bit (its default
        ``linear`` rule and two-sided lerp), read off the sorted list."""
        if self._n == 0:
            raise ValueError(f"tally {self.name!r} is empty")
        if not 0 <= q <= 100:
            raise ValueError("Percentiles must be in the range [0, 100]")
        vi = (self._n - 1) * (float(q) / 100)
        if vi >= self._n - 1:
            # numpy lerps the last sample with itself at weight vi + 1
            # (so an infinite last sample gives NaN).
            lo = hi = -1
        else:
            lo = math.floor(vi)
            hi = lo + 1
        t = vi - lo
        a, b = self._samples[lo], self._samples[hi]
        return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t

    def fraction_below(self, threshold: float) -> float:
        """P(X <= threshold) over the observed samples."""
        if self._n == 0:
            raise ValueError(f"tally {self.name!r} is empty")
        return bisect_right(self._samples, threshold) / self._n

    def samples(self) -> np.ndarray:
        return np.asarray(self._samples, dtype=float)

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        if self._n == 0:
            return f"<Tally {self.name!r} empty>"
        return (
            f"<Tally {self.name!r} n={self._n} mean={self._mean:.4g}"
            f" std={self.std:.4g} min={self.minimum:.4g}"
            f" max={self.maximum:.4g}>"
        )


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
