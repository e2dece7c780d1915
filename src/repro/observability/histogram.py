"""Log-bucketed, mergeable streaming histograms.

The monitoring layer needs percentiles that do not depend on raw
records: :class:`~repro.service.tracing.RequestTracer` keeps none, and
a registry tally that keeps every sample grows without bound on a long
run.  A :class:`Histogram`
replaces raw-record retention as the percentile source: geometric
buckets (each ``growth`` times wider than the last) give a bounded
*relative* error on any quantile — ``sqrt(growth) - 1`` (~2% at the
default ``growth=1.04``) — while count, sum, min and max stay exact and
two histograms with the same shape merge by adding bucket counts.

This is the same design as HdrHistogram / DDSketch collapsed to its
essentials; the monitoring layers of large storage systems all converge
on it because raw percentile samples are the first thing that stops
fitting in memory.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

import numpy as np

_isfinite = math.isfinite
_log = math.log


class Histogram:
    """Streaming scalar distribution with bounded-error percentiles.

    Parameters
    ----------
    min_value:
        Smallest resolvable positive value; observations in
        ``(0, min_value)`` clamp into the first bucket and values
        ``<= 0`` are counted separately as zeros.
    growth:
        Geometric bucket growth factor; relative quantile error is
        bounded by ``sqrt(growth) - 1``.
    """

    def __init__(
        self,
        name: str = "",
        min_value: float = 1e-6,
        growth: float = 1.04,
    ) -> None:
        if min_value <= 0:
            raise ValueError("min_value must be > 0")
        if growth <= 1.0:
            raise ValueError("growth must be > 1")
        self.name = name
        self.min_value = min_value
        self.growth = growth
        self._log_growth = math.log(growth)
        self._counts: Dict[int, int] = {}
        self._zero = 0
        self._n = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- ingestion ---------------------------------------------------------
    def _index(self, value: float) -> int:
        if value <= self.min_value:
            return 0
        return int(math.log(value / self.min_value) / self._log_growth) + 1

    def _representative(self, index: int) -> float:
        """Geometric midpoint of a bucket (minimizes relative error)."""
        if index == 0:
            return self.min_value
        lo = self.min_value * self.growth ** (index - 1)
        return lo * math.sqrt(self.growth)

    def observe(self, value: float) -> None:
        """Add one sample; NaN or ±inf raises :class:`ValueError`
        before any state changes, as in :meth:`observe_batch`.

        The same arithmetic as :meth:`_index` and the builtin
        ``min``/``max``, inlined: this runs once per traced request."""
        value = float(value)
        if not _isfinite(value):
            raise ValueError(
                f"histogram {self.name!r}: cannot observe non-finite values"
            )
        self._n += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value <= 0.0:
            self._zero += 1
            return
        min_value = self.min_value
        idx = (
            0 if value <= min_value
            else int(_log(value / min_value) / self._log_growth) + 1
        )
        counts = self._counts
        counts[idx] = counts.get(idx, 0) + 1

    def observe_batch(self, values: Sequence[float]) -> None:
        """Vectorized :meth:`observe` over a whole array of samples.

        Bucket indices come from ``q = (log(v) - log(min_value)) *
        (1 / log(growth))`` and ``int(q) + 1``.  ``q`` differs from the
        scalar path's ``log(v / min_value) / log(growth)`` by at most
        ``2e-15 * (1 + |log max| + |log min_value|) / log(growth)`` (a
        few ulps of NumPy's log per term, plus one rounding per
        operation); values whose ``q`` lies within ``tol``, 500 times
        that bound and at least ``1e-9``, of an integer are re-indexed
        by the scalar path, so bucket counts (and hence percentiles) are
        identical to observing each element in turn.  Counting is O(n),
        one ``bincount``, with no sort.  The running sum uses NumPy's
        pairwise summation, which can differ from the scalar path's
        sequential adds in the last few ulps.  A NaN or infinite value
        raises :class:`ValueError` before any state changes.  ``values``
        is never modified.
        """
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1:
            arr = arr.reshape(-1)
        if arr.size == 0:
            return
        lo = float(arr.min())
        hi = float(arr.max())
        # NaN propagates through min/max, so this catches every
        # non-finite value without another pass.
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(
                f"histogram {self.name!r}: cannot observe non-finite values"
            )
        self._n += int(arr.size)
        self._sum += float(arr.sum())
        self._min = min(self._min, lo)
        self._max = max(self._max, hi)
        counts = self._counts
        big = arr
        if lo <= self.min_value:
            big = arr[arr > self.min_value]
            zeros = int(np.count_nonzero(arr <= 0.0)) if lo <= 0.0 else 0
            self._zero += zeros
            clamped = int(arr.size - big.size) - zeros
            if clamped:
                counts[0] = counts.get(0, 0) + clamped
            if big.size == 0:
                return
        log_min = _log(self.min_value)
        quotient = np.log(big)
        quotient -= log_min
        quotient *= 1.0 / self._log_growth
        idx = quotient.astype(np.intp)
        # ``quotient`` becomes |frac - 0.5|, which exceeds ``0.5 - tol``
        # exactly when ``q`` is within ``tol`` of an integer.
        quotient -= idx
        quotient -= 0.5
        np.abs(quotient, out=quotient)
        tol = 1e-12 * max(
            1e3, (1.0 + abs(_log(hi)) + abs(log_min)) / self._log_growth
        )
        edge = np.flatnonzero(quotient > 0.5 - tol)
        if edge.size:
            idx[edge] = [self._index(v) - 1 for v in big[edge].tolist()]
        reps = np.bincount(idx)
        present = np.flatnonzero(reps)
        # The scalar index is ``int(...) + 1``.
        for index, count in zip(
            (present + 1).tolist(), reps[present].tolist()
        ):
            counts[index] = counts.get(index, 0) + count

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (shapes must match)."""
        if (other.min_value, other.growth) != (self.min_value, self.growth):
            raise ValueError(
                "cannot merge histograms with different bucket shapes: "
                f"({self.min_value}, {self.growth}) vs "
                f"({other.min_value}, {other.growth})"
            )
        for idx, count in other._counts.items():
            self._counts[idx] = self._counts.get(idx, 0) + count
        self._zero += other._zero
        self._n += other._n
        self._sum += other._sum
        if other._n:
            self._min = min(self._min, other._min)
            self._max = max(self._max, other._max)

    # -- exact aggregates --------------------------------------------------
    @property
    def count(self) -> int:
        return self._n

    @property
    def total(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        if self._n == 0:
            raise ValueError(f"histogram {self.name!r} is empty")
        return self._sum / self._n

    @property
    def minimum(self) -> float:
        if self._n == 0:
            raise ValueError(f"histogram {self.name!r} is empty")
        return self._min

    @property
    def maximum(self) -> float:
        if self._n == 0:
            raise ValueError(f"histogram {self.name!r} is empty")
        return self._max

    # -- quantiles ---------------------------------------------------------
    def percentile(self, q: float) -> float:
        """The ``q``-th percentile, within ``sqrt(growth) - 1`` relative
        error.

        Exact at the extremes: results clamp to the observed min/max.
        """
        if self._n == 0:
            raise ValueError(f"histogram {self.name!r} is empty")
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        target = max(1, math.ceil(self._n * q / 100.0))
        seen = self._zero
        if seen >= target:
            return max(0.0, self._min)
        for idx in sorted(self._counts):
            seen += self._counts[idx]
            if seen >= target:
                value = self._representative(idx)
                return min(max(value, self._min), self._max)
        return self._max  # pragma: no cover - defensive

    def fraction_below(self, threshold: float) -> float:
        """P(X <= threshold): exact at bucket edges, within one bucket
        of relative error otherwise."""
        if self._n == 0:
            raise ValueError(f"histogram {self.name!r} is empty")
        if threshold <= 0:
            return self._zero / self._n
        limit = self._index(threshold)
        below = self._zero
        for idx, count in self._counts.items():
            if idx < limit:
                below += count
            elif idx == limit and threshold >= self._representative(idx):
                below += count
        return below / self._n

    # -- round-trip --------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-able form; :meth:`from_dict` restores it exactly."""
        return {
            "name": self.name,
            "min_value": self.min_value,
            "growth": self.growth,
            "counts": {str(k): v for k, v in sorted(self._counts.items())},
            "zero": self._zero,
            "n": self._n,
            "sum": self._sum,
            "min": self._min if self._n else None,
            "max": self._max if self._n else None,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Histogram":
        hist = cls(
            name=str(payload.get("name", "")),
            min_value=float(payload["min_value"]),  # type: ignore[arg-type]
            growth=float(payload["growth"]),  # type: ignore[arg-type]
        )
        hist._counts = {
            int(k): int(v)
            for k, v in payload.get("counts", {}).items()  # type: ignore[union-attr]
        }
        hist._zero = int(payload.get("zero", 0))  # type: ignore[arg-type]
        hist._n = int(payload["n"])  # type: ignore[arg-type]
        hist._sum = float(payload["sum"])  # type: ignore[arg-type]
        if hist._n:
            hist._min = float(payload["min"])  # type: ignore[arg-type]
            hist._max = float(payload["max"])  # type: ignore[arg-type]
        return hist

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        if self._n == 0:
            return f"<Histogram {self.name!r} empty>"
        return (
            f"<Histogram {self.name!r} n={self._n} mean={self.mean:.4g}"
            f" p50={self.percentile(50):.4g} p99={self.percentile(99):.4g}>"
        )


def merge_histograms(
    histograms: Sequence[Histogram], name: Optional[str] = None
) -> Histogram:
    """Merge same-shaped histograms into a fresh one (inputs untouched)."""
    if not histograms:
        raise ValueError("need at least one histogram to merge")
    first = histograms[0]
    out = Histogram(
        name if name is not None else first.name,
        min_value=first.min_value,
        growth=first.growth,
    )
    for hist in histograms:
        out.merge(hist)
    return out


__all__ = ["Histogram", "merge_histograms"]
