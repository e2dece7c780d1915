"""Windowed availability accounting: per-minute good/total folding.

Naldi's cloud-availability surveys (and the paper's Section 6.3
"monitor everything" lesson) measure availability *user-side over
fixed windows*: the unit of damage is a bad minute, not a bad request.
:class:`MinuteAvailability` is the one accumulator both campaign
drivers share — the event-level replay feeds it one operation at a
time, the piecewise-stationary fast path feeds it whole stationary
windows via :meth:`observe_batch` — so minute counts, worst-minute
availability and the SLO engine's burn rates are computed from the
identical arrays either way.

The accumulator is **mergeable and window-invariant by construction**:
folding a stream of observations split at arbitrary window boundaries
into separate accumulators and merging them yields exactly the counts
of one unsplit accumulator (integer adds commute), and therefore the
same availability SLO burn.  That invariance is what licenses the fast
path to solve stationary windows independently; it is pinned by
tests/observability/test_windows.py.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MinuteAvailability"]


class MinuteAvailability:
    """Fixed-horizon per-minute (good, total) operation counts.

    Minutes are indexed ``0 .. n_minutes - 1``; observations beyond the
    horizon clamp into the last minute (the grace-drain convention the
    campaigns use).  Only minutes with at least one operation are
    *sampled*; all summary statistics are over sampled minutes.
    """

    def __init__(self, n_minutes: int, window_s: float = 60.0) -> None:
        if n_minutes < 1:
            raise ValueError("n_minutes must be >= 1")
        if window_s <= 0:
            raise ValueError("window_s must be > 0")
        self.n_minutes = int(n_minutes)
        self.window_s = float(window_s)
        self.ok = np.zeros(self.n_minutes, dtype=np.int64)
        self.total = np.zeros(self.n_minutes, dtype=np.int64)

    # -- ingestion ---------------------------------------------------------
    def minute_of(self, t: float) -> int:
        """The (clamped) minute index an operation issued at ``t`` lands
        in — issue-time attribution, the campaign convention."""
        return min(int(t // self.window_s), self.n_minutes - 1)

    def observe(self, minute: int, ok: bool) -> None:
        """Count one operation in ``minute`` (scalar event-level path)."""
        self.total[minute] += 1
        if ok:
            self.ok[minute] += 1

    def observe_batch(self, minutes, ok_mask) -> None:
        """Fold a whole window of operations in one call.

        ``minutes`` are (clamped) minute indices, ``ok_mask`` a boolean
        success flag per operation.  Duplicate indices accumulate
        (``np.add.at``), so the result equals observing each operation
        in turn.
        """
        idx = np.asarray(minutes, dtype=np.int64).reshape(-1)
        oks = np.asarray(ok_mask, dtype=bool).reshape(-1)
        if idx.size != oks.size:
            raise ValueError("minutes and ok_mask must have equal length")
        if idx.size == 0:
            return
        if idx.min() < 0 or idx.max() >= self.n_minutes:
            raise ValueError("minute index out of range")
        np.add.at(self.total, idx, 1)
        np.add.at(self.ok, idx, oks.astype(np.int64))

    def merge(self, other: "MinuteAvailability") -> None:
        """Fold another accumulator over the same horizon into this one."""
        if (other.n_minutes, other.window_s) != (
            self.n_minutes, self.window_s
        ):
            raise ValueError(
                "cannot merge MinuteAvailability with different horizons: "
                f"({self.n_minutes}, {self.window_s}) vs "
                f"({other.n_minutes}, {other.window_s})"
            )
        self.ok += other.ok
        self.total += other.total

    # -- summaries (over sampled minutes) ----------------------------------
    @property
    def minutes(self) -> int:
        return int((self.total > 0).sum())

    @property
    def bad_minutes(self) -> int:
        return int((self.ok < self.total).sum())

    @property
    def zero_minutes(self) -> int:
        return int(((self.ok == 0) & (self.total > 0)).sum())

    def availabilities(self) -> np.ndarray:
        """ok / total for every minute with at least one operation."""
        sampled = self.total > 0
        return self.ok[sampled] / self.total[sampled]

    @property
    def worst_minute_availability(self) -> float:
        values = self.availabilities()
        return float(values.min()) if values.size else 1.0

    @property
    def mean_minute_availability(self) -> float:
        # A sequential Python sum: numpy's pairwise sum can round
        # differently, and the campaign records pin this one.
        values = self.availabilities().tolist()
        return sum(values) / len(values) if values else 1.0

    def __repr__(self) -> str:
        return (
            f"<MinuteAvailability {self.minutes}/{self.n_minutes} sampled"
            f" bad={self.bad_minutes} dark={self.zero_minutes}>"
        )
