"""Round-trip latency model for instance-to-instance TCP.

Fig. 4 of the paper is a histogram of 1-byte round-trip times between
paired small instances: ~50% at 1 ms, ~75% at <= 2 ms, and a small
multi-millisecond tail.  We model the RTT as a placement-conditioned
mixture -- same-rack pairs draw from the low-millisecond support while
any pair (same- or cross-rack) occasionally hits the switch-queueing
tail; cross-rack pairs add a per-hop penalty.
"""

from __future__ import annotations

import numpy as np

from repro import calibration as cal
from repro.simcore import Distribution


class LatencyModel:
    """Samples TCP round-trip times (seconds)."""

    #: Extra RTT per switch hop beyond the ToR, seconds.
    CROSS_RACK_HOP_S = 0.00035

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        base = list(cal.TCP_LATENCY_SAME_RACK_MS)
        tail = list(cal.TCP_LATENCY_TAIL_MS)
        support = [v for v, _ in base + tail]
        weights = [w for _, w in base + tail]
        self._rtt_ms = Distribution.empirical(support, weights)

    def sample_rtt(self, same_rack: bool = True) -> float:
        """One round-trip time in seconds."""
        rtt_ms = self._rtt_ms.sample(self._rng)
        # Sub-millisecond jitter so the distribution is not purely atomic;
        # the experiment reports on the paper's 1 ms measurement grid.
        rtt_ms += float(self._rng.uniform(-0.10, 0.04))
        rtt = rtt_ms / 1000.0
        if not same_rack:
            rtt += 2 * self.CROSS_RACK_HOP_S
        return max(rtt, 1e-5)
