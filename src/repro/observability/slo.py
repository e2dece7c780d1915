"""The SLO engine: declarative objectives, error budgets, burn rates.

An :class:`SLO` states a target as "fraction of good events over a
window" — the two kinds the paper's workloads need being
**availability** (a request is good when it succeeds) and **latency**
(a request is good when it finishes under a threshold).  Both are
evaluated from the monitoring layer's streaming histograms and exact
counters, never from raw records, so a full-scale run can be judged
without retaining anything per-request.

The outputs follow SRE convention:

* ``sli`` — the measured good fraction;
* ``error_budget`` — ``1 - target``, the failure allowance;
* ``budget_consumed`` — observed bad fraction over the allowance
  (> 1 means the objective is blown);
* ``burn_rate`` — the rate multiple at which the budget is being
  spent; at burn rate *b* a budget sized for window *W* lasts *W/b*.
  For a complete, fixed-window evaluation (a drill, a bench run)
  burn rate equals ``budget_consumed`` over the whole window.

The chaos drills evaluate their verdicts through this engine, and
``repro run scenario:… --availability T --latency-ms MS`` judges a
scenario run's client calls with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis import ascii_table
from repro.observability.histogram import Histogram

#: Objective kinds the engine evaluates.
AVAILABILITY = "availability"
LATENCY = "latency"


@dataclass(frozen=True)
class SLO:
    """One declarative objective.

    ``kind`` is :data:`AVAILABILITY` (good = request succeeded) or
    :data:`LATENCY` (good = request finished within ``threshold_s``).
    ``target`` is the required good fraction in (0, 1).
    """

    name: str
    kind: str
    target: float
    threshold_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in (AVAILABILITY, LATENCY):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError(
                f"target must be in (0, 1), got {self.target}"
            )
        if self.kind == LATENCY and (
            self.threshold_s is None or self.threshold_s <= 0
        ):
            raise ValueError("latency SLOs need a positive threshold_s")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.target


def availability_slo(target: float, name: str = "availability") -> SLO:
    return SLO(name=name, kind=AVAILABILITY, target=target)


def latency_slo(
    threshold_s: float, target: float, name: Optional[str] = None
) -> SLO:
    return SLO(
        name=name or f"latency<{threshold_s * 1000:g}ms",
        kind=LATENCY,
        target=target,
        threshold_s=threshold_s,
    )


@dataclass
class SLOResult:
    """One objective's evaluation over one window."""

    slo: SLO
    total: int
    good: int

    @property
    def sli(self) -> float:
        """Measured good fraction (1.0 on an empty window: no events,
        no violations)."""
        return self.good / self.total if self.total else 1.0

    @property
    def error_budget(self) -> float:
        return self.slo.error_budget

    @property
    def budget_consumed(self) -> float:
        """Bad fraction over the allowance; > 1 means the SLO is blown."""
        return (1.0 - self.sli) / self.error_budget

    @property
    def budget_remaining(self) -> float:
        """Unspent fraction of the error budget (floored at 0)."""
        return max(0.0, 1.0 - self.budget_consumed)

    @property
    def burn_rate(self) -> float:
        """Budget-spend rate multiple over the evaluated window.

        1.0 = spending exactly the allowance; the alerting convention
        is to page on sustained burn rates well above 1 (e.g. 14.4 =
        a 30-day budget gone in ~2 days).
        """
        return self.budget_consumed

    @property
    def passed(self) -> bool:
        return self.sli >= self.slo.target

    def row(self) -> List[object]:
        return [
            self.slo.name,
            f"{self.slo.target:.4g}",
            f"{self.sli:.4f}",
            f"{self.error_budget:.4g}",
            f"{self.budget_consumed:.2f}",
            f"{self.burn_rate:.2f}",
            "PASS" if self.passed else "FAIL",
        ]


def evaluate_slo(
    slo: SLO,
    total: int,
    errors: int = 0,
    histogram: Optional[Histogram] = None,
) -> SLOResult:
    """Evaluate one objective from exact counts plus a latency histogram.

    ``total``/``errors`` cover every request in the window.  For a
    latency SLO, ``histogram`` must hold the latencies of *successful*
    requests; failed requests count as bad regardless of their timing.
    """
    if total < 0 or errors < 0 or errors > total:
        raise ValueError(f"bad window counts: total={total} errors={errors}")
    if slo.kind == AVAILABILITY:
        return SLOResult(slo=slo, total=total, good=total - errors)
    assert slo.threshold_s is not None
    ok = total - errors
    if histogram is None or histogram.count == 0:
        fast = 0
    else:
        # The histogram may retain only successes; never credit more
        # good events than succeeded.
        fast = min(
            round(histogram.fraction_below(slo.threshold_s) * histogram.count),
            ok,
        )
    return SLOResult(slo=slo, total=total, good=int(fast))


@dataclass
class SLOReport:
    """All objectives for one window, renderable as a verdict table."""

    title: str
    results: List[SLOResult]

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    @property
    def worst_burn_rate(self) -> float:
        return max(
            (result.burn_rate for result in self.results), default=0.0
        )

    def result(self, name: str) -> SLOResult:
        for result in self.results:
            if result.slo.name == name:
                return result
        raise KeyError(f"no SLO named {name!r} in this report")

    def render(self) -> str:
        rows = [result.row() for result in self.results]
        if not rows:
            rows.append(["(no objectives)", "-", "-", "-", "-", "-", "-"])
        return ascii_table(
            ["objective", "target", "sli", "budget",
             "consumed", "burn rate", "verdict"],
            rows,
            title=self.title,
        )


def evaluate_slos(
    slos: Sequence[SLO],
    total: int,
    errors: int = 0,
    histogram: Optional[Histogram] = None,
    title: str = "SLO report",
) -> SLOReport:
    """Evaluate a set of objectives over one shared window."""
    return SLOReport(
        title=title,
        results=[
            evaluate_slo(slo, total, errors, histogram) for slo in slos
        ],
    )


__all__ = [
    "AVAILABILITY",
    "LATENCY",
    "SLO",
    "SLOReport",
    "SLOResult",
    "availability_slo",
    "evaluate_slo",
    "evaluate_slos",
    "latency_slo",
]
