"""The operator dashboard: KPI, burn-rate and Pareto views over the
catalog.

``repro dash`` replaces the print-only ``examples/ops_dashboard.py``
loop with a real mechanism: it reads the latest (or a pinned "frozen")
run out of the :class:`~repro.artifacts.store.CatalogStore` and renders

* **KPI** — per population level, seed-averaged ops/errors/availability
  and latency percentiles;
* **burn rate** — per level, the availability error-budget burn against
  a target (worst cell wins), the SLO engine's arithmetic applied to
  catalogued artifacts instead of live gauges;
* **Pareto** — latency (p99) versus offered load, with the efficient
  frontier marked, the view that tells an operator which concurrency
  levels are worth running at.

Campaign and bench records get kind-appropriate KPI tables from the
same entry point, so one dashboard serves every artifact the catalog
holds.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.analysis import ascii_table
from repro.artifacts.records import RunRecord

#: Default availability objective for the burn-rate view.
DEFAULT_AVAILABILITY_TARGET = 0.999


def _level_rollup(record: RunRecord) -> List[Dict[str, float]]:
    """Seed-averaged KPI row per level, plus the worst-cell availability."""
    rows = []
    for level in record.levels_present():
        cells = [c for c in record.cells if c.level == level]
        n = len(cells)

        def mean(key: str, cells=cells, n=n) -> float:
            return sum(float(c.metrics.get(key, 0.0)) for c in cells) / n

        ops = mean("ops_completed")
        errors = mean("errors")
        total = ops + errors
        worst_avail = 1.0
        for c in cells:
            c_ops = float(c.metrics.get("ops_completed", 0.0))
            c_err = float(c.metrics.get("errors", 0.0))
            c_total = c_ops + c_err
            if c_total > 0:
                worst_avail = min(worst_avail, c_ops / c_total)
        rows.append({
            "level": float(level),
            "seeds": float(n),
            "ops": ops,
            "errors": errors,
            "availability": ops / total if total > 0 else 1.0,
            "worst_availability": worst_avail,
            "ops_per_s": mean("aggregate_ops_per_s"),
            "p50_ms": mean("latency_p50_s") * 1000.0,
            "p99_ms": mean("latency_p99_s") * 1000.0,
        })
    return rows


def pareto_frontier(
    points: List[Tuple[float, float]]
) -> List[bool]:
    """Efficiency mask for (throughput, latency) points: a point is on
    the frontier iff no other point has >= throughput AND <= latency
    (with at least one strict)."""
    out = []
    for i, (x_i, y_i) in enumerate(points):
        dominated = any(
            (x_j >= x_i and y_j <= y_i) and (x_j > x_i or y_j < y_i)
            for j, (x_j, y_j) in enumerate(points)
            if j != i
        )
        out.append(not dominated)
    return out


def _render_sweep(
    record: RunRecord, availability_target: float
) -> List[str]:
    rollup = _level_rollup(record)
    sections = []
    kpi_rows = [
        [
            int(r["level"]),
            int(r["seeds"]),
            f"{r['ops']:.0f}",
            f"{r['errors']:.0f}",
            f"{r['availability']:.5f}",
            f"{r['ops_per_s']:.2f}",
            f"{r['p50_ms']:.1f}",
            f"{r['p99_ms']:.1f}",
        ]
        for r in rollup
    ]
    sections.append(
        ascii_table(
            ["level", "seeds", "ops", "errors", "avail", "ops/s",
             "p50 ms", "p99 ms"],
            kpi_rows,
            title="KPI by population level (seed-averaged)",
        )
    )
    budget = 1.0 - availability_target
    burn_rows = []
    for r in rollup:
        burn = (
            (1.0 - r["worst_availability"]) / budget
            if budget > 0
            else 0.0
        )
        burn_rows.append([
            int(r["level"]),
            f"{r['worst_availability']:.5f}",
            f"{burn:.2f}",
            "OK" if burn <= 1.0 else "BURNING",
        ])
    sections.append(
        ascii_table(
            ["level", "worst avail", "burn rate", "budget"],
            burn_rows,
            title=(
                f"availability error-budget burn "
                f"(target {availability_target}, worst cell per level)"
            ),
        )
    )
    points = [(r["ops_per_s"], r["p99_ms"]) for r in rollup]
    frontier = pareto_frontier(points)
    pareto_rows = [
        [
            int(r["level"]),
            f"{r['ops_per_s']:.2f}",
            f"{r['p99_ms']:.1f}",
            "*" if on else "",
        ]
        for r, on in zip(rollup, frontier)
    ]
    sections.append(
        ascii_table(
            ["level", "offered ops/s", "p99 ms", "pareto"],
            pareto_rows,
            title="latency vs offered load (* = efficient frontier)",
        )
    )
    return sections


def _render_campaign(record: RunRecord) -> List[str]:
    modes = record.metrics.get("modes", {})
    rows = []
    for mode in sorted(modes):
        m = modes[mode]
        rows.append([
            mode,
            f"{float(m.get('availability', 0.0)):.5f}",
            int(m.get("bad_minutes", 0)),
            int(m.get("zero_minutes", 0)),
            f"{float(m.get('p99_ms', 0.0)):.0f}",
            int(m.get("lost_writes", 0)),
            f"{float(m.get('worst_burn_rate', 0.0)):.1f}",
            "PASS" if m.get("slo_pass") else "FAIL",
        ])
    if not rows:
        return ["(campaign record carries no mode results)"]
    return [
        ascii_table(
            ["failover", "avail", "bad min", "dark min", "p99 ms",
             "lost writes", "burn", "slo"],
            rows,
            title=(
                f"campaign '{record.name}' user-side availability "
                "by failover mode"
            ),
        )
    ]


def _render_flat(record: RunRecord) -> List[str]:
    """Generic KPI table over a flat metrics dict (bench/ops)."""

    def rows(prefix: str, doc: Dict[str, Any]) -> List[List[Any]]:
        out: List[List[Any]] = []
        for key in sorted(doc):
            value = doc[key]
            name = f"{prefix}{key}"
            if isinstance(value, dict):
                out.extend(rows(f"{name}.", value))
            elif isinstance(value, (int, float)):
                out.append([name, value])
        return out

    flat = rows("", record.metrics)
    if not flat:
        return ["(record carries no scalar metrics)"]
    return [
        ascii_table(
            ["metric", "value"], flat,
            title=f"{record.kind} record metrics",
        )
    ]


def render_dash(
    record: RunRecord,
    availability_target: float = DEFAULT_AVAILABILITY_TARGET,
    frozen_labels: Optional[List[str]] = None,
) -> str:
    """The full operator view of one catalogued run."""
    pins = (
        f"  [frozen: {', '.join(frozen_labels)}]" if frozen_labels else ""
    )
    header = (
        f"run {record.run_id} ({record.kind}: {record.name})\n"
        f"config {record.config_hash[:12]}…  seeds {record.seed_grid or '-'}"
        f"  levels {record.level_grid or '-'}  created {record.created_at}"
        f"{pins}"
    )
    if record.cells:
        sections = _render_sweep(record, availability_target)
    elif record.kind == "campaign":
        sections = _render_campaign(record)
    else:
        sections = _render_flat(record)
    return "\n\n".join([header] + sections)


__all__ = [
    "DEFAULT_AVAILABILITY_TARGET",
    "pareto_frontier",
    "render_dash",
]
