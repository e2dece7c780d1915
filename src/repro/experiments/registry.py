"""The run registry: everything runnable behind one name and one contract.

Names are the paper's experiments (``fig1`` … ``table2``),
``scenario:<name>`` for every registered scenario and pack,
``campaign:<preset>`` for the fault campaigns and ``drill:hedge`` for
the hedging drill.  Each maps to a :class:`Runnable` whose ``run``
returns an :class:`~repro.experiments.report.ExperimentReport`.  Only
the paper experiments are imported eagerly; the other families import
their modules when resolved.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.analysis import ShapeCheck
from repro.experiments import (
    fig1_blob,
    fig2_table,
    fig3_queue,
    fig4_tcp_latency,
    fig5_tcp_bandwidth,
    fig7_timeouts,
    table1_vm,
    table2_tasks,
)
from repro.experiments.report import ExperimentReport
from repro.simcore.rng import GOLDEN_SEED


@dataclass(frozen=True)
class Runnable:
    """One named run: ``runner(seed=, scale=, jobs=, **options)``."""

    name: str
    title: str
    runner: Callable[..., ExperimentReport]
    paper_artifact: str = ""

    def run(
        self,
        seed: int = GOLDEN_SEED,
        scale: float = 1.0,
        jobs: Optional[int] = 1,
        **options: Any,
    ) -> ExperimentReport:
        """Run once.  ``scale`` (> 0) shrinks sample counts, a
        scenario's horizon or op counts, or a campaign's simulated time
        (the drill has one size).  ``jobs`` fans independent trials or
        cells over processes (``None`` = auto); results are
        bit-identical for any value.  ``options`` are a family's own
        knobs: ``n_clients``/``mode`` for scenarios,
        ``modes``/``fast``/``guard_band_s`` for campaigns."""
        if not scale > 0:
            raise ValueError(f"{self.name}: scale must be > 0, got {scale}")
        return self.runner(seed=seed, scale=scale, jobs=jobs, **options)


def _experiment(runner, *, seed, scale, jobs) -> ExperimentReport:
    report = runner(scale=scale, seed=seed, jobs=jobs)
    report.config = {"experiment": report.experiment_id, "scale": scale}
    return report


EXPERIMENTS: Dict[str, Runnable] = {
    eid: Runnable(eid, module.TITLE, partial(_experiment, module.run), paper)
    for eid, paper, module in (
        ("fig1", "Figure 1", fig1_blob),
        ("fig2", "Figure 2", fig2_table),
        ("fig3", "Figure 3", fig3_queue),
        ("table1", "Table 1", table1_vm),
        ("fig4", "Figure 4", fig4_tcp_latency),
        ("fig5", "Figure 5", fig5_tcp_bandwidth),
        ("table2", "Table 2", table2_tasks),
        ("fig7", "Figure 7", fig7_timeouts),
    )
}


def scenario_result(spec: Any, run: Any) -> ExperimentReport:
    """Wrap one :class:`~repro.scenarios.ScenarioRunResult` of ``spec``
    (a sweep wraps each level's run)."""
    from repro.scenarios import scenario_to_dict

    snapshot = run.tracer_snapshot
    return ExperimentReport(
        f"scenario:{spec.name}", spec.title or spec.name, run.render(),
        data=run.summary(), config=scenario_to_dict(spec),
        level=run.n_clients,
        snapshots={} if snapshot is None else {"tracer": snapshot},
    )


def _scenario(
    spec: Any, *, seed: int, scale: float, jobs: Optional[int],
    n_clients: Optional[int] = None, mode: str = "auto",
) -> ExperimentReport:
    from repro.scenarios import run_scenario

    spec = spec.scaled(scale)
    run = run_scenario(spec, n_clients=n_clients, seed=seed, mode=mode)
    return scenario_result(spec, run)


def scenario_runnable(spec: Any) -> Runnable:
    """The runnable of a scenario spec, registered or loaded from a file."""
    name, title = f"scenario:{spec.name}", spec.title or spec.description
    return Runnable(name, title, partial(_scenario, spec))


def campaign_result(name: str, report: Any) -> ExperimentReport:
    """Wrap a :class:`~repro.resilience.campaign.CampaignReport` of the
    ``name`` preset.  Its one check is the campaign verdict; the driver
    settings join the spec in ``config``, so event and fast-forwarded
    runs of one spec are different configurations."""
    data = report.to_dict()
    checks = ShapeCheck()
    passing = [report.label(r) for r in report.results if r.slo_pass]
    checks.check(
        "some cell meets every SLO target", report.passed,
        ", ".join(passing) or "no cell met them",
    )
    config = {
        **report.spec.to_dict(),
        "fast": report.fast,
        "guard_band_s": report.guard_band_s,
    }
    return ExperimentReport(
        f"campaign:{name}", f"fault campaign '{report.spec.name}'",
        report.render(), checks, data, config=config,
        snapshots={
            f"slo:{label}": doc.get("slo", {})
            for label, doc in data["modes"].items()
        },
    )


def _campaign(
    name: str, *, seed: int, scale: float, jobs: Optional[int],
    modes: Optional[Sequence[str]] = None, fast: bool = False,
    guard_band_s: Optional[float] = None,
) -> ExperimentReport:
    from repro.resilience import campaign

    spec = campaign.CAMPAIGN_SCENARIOS[name](seed=seed, scale=scale)
    if modes is not None:
        unknown = [m for m in modes if m not in campaign.CAMPAIGN_MODES]
        if unknown:
            raise ValueError(
                f"unknown failover mode(s) {unknown}; choose from "
                f"{list(campaign.CAMPAIGN_MODES)}"
            )
        spec = replace(spec, modes=tuple(modes))
    report = campaign.run_campaign(
        spec, fast=fast, guard_band_s=guard_band_s, jobs=jobs
    )
    return campaign_result(name, report)


def _drill(*, seed: int, scale: float, jobs: Optional[int]) -> ExperimentReport:
    from repro.resilience.hedging import run_hedge_drill

    report = run_hedge_drill(seed=seed)
    return ExperimentReport(
        DRILL.name, DRILL.title, report.render(), data=asdict(report),
        config={"drill": "hedge"},
    )


DRILL = Runnable(
    "drill:hedge", "hedged vs unhedged blob reads under a latency spike",
    _drill,
)


def runnables() -> Dict[str, Runnable]:
    """Every runnable by name: the paper experiments, every registered
    scenario, the campaign presets (titled by their docstrings' first
    paragraph) and the drill."""
    from repro.resilience.campaign import CAMPAIGN_SCENARIOS
    from repro.scenarios import get_scenario, list_scenarios

    table = dict(EXPERIMENTS)
    for runnable in map(scenario_runnable, map(get_scenario, list_scenarios())):
        table[runnable.name] = runnable
    for name, preset in CAMPAIGN_SCENARIOS.items():
        title = " ".join((preset.__doc__ or "").split("\n\n")[0].split())
        table[f"campaign:{name}"] = Runnable(
            f"campaign:{name}", title, partial(_campaign, name)
        )
    table[DRILL.name] = DRILL
    return table


def get_experiment(name: str) -> Runnable:
    """The runnable registered under ``name`` (``ValueError`` if none)."""
    if name in EXPERIMENTS:
        return EXPERIMENTS[name]
    table = runnables()
    if name not in table:
        raise ValueError(f"unknown run {name!r}; choose from {sorted(table)}")
    return table[name]


def run_experiment(
    name: str, scale: float = 1.0, seed: int = GOLDEN_SEED,
    jobs: Optional[int] = 1,
) -> ExperimentReport:
    """Run one registered runnable (see :meth:`Runnable.run`)."""
    return get_experiment(name).run(seed=seed, scale=scale, jobs=jobs)


def run_all(
    scale: float = 1.0, seed: int = GOLDEN_SEED, jobs: Optional[int] = 1
) -> Tuple[ExperimentReport, ...]:
    """Run every paper experiment."""
    return tuple(
        run_experiment(eid, scale=scale, seed=seed, jobs=jobs)
        for eid in EXPERIMENTS
    )
