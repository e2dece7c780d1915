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


#: The knobs a scenario run declares (see :func:`_scenario`).
SCENARIO_KNOBS = ("n_clients", "mode", "levels", "seeds", "trace", "slos")
#: The knobs a campaign run declares (see :func:`_campaign`).
CAMPAIGN_KNOBS = ("modes", "fast", "guard_band_s")


def _rejected(what: str, accepted: Sequence[str], got: Sequence[str]) -> str:
    """The message for knobs ``got`` that ``what`` would not use."""
    return (
        f"{what} accepts {', '.join(accepted) or 'no knobs'}; "
        f"got {', '.join(got)}"
    )


@dataclass(frozen=True)
class Runnable:
    """One named run: ``runner(seed=, scale=, jobs=, **knobs)``, where
    ``knobs`` is the only set of keyword options it takes."""

    name: str
    title: str
    runner: Callable[..., ExperimentReport]
    paper_artifact: str = ""
    knobs: Tuple[str, ...] = ()

    def run(
        self,
        seed: int = GOLDEN_SEED,
        scale: float = 1.0,
        jobs: Optional[int] = 1,
        **knobs: Any,
    ) -> ExperimentReport:
        """Run once.  ``scale`` (> 0) shrinks sample counts, a
        scenario's horizon or op counts, or a campaign's simulated time
        (the drill has one size).  ``jobs`` fans independent trials or
        cells over processes (``None`` = auto); results are
        bit-identical for any value.  ``knobs`` are a family's own
        options, named in :attr:`knobs`: :data:`SCENARIO_KNOBS` for
        scenarios, :data:`CAMPAIGN_KNOBS` for campaigns, none for the
        experiments and the drill.  Any other knob, or a bad scale,
        raises :class:`ValueError` before the run."""
        if not scale > 0:
            raise ValueError(f"{self.name}: scale must be > 0, got {scale}")
        unknown = sorted(set(knobs) - set(self.knobs))
        if unknown:
            raise ValueError(_rejected(self.name, self.knobs, unknown))
        return self.runner(seed=seed, scale=scale, jobs=jobs, **knobs)


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
    levels: Optional[Sequence[int]] = None,
    seeds: Optional[Sequence[int]] = None,
    trace: bool = False, slos: Sequence[Any] = (),
) -> ExperimentReport:
    """One population of ``n_clients`` on the engine ``mode`` picks;
    ``trace`` keeps every span of an exact run as the report's
    ``spans``, and each of ``slos`` becomes a check on the run's
    client-side calls.  Given ``levels`` and/or ``seeds`` instead, a
    seed x level grid (:func:`_scenario_grid`)."""
    from repro.scenarios import run_scenario, scenario_engine
    from repro.workloads.harness import build_platform

    name = f"scenario:{spec.name}"
    spec = spec.scaled(scale)
    if levels is not None or seeds is not None:
        got = [k for k, v in (
            ("n_clients", n_clients is not None), ("trace", trace),
            ("slos", slos),
        ) if v]
        if got:
            raise ValueError(_rejected(
                f"{name}: a levels/seeds grid", ("mode", "levels", "seeds"),
                got,
            ))
        return _scenario_grid(
            spec, levels, [seed] if seeds is None else list(seeds), mode,
            jobs,
        )
    n = spec.n_clients if n_clients is None else n_clients
    platform = None
    if trace:
        if scenario_engine(n, mode) != "exact":
            raise ValueError(_rejected(
                f"{name}: a batched run ({n:,} clients)",
                ("n_clients", "mode", "slos"), ["trace"],
            ))
        platform = build_platform(
            seed=seed, n_clients=n, spans=True, span_capacity=None
        )
    run = run_scenario(
        spec, n_clients=n, seed=seed, mode=mode, platform=platform
    )
    report = scenario_result(spec, run)
    if platform is not None:
        report.spans = platform.spans
    if slos:
        _judge_slos(report, slos)
    return report


def _scenario_grid(
    spec: Any, levels: Optional[Sequence[int]], seeds: Sequence[int],
    mode: str, jobs: Optional[int],
) -> ExperimentReport:
    """A sweep of ``spec`` over ``levels`` per seed; its ``data`` is
    ``{"scenario", "levels": {level: summary}}`` for one seed and
    ``{"scenario", "seeds": {seed: {level: summary}}}`` for several,
    and its ``cells`` are the per-cell reports."""
    from repro.scenarios import scenario_to_dict, sweep_scenario

    if not seeds:
        raise ValueError(f"scenario:{spec.name}: no seeds given")
    grid = {
        seed: {
            n: scenario_result(spec, run)
            for n, run in sweep_scenario(
                spec, levels=levels, seed=seed, mode=mode, jobs=jobs,
            ).items()
        }
        for seed in seeds
    }
    docs = {
        str(seed): {str(n): r.data for n, r in cells.items()}
        for seed, cells in grid.items()
    }
    data: Dict[str, Any] = {"scenario": spec.name}
    if len(seeds) == 1:
        data["levels"] = docs[str(seeds[0])]
    else:
        data["seeds"] = docs
    return ExperimentReport(
        f"scenario:{spec.name}", spec.title or spec.name,
        "\n\n".join(r.body for cells in grid.values() for r in cells.values()),
        data=data, config=scenario_to_dict(spec), cells=grid,
    )


def _judge_slos(report: ExperimentReport, slos: Sequence[Any]) -> None:
    """Add one check per objective in ``slos``, judged on the client
    calls in the report's tracer snapshot, and the verdict table to its
    body.  Both engines count client calls (a batched run has no
    server-side requests), so one SLO means the same in either."""
    from repro.observability.histogram import merge_histograms
    from repro.observability.slo import evaluate_slos
    from repro.service.tracing import RequestTracer

    tracer = RequestTracer.from_snapshot(report.snapshots["tracer"])
    histograms = list(tracer.client_latency_histograms().values())
    verdicts = evaluate_slos(
        slos, total=tracer.client_total, errors=tracer.client_errors,
        histogram=(
            merge_histograms(histograms, name="all-calls")
            if histograms else None
        ),
        title=f"SLOs over {tracer.client_total:,} client calls",
    )
    for result in verdicts.results:
        report.checks.check(
            f"SLO {result.slo.name}", result.passed,
            f"sli {result.sli:.4f} vs target {result.slo.target:g}, "
            f"burn rate {result.burn_rate:.2f}",
        )
    report.body += "\n\n" + verdicts.render()


def scenario_runnable(spec: Any) -> Runnable:
    """The runnable of a scenario spec, registered or loaded from a file."""
    name, title = f"scenario:{spec.name}", spec.title or spec.description
    return Runnable(
        name, title, partial(_scenario, spec), knobs=SCENARIO_KNOBS
    )


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

    if guard_band_s is not None and not fast:
        raise ValueError(
            "a guard band applies only to the fast-forward driver (--fast); "
            + _rejected(f"campaign:{name} without fast", ("modes", "fast"),
                       ["guard_band_s"])
        )
    spec = campaign.CAMPAIGN_SCENARIOS[name](seed=seed, scale=scale)
    if modes is not None:
        unknown = [m for m in modes if m not in campaign.CAMPAIGN_MODES]
        if unknown or not modes:
            what = (
                f"unknown failover mode(s) {unknown}" if unknown
                else f"campaign:{name}: no failover modes given"
            )
            raise ValueError(
                f"{what}; choose from {list(campaign.CAMPAIGN_MODES)}"
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
            f"campaign:{name}", title, partial(_campaign, name),
            knobs=CAMPAIGN_KNOBS,
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
