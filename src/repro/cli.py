"""Command-line interface: list and run everything in the run registry.

Usage::

    python -m repro list
    python -m repro run fig1 [--scale 0.3] [--seed 7] [--json out.json]
    python -m repro run all  [--scale 0.2]
    python -m repro run drill:hedge [--json out.json]
    python -m repro run campaign:day [--catalog DIR]
    python -m repro run scenario:streaming [--scale 0.05]
    python -m repro calibration
    python -m repro campaign month [--scale 0.5] [--json out.json]
    python -m repro campaign day --modes none,automatic [--fast]
    python -m repro campaign storm [--scale 0.2]
    python -m repro trace --out trace.json [--fmt chrome|jsonl|waterfall]
    python -m repro slo [--availability 0.99] [--latency-ms 500]
    python -m repro scenario list
    python -m repro scenario describe block-storage
    python -m repro scenario run streaming [--clients 10000] [--json out.json]
    python -m repro scenario run --file my_pack.toml [--levels 2,8,32]
    python -m repro scenario run fig3-queue-add --levels 2,4 --seeds 3,4 --catalog
    python -m repro qc [RUN_ID] [--max-cv 0.5] [--freeze baseline]
    python -m repro dash [RUN_ID | --frozen baseline] [--availability 0.999]
    python -m repro catalog list [--kind scenario]
    python -m repro catalog show [RUN_ID]

``run``, ``campaign`` and ``scenario run`` share ``--seed`` (default 3,
the golden seed), ``--scale``, ``--jobs``, ``--json`` and ``--catalog``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

from repro.experiments.registry import (
    EXPERIMENTS,
    Runnable,
    get_experiment,
    runnables,
    scenario_result,
    scenario_runnable,
)
from repro.experiments.report import family
from repro.simcore.rng import GOLDEN_SEED


def _cmd_list(_args: argparse.Namespace) -> int:
    print(f"{'name':28s}  {'paper':10s}  title")
    for runnable in runnables().values():
        paper = runnable.paper_artifact or family(runnable.name)
        print(f"{runnable.name:28s}  {paper:10s}  {runnable.title}")
    return 0


def _execute(
    runnable: Runnable, args: argparse.Namespace, **options: Any
) -> Optional[Any]:
    """Run ``runnable`` with the shared flags and print it; ``None``
    (exit 2) when the run rejects its arguments."""
    start = time.time()
    try:
        result = runnable.run(
            seed=args.seed, scale=args.scale, jobs=args.jobs, **options
        )
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return None
    print(result.render())
    print(f"\n({runnable.name} finished in {time.time() - start:.1f}s)\n")
    return result


def _publish(
    args: argparse.Namespace,
    grids: List[Dict[int, Dict[Optional[int], Any]]],
    document: Any,
) -> None:
    """Catalog each ``{seed: {level: result}}`` grid as one record under
    ``--catalog`` and write ``document`` to ``--json``."""
    if args.catalog:
        from repro.artifacts import CatalogStore, ingest

        store = CatalogStore(args.catalog)
        for grid in grids:
            run_id = ingest(store, grid)
            print(f"catalogued as {run_id} in {args.catalog}/")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
        print(f"wrote machine-readable results to {args.json}")


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.artifacts import canonical_data

    names = list(EXPERIMENTS) if args.name == "all" else [args.name]
    results = []
    for name in names:
        result = _execute(get_experiment(name), args)
        if result is None:
            return 2
        results.append(result)
    _publish(
        args,
        [{args.seed: {r.level: r}} for r in results],
        {
            r.experiment_id: {
                "title": r.title,
                "passed": r.passed,
                "checks": [
                    {"name": c.name, "passed": c.passed, "detail": c.detail}
                    for c in r.checks.results
                ],
                "data": canonical_data(r.data),
            }
            for r in results
        },
    )
    failures = sum(not r.passed for r in results)
    if failures:
        print(f"{failures} run(s) had failing checks")
    return 1 if failures else 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    modes = (
        [m.strip() for m in args.modes.split(",") if m.strip()]
        if args.modes
        else None
    )
    result = _execute(
        get_experiment(f"campaign:{args.scenario}"), args,
        modes=modes, fast=args.fast, guard_band_s=args.guard_band,
    )
    if result is None:
        return 2
    _publish(args, [{args.seed: {None: result}}], result.data)
    return 0 if result.passed else 1


def _run_traced_workload(args: argparse.Namespace, spans: bool):
    """One fig1-style blob run on a fresh platform, tracer attached;
    ``None`` (exit 2) when the run rejects its arguments."""
    from repro.workloads.blob_bench import run_blob_test
    from repro.workloads.harness import build_platform

    try:
        platform = build_platform(
            seed=args.seed, n_clients=args.clients, spans=spans
        )
        run_blob_test(
            args.direction,
            n_clients=args.clients,
            size_mb=args.size_mb,
            seed=args.seed,
            platform=platform,
        )
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return None
    return platform


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.observability.export import (
        waterfall,
        write_chrome_trace,
        write_jsonl,
    )

    if args.limit < 1:
        print(f"repro: --limit must be >= 1, got {args.limit}",
              file=sys.stderr)
        return 2
    platform = _run_traced_workload(args, spans=True)
    if platform is None:
        return 2
    assert platform.spans is not None
    spans = platform.spans.spans()
    print(
        f"collected {len(spans)} spans over "
        f"{len(platform.spans.traces())} traces "
        f"({platform.spans.errors} error spans)"
    )
    if args.fmt == "chrome":
        if not args.out:
            print("--fmt chrome needs --out PATH", file=sys.stderr)
            return 2
        path = write_chrome_trace(args.out, spans)
        print(f"wrote Chrome trace-event JSON to {path} "
              "(load in Perfetto or chrome://tracing)")
    elif args.fmt == "jsonl":
        if not args.out:
            print("--fmt jsonl needs --out PATH", file=sys.stderr)
            return 2
        path = write_jsonl(args.out, spans)
        print(f"wrote {len(spans)} spans to {path}")
    else:
        shown = 0
        for trace_id in sorted(platform.spans.traces()):
            print(waterfall(spans, trace_id=trace_id))
            print()
            shown += 1
            if shown >= args.limit:
                remaining = len(platform.spans.traces()) - shown
                if remaining > 0:
                    print(f"(… {remaining} more traces; raise --limit, or "
                          "export with --fmt chrome --out trace.json)")
                break
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    from repro.observability.histogram import merge_histograms
    from repro.observability.slo import (
        availability_slo,
        evaluate_slos,
        latency_slo,
    )

    # Bad objectives exit 2 before the run (exit 1 means an SLO failed).
    try:
        availability = availability_slo(args.availability)
    except ValueError as exc:
        print(f"repro: --availability: {exc}", file=sys.stderr)
        return 2
    try:
        latency = latency_slo(args.latency_ms / 1000.0, args.latency_target)
    except ValueError as exc:
        print(f"repro: --latency-ms/--latency-target: {exc}",
              file=sys.stderr)
        return 2
    platform = _run_traced_workload(args, spans=False)
    if platform is None:
        return 2
    tracer = platform.tracer
    assert tracer is not None
    histograms = tracer.latency_histograms()
    print(f"{tracer.total} requests, {tracer.errors} errors; per-op "
          "latency percentiles (streaming histogram, ~2% relative error):")
    for (service, op), hist in sorted(histograms.items()):
        p50, p95, p99 = (hist.percentile(q) * 1000 for q in (50, 95, 99))
        print(f"  {service}.{op}: n={hist.count} p50={p50:.1f}ms "
              f"p95={p95:.1f}ms p99={p99:.1f}ms")
    merged = (
        merge_histograms(list(histograms.values()), name="all-ops")
        if histograms
        else None
    )
    report = evaluate_slos(
        [availability, latency],
        total=tracer.total,
        errors=tracer.errors,
        histogram=merged,
        title=(
            f"SLOs over {args.direction} x{args.clients} "
            f"(seed {args.seed})"
        ),
    )
    print()
    print(report.render())
    if args.json:
        import json

        exported = {
            "total": tracer.total,
            "errors": tracer.errors,
            "objectives": {
                r.slo.name: {
                    "target": r.slo.target,
                    "sli": r.sli,
                    "error_budget": r.error_budget,
                    "budget_consumed": r.budget_consumed,
                    "budget_remaining": r.budget_remaining,
                    "burn_rate": r.burn_rate,
                    "passed": r.passed,
                }
                for r in report.results
            },
        }
        with open(args.json, "w") as fh:
            json.dump(exported, fh, indent=2, sort_keys=True)
        print(f"wrote machine-readable SLO report to {args.json}")
    return 0 if report.passed else 1


def _scenario_spec(args: argparse.Namespace):
    """Resolve the spec named/filed on the command line (or exit 2)."""
    from repro.scenarios import (
        ScenarioValidationError,
        get_scenario,
        load_scenario_file,
    )

    try:
        if args.file:
            spec, _ = load_scenario_file(args.file)
        elif args.name:
            spec = get_scenario(args.name)
        else:
            print(
                "scenario run/describe needs a NAME or --file PATH",
                file=sys.stderr,
            )
            return None
        spec.scaled(args.scale)  # a bad --scale fails here, before a run
    except (ScenarioValidationError, KeyError, OSError) as exc:
        print(f"bad scenario: {exc}", file=sys.stderr)
        return None
    return spec


def _int_list(flag: str, text: str, minimum: int) -> List[int]:
    """Parse a comma-separated ``flag`` value of integers >= ``minimum``."""
    values = []
    for item in text.split(","):
        if not item.strip():
            continue
        try:
            value = int(item)
        except ValueError:
            raise ValueError(f"{flag}: {item.strip()!r} is not an integer") from None
        if value < minimum:
            raise ValueError(f"{flag}: {value} is below {minimum}")
        values.append(value)
    if not values:
        raise ValueError(f"{flag}: no values given")
    return values


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        get_scenario,
        list_scenarios,
        scenario_source,
        scenario_to_dict,
        sweep_scenario,
    )

    if args.action == "list":
        print(
            f"{'name':22s}  {'source':20s}  {'arrival':8s}  "
            f"{'clients':>8s}  title"
        )
        for name in list_scenarios():
            spec = get_scenario(name)
            source = scenario_source(name)
            if source != "builtin":
                from pathlib import Path

                source = Path(source).name
            print(
                f"{name:22s}  {source:20s}  "
                f"{spec.arrival.kind:8s}  {spec.n_clients:>8,d}  "
                f"{spec.title or spec.description}"
            )
        return 0

    spec = _scenario_spec(args)
    if spec is None:
        return 2

    if args.action == "describe":
        print(json.dumps(
            scenario_to_dict(spec.scaled(args.scale)), indent=2,
            sort_keys=True,
        ))
        return 0

    # run: one population through the registry, or a seed x level grid
    if not (args.levels or args.seeds):
        result = _execute(
            scenario_runnable(spec), args,
            n_clients=args.clients, mode=args.mode,
        )
        if result is None:
            return 2
        _publish(args, [{args.seed: {result.level: result}}], result.data)
        return 0
    try:
        levels = _int_list("--levels", args.levels, 1) if args.levels else None
        seeds = _int_list("--seeds", args.seeds, 0) if args.seeds else [args.seed]
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    scaled = spec.scaled(args.scale)
    start = time.time()
    grid = {
        seed: {
            n: scenario_result(scaled, run)
            for n, run in sweep_scenario(
                scaled, levels=levels, seed=seed, mode=args.mode,
                jobs=args.jobs,
            ).items()
        }
        for seed in seeds
    }
    for runs in grid.values():
        for result in runs.values():
            print(result.body)
            print()
    print(f"  (finished in {time.time() - start:.2f}s wall-clock)")
    if len(seeds) == 1:
        exported = {
            "scenario": spec.name,
            "levels": {str(n): r.data for n, r in grid[seeds[0]].items()},
        }
    else:
        exported = {
            "scenario": spec.name,
            "seeds": {
                str(seed): {str(n): r.data for n, r in runs.items()}
                for seed, runs in grid.items()
            },
        }
    _publish(args, [grid], exported)
    return 0


def _open_catalog(args: argparse.Namespace):
    """Open the selected catalog directory for reading (or exit 2 when
    it is missing or bad); a missing one is not created."""
    from repro.artifacts import CatalogError, CatalogStore

    if not os.path.isdir(args.catalog):
        print(f"repro: no catalog at {args.catalog}", file=sys.stderr)
        return None
    try:
        return CatalogStore(args.catalog)
    except CatalogError as exc:
        print(f"bad catalog: {exc}", file=sys.stderr)
        return None


def _resolve_record(store, args: argparse.Namespace, kind=None):
    """Resolve RUN_ID / --frozen / latest to a loaded record (or None)."""
    from repro.artifacts import CatalogError

    try:
        run_id = store.resolve(
            run_id=args.run_id, frozen=args.frozen, kind=kind
        )
        return store.get_record(run_id)
    except CatalogError as exc:
        print(f"catalog error: {exc}", file=sys.stderr)
        return None


def _cmd_qc(args: argparse.Namespace) -> int:
    from repro.artifacts import QCThresholds, run_qc

    store = _open_catalog(args)
    if store is None:
        return 2
    record = _resolve_record(store, args)
    if record is None:
        return 2
    thresholds = QCThresholds(max_cv=args.max_cv, max_ci_frac=args.max_ci)
    report = run_qc(record, thresholds)
    print(report.render())
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        print(f"wrote machine-readable QC report to {args.json}")
    if args.freeze is not None:
        label = args.freeze or "frozen"
        if report.passed:
            store.freeze(record.run_id, label)
            print(f"froze {record.run_id} as '{label}'")
        else:
            print(
                f"NOT freezing {record.run_id}: QC failed "
                f"(a failing sweep cannot become a baseline)",
                file=sys.stderr,
            )
    return 0 if report.passed else 1


def _cmd_dash(args: argparse.Namespace) -> int:
    from repro.artifacts import render_dash

    store = _open_catalog(args)
    if store is None:
        return 2
    record = _resolve_record(store, args)
    if record is None:
        return 2
    print(
        render_dash(
            record,
            availability_target=args.availability,
            frozen_labels=store.frozen_labels(record.run_id),
        )
    )
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(record.to_dict(), fh, indent=2, sort_keys=True)
        print(f"wrote the full run record to {args.json}")
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    store = _open_catalog(args)
    if store is None:
        return 2
    if args.action == "list":
        runs = store.list_runs(kind=args.kind)
        if not runs:
            print(f"catalog at {store.root} holds no runs")
            return 0
        frozen = {
            run_id: labels
            for run_id in {r["run_id"] for r in runs}
            if (labels := store.frozen_labels(run_id))
        }
        print(
            f"{'run id':36s}  {'kind':9s}  {'created':20s}  "
            f"{'config':12s}  frozen"
        )
        for row in runs:
            pins = ",".join(frozen.get(row["run_id"], [])) or "-"
            print(
                f"{row['run_id']:36s}  {row['kind']:9s}  "
                f"{row['created_at']:20s}  {row['config_hash'][:12]:12s}  "
                f"{pins}"
            )
        stats = store.stats()
        print(
            f"({stats['runs']:.0f} runs, {stats['objects']:.0f} objects, "
            f"{stats['stored_mb']:.3f} MB stored, "
            f"{stats['frozen_labels']:.0f} frozen label(s))"
        )
        return 0
    # show
    record = _resolve_record(store, args, kind=args.kind)
    if record is None:
        return 2
    import json

    print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_calibration(_args: argparse.Namespace) -> int:
    from repro.calibration import CalibrationSummary

    summary = CalibrationSummary()
    for group in ("network", "blob", "vm", "modis"):
        print(f"[{group}]")
        for key, value in getattr(summary, group).items():
            print(f"  {key} = {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Early observations on the performance of "
            "Windows Azure' (Hill et al., HPDC'10) on a simulated "
            "Azure-like platform."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The flags every registry run shares (run, campaign, scenario run).
    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument(
        "--seed", type=int, default=GOLDEN_SEED,
        help=f"master seed (default {GOLDEN_SEED}, the golden seed)",
    )
    run_flags.add_argument(
        "--scale", type=float, default=1.0,
        help=(
            "workload scale > 0 (1.0 = as specified): sample counts for "
            "experiments, the open horizon or per-phase op counts for "
            "scenarios, simulated time for campaigns (their op cadence "
            "is fixed); the drill has one size"
        ),
    )
    run_flags.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help=(
            "worker processes for independent trials, sweep levels or "
            "campaign cells (default: auto = usable cores capped at 8; "
            "1 = in-process serial; results are bit-identical for any "
            "value)"
        ),
    )
    run_flags.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write machine-readable results to this JSON file",
    )
    run_flags.add_argument(
        "--catalog", metavar="DIR", nargs="?", const="catalog",
        default=None,
        help=(
            "catalog the results as a content-addressed run record in "
            "this directory (default ./catalog); observation-only, "
            "results are bit-identical with or without it"
        ),
    )

    p_list = sub.add_parser("list", help="list every registered run")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser(
        "run", parents=[run_flags],
        help="run any registered run (see 'list'), or 'all' experiments",
    )
    p_run.add_argument(
        "name", metavar="NAME", choices=sorted(runnables()) + ["all"],
        help=(
            "fig1..table2, scenario:<name>, campaign:<preset>, "
            "drill:hedge, or all (every paper experiment)"
        ),
    )
    p_run.set_defaults(func=_cmd_run)

    p_campaign = sub.add_parser(
        "campaign", parents=[run_flags],
        help=(
            "replay a fault schedule (rack/zone/WAN outages or server "
            "fault windows) against a (client policy x geo-failover "
            "mode) grid and report user-side availability + SLO burn"
        ),
    )
    p_campaign.add_argument(
        "scenario",
        choices=["month", "day", "storm", "crash", "burst"],
        help=(
            "month = 30 simulated days with rack, zone, WAN and region "
            "outages; day = the 24-hour smoke schedule CI runs; "
            "storm = 503 storm, crash = server crash/restart, burst = "
            "HTTP-500 burst, each against the retry-policy matrix"
        ),
    )
    p_campaign.add_argument(
        "--modes", metavar="M1,M2", default=None,
        help=(
            "comma-separated failover modes to replay (default: the "
            "preset's modes)"
        ),
    )
    p_campaign.add_argument(
        "--fast", action="store_true",
        help=(
            "piecewise-stationary fast-forward: solve the stationary "
            "windows between fault/failover transitions analytically "
            "and event-simulate only a guard band around each "
            "transition (availability verdicts and minute counts match "
            "event-level replay; latency tails are statistical)"
        ),
    )
    p_campaign.add_argument(
        "--guard-band", type=float, default=None, metavar="S",
        help=(
            "--fast only: event-level radius in seconds around each "
            "transition (default: replication lag + client timeout, "
            "at least 65s)"
        ),
    )
    p_campaign.set_defaults(func=_cmd_campaign)

    def add_workload_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--direction", choices=["download", "upload"],
            default="download", help="blob workload direction",
        )
        p.add_argument(
            "--clients", type=int, default=4,
            help="concurrent clients in the traced run",
        )
        p.add_argument(
            "--size-mb", type=float, default=1.0, help="blob size in MB"
        )
        p.add_argument("--seed", type=int, default=3)

    p_trace = sub.add_parser(
        "trace",
        help=(
            "run a small fig1-style workload with span tracing and "
            "export the causal trees"
        ),
    )
    add_workload_args(p_trace)
    p_trace.add_argument(
        "--fmt", choices=["waterfall", "chrome", "jsonl"],
        default="waterfall",
        help=(
            "waterfall = ASCII per-trace view; chrome = trace-event JSON "
            "for Perfetto/chrome://tracing; jsonl = one span per line"
        ),
    )
    p_trace.add_argument(
        "--out", metavar="PATH", default=None,
        help="output file (required for chrome/jsonl)",
    )
    p_trace.add_argument(
        "--limit", type=int, default=3,
        help="max traces printed in waterfall mode (at least 1)",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_slo = sub.add_parser(
        "slo",
        help=(
            "run a workload and judge it against availability/latency "
            "SLOs (error budget + burn rate)"
        ),
    )
    add_workload_args(p_slo)
    p_slo.add_argument(
        "--availability", type=float, default=0.99,
        help="availability target in (0, 1)",
    )
    p_slo.add_argument(
        "--latency-ms", type=float, default=500.0,
        help="latency threshold in milliseconds",
    )
    p_slo.add_argument(
        "--latency-target", type=float, default=0.95,
        help="required fraction of requests under the threshold",
    )
    p_slo.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the machine-readable SLO report to this file",
    )
    p_slo.set_defaults(func=_cmd_slo)

    p_scenario = sub.add_parser(
        "scenario", parents=[run_flags],
        help=(
            "list/describe/run declarative ScenarioSpec workloads "
            "(registered figure scenarios + trace-shaped packs)"
        ),
    )
    p_scenario.add_argument(
        "action", choices=["list", "describe", "run"],
        help=(
            "list = registered scenarios; describe = dump one spec as "
            "JSON; run = execute one through the unified driver"
        ),
    )
    p_scenario.add_argument(
        "name", nargs="?", default=None,
        help="registered scenario name (see 'scenario list')",
    )
    p_scenario.add_argument(
        "--file", metavar="PATH", default=None,
        help="load the spec from a TOML/JSON pack file instead of the registry",
    )
    p_scenario.add_argument(
        "--clients", type=int, default=None, metavar="N",
        help="override the spec's population size",
    )
    p_scenario.add_argument(
        "--mode", choices=["auto", "exact", "batched"], default="auto",
        help=(
            "auto = exact per-client simulation up to "
            "256 clients, batched population dynamics beyond"
        ),
    )
    p_scenario.add_argument(
        "--levels", metavar="N1,N2", default=None,
        help=(
            "sweep these comma-separated population sizes instead of a "
            "single run (per-level trials fan across --jobs workers)"
        ),
    )
    p_scenario.add_argument(
        "--seeds", metavar="S1,S2", default=None,
        help=(
            "run the sweep once per comma-separated seed (a seed x "
            "level grid — what the QC variance gate judges)"
        ),
    )
    p_scenario.set_defaults(func=_cmd_scenario)

    def add_catalog_selector(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "run_id", nargs="?", default=None,
            help="catalogued run id (default: latest, or --frozen pin)",
        )
        p.add_argument(
            "--catalog", metavar="DIR", default="catalog",
            help="catalog directory (default ./catalog)",
        )
        p.add_argument(
            "--frozen", metavar="LABEL", default=None,
            help="select the run pinned under this frozen label",
        )

    p_qc = sub.add_parser(
        "qc",
        help=(
            "judge a catalogued run against the QC gates (grid "
            "completeness, digest consistency, cross-seed variance, "
            "monotonicity, config-hash integrity); exit 1 on failure"
        ),
    )
    add_catalog_selector(p_qc)
    p_qc.add_argument(
        "--max-cv", type=float, default=0.25, metavar="F",
        help="max coefficient of variation across seeds per level",
    )
    p_qc.add_argument(
        "--max-ci", type=float, default=0.5, metavar="F",
        help="max relative 95%% CI half-width across seeds per level",
    )
    p_qc.add_argument(
        "--freeze", metavar="LABEL", nargs="?", const="frozen",
        default=None,
        help=(
            "on QC pass, pin the run under LABEL (default 'frozen') — "
            "a failing run is never frozen"
        ),
    )
    p_qc.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the machine-readable QC report to this file",
    )
    p_qc.set_defaults(func=_cmd_qc)

    p_dash = sub.add_parser(
        "dash",
        help=(
            "render the operator dashboard (KPI, error-budget burn, "
            "latency-vs-load Pareto) from a catalogued run"
        ),
    )
    add_catalog_selector(p_dash)
    p_dash.add_argument(
        "--availability", type=float, default=0.999, metavar="T",
        help="availability objective for the burn-rate view",
    )
    p_dash.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the full run record to this JSON file",
    )
    p_dash.set_defaults(func=_cmd_dash)

    p_catalog = sub.add_parser(
        "catalog",
        help="list or dump the run catalog's records",
    )
    p_catalog.add_argument(
        "action", choices=["list", "show"],
        help="list = one line per run; show = dump one record as JSON",
    )
    add_catalog_selector(p_catalog)
    p_catalog.add_argument(
        "--kind", default=None,
        help=(
            "filter/select by record kind (experiment, scenario, "
            "campaign, drill, bench, ops)"
        ),
    )
    p_catalog.set_defaults(func=_cmd_catalog)

    p_cal = sub.add_parser(
        "calibration", help="print the paper-anchored constants"
    )
    p_cal.set_defaults(func=_cmd_calibration)
    return parser


#: Exit status when stdout's reader leaves early (``repro dash | head``):
#: 128 + SIGPIPE, as a shell reports a process that SIGPIPE killed.
EXIT_BROKEN_PIPE = 141


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's exit-time flush
        # of the unwritten rest cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return status


if __name__ == "__main__":
    sys.exit(main())
