"""Command-line interface: list and run the paper's experiments.

Usage::

    python -m repro list
    python -m repro run fig1 [--scale 0.3] [--seed 7]
    python -m repro run all  [--scale 0.2]
    python -m repro calibration
    python -m repro drill spike [--seed 3] [--json out.json]
    python -m repro campaign month [--scale 0.5] [--seed 3] [--json out.json]
    python -m repro campaign day --modes none,automatic
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
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.experiments.registry import EXPERIMENTS, run_experiment


def _cmd_list(_args: argparse.Namespace) -> int:
    print(f"{'id':8s}  {'paper':9s}  title")
    for spec in EXPERIMENTS.values():
        print(f"{spec.experiment_id:8s}  {spec.paper_artifact:9s}  {spec.title}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    ids = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    failures = 0
    exported = {}
    for eid in ids:
        start = time.time()
        report = run_experiment(
            eid, scale=args.scale, seed=args.seed, jobs=args.jobs
        )
        elapsed = time.time() - start
        print(report.render())
        print(f"\n({eid} finished in {elapsed:.1f}s)\n")
        if not report.passed:
            failures += 1
        if args.json:
            exported[eid] = {
                "title": report.title,
                "passed": report.passed,
                "checks": [
                    {"name": c.name, "passed": c.passed, "detail": c.detail}
                    for c in report.checks.results
                ],
                "data": _jsonable(report.data),
            }
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(exported, fh, indent=2, sort_keys=True)
        print(f"wrote machine-readable results to {args.json}")
    if failures:
        print(f"{failures} experiment(s) had failing shape checks")
    return 1 if failures else 0


def _jsonable(value):
    """Coerce report data (enum keys, tuples, numpy scalars) to JSON."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _cmd_drill(args: argparse.Namespace) -> int:
    from repro.resilience.hedging import run_hedge_drill

    report = run_hedge_drill(seed=args.seed)
    print(report.render())
    if args.json:
        import json

        exported = {
            "spike": {
                "unhedged_p99_ms": report.unhedged_p99_ms,
                "hedged_p99_ms": report.hedged_p99_ms,
                "p99_speedup": report.p99_speedup,
                "duplicate_fraction": report.duplicate_fraction,
            }
        }
        with open(args.json, "w") as fh:
            json.dump(exported, fh, indent=2, sort_keys=True)
        print(f"wrote machine-readable results to {args.json}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.resilience.campaign import (
        CAMPAIGN_MODES,
        CAMPAIGN_SCENARIOS,
        run_campaign,
    )

    spec = CAMPAIGN_SCENARIOS[args.scenario](
        seed=args.seed, scale=args.scale
    )
    if args.modes:
        modes = [m.strip() for m in args.modes.split(",") if m.strip()]
        unknown = [m for m in modes if m not in CAMPAIGN_MODES]
        if unknown:
            print(
                f"unknown failover mode(s) {unknown}; choose from "
                f"{list(CAMPAIGN_MODES)}",
                file=sys.stderr,
            )
            return 2
        spec = replace(spec, modes=tuple(modes))
    from repro.parallel import resolve_jobs

    jobs = resolve_jobs(args.jobs)
    start = time.time()
    report = run_campaign(
        spec, fast=args.fast, guard_band_s=args.guard_band, jobs=jobs
    )
    elapsed = time.time() - start
    print(report.render())
    print(f"\n({args.scenario} campaign finished in {elapsed:.1f}s)")
    if args.catalog:
        from repro.artifacts import CatalogStore, ingest_campaign

        run_id = ingest_campaign(CatalogStore(args.catalog), spec, report)
        print(f"catalogued as {run_id} in {args.catalog}/")
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        print(f"wrote machine-readable campaign report to {args.json}")
    return 0 if report.passed else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perfsnapshot import collect_snapshot

    snapshot = collect_snapshot(quick=args.quick, jobs=args.jobs)
    if args.cohort:
        from repro.perfsnapshot import _best_rate, cohort_churn

        rate = _best_rate(cohort_churn, args.clients, 5, repeat=3)
        snapshot["cohort_at_scale"] = {
            "n_clients": args.clients,
            "clients_per_s": rate,
        }
        print(f"closed batched driver at {args.clients:,} clients: "
              f"{rate:,.0f} simulated clients/s\n")
    kernel = snapshot["kernel"]
    print("kernel throughput (best of repeated runs):")
    for key, value in kernel.items():
        print(f"  {key:32s} {value:>12,.0f}")
    for name, ratios in snapshot.get("baseline_ratio", {}).items():
        print(f"\nspeedup vs {name} (same-run / recorded):")
        for key, ratio in ratios.items():
            print(f"  {key:32s} {ratio:>11.2f}x")
    if "experiment_wallclock_s" in snapshot:
        print(f"\nexperiment wall-clock at scale={snapshot['scale']}, "
              f"seed={snapshot['seed']}, jobs={snapshot['jobs']}:")
        for eid, secs in snapshot["experiment_wallclock_s"].items():
            print(f"  {eid:8s} {secs:>8.2f}s")
    if args.catalog:
        from repro.artifacts import CatalogStore, ingest_bench

        run_id = ingest_bench(CatalogStore(args.catalog), snapshot)
        print(f"\ncatalogued as {run_id} in {args.catalog}/")
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
        print(f"\nwrote perf snapshot to {args.json}")
    return 0


def _run_traced_workload(args: argparse.Namespace, spans: bool):
    """One fig1-style blob run on a fresh platform, tracer attached."""
    from repro.workloads.blob_bench import run_blob_test
    from repro.workloads.harness import build_platform

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
    return platform


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.observability.export import (
        waterfall,
        write_chrome_trace,
        write_jsonl,
    )

    platform = _run_traced_workload(args, spans=True)
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

    platform = _run_traced_workload(args, spans=False)
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
        [
            availability_slo(args.availability),
            latency_slo(args.latency_ms / 1000.0, args.latency_target),
        ],
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
    except (ScenarioValidationError, KeyError, OSError) as exc:
        print(f"bad scenario: {exc}", file=sys.stderr)
        return None
    if args.scale != 1.0:
        spec = spec.scaled(args.scale)
    return spec


def _print_scenario_summary(doc) -> None:
    print(
        f"scenario {doc['scenario']} ({doc['mode']} driver, "
        f"seed {doc['seed']}): {doc['n_clients']:,} clients"
    )
    for key in (
        "makespan_s", "ops_completed", "errors", "failed_clients",
        "aggregate_ops_per_s", "latency_mean_s", "latency_p50_s",
        "latency_p99_s",
    ):
        print(f"  {key:20s} {doc[key]:>16,.4f}")
    for op, row in doc["per_op"].items():
        print(
            f"  {op:20s} ops={row['ops']:,.0f} errors={row['errors']:,.0f} "
            f"mean={row['latency_mean_s'] * 1000:.1f}ms "
            f"p99={row['latency_p99_s'] * 1000:.1f}ms"
        )
    if "windows" in doc:
        w = doc["windows"]
        print(
            f"  windows              {w['count']} "
            f"(expected {w['expected_ops']:,.0f} ops, "
            f"observed {w['ops']:,} + {w['errors']:,} errors)"
        )
    if "skew" in doc:
        s = doc["skew"]
        print(
            f"  skew                 {s['partitions']:.0f} partitions, "
            f"theta={s['theta']}, top share {s['top_share']:.3f}, "
            f"effective {s['effective_partitions']:.1f}"
        )


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        get_scenario,
        list_scenarios,
        run_scenario,
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
        import json

        print(json.dumps(scenario_to_dict(spec), indent=2, sort_keys=True))
        return 0

    # run
    exported = None
    record = None
    seeds = (
        [int(v) for v in args.seeds.split(",") if v.strip()]
        if args.seeds
        else None
    )
    start = time.time()
    if args.levels or seeds:
        levels = (
            [int(v) for v in args.levels.split(",") if v.strip()]
            if args.levels
            else None
        )
        seed_grid = seeds if seeds else [
            args.seed if args.seed is not None else spec.default_seed
        ]
        results_by_seed = {
            seed: sweep_scenario(
                spec, levels=levels, seed=seed, mode=args.mode,
                jobs=args.jobs,
            )
            for seed in seed_grid
        }
        if len(seed_grid) == 1:
            only = results_by_seed[seed_grid[0]]
            exported = {
                "scenario": spec.name,
                "levels": {str(n): r.summary() for n, r in only.items()},
            }
        else:
            exported = {
                "scenario": spec.name,
                "seeds": {
                    str(seed): {
                        str(n): r.summary() for n, r in runs.items()
                    }
                    for seed, runs in results_by_seed.items()
                },
            }
        for runs in results_by_seed.values():
            for run in runs.values():
                _print_scenario_summary(run.summary())
                print()
        if args.catalog:
            from repro.artifacts import scenario_record

            record = scenario_record(spec, results_by_seed, mode=args.mode)
    else:
        run = run_scenario(
            spec, n_clients=args.clients, seed=args.seed, mode=args.mode
        )
        exported = run.summary()
        _print_scenario_summary(exported)
        if args.catalog:
            from repro.artifacts import scenario_record

            record = scenario_record(
                spec, {run.seed: {run.n_clients: run}}, mode=args.mode
            )
    print(f"  (finished in {time.time() - start:.2f}s wall-clock)")
    if record is not None:
        from repro.artifacts import CatalogStore

        run_id = CatalogStore(args.catalog).put_record(record)
        print(f"catalogued as {run_id} in {args.catalog}/")
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(exported, fh, indent=2, sort_keys=True)
        print(f"wrote machine-readable scenario summary to {args.json}")
    return 0


def _open_catalog(args: argparse.Namespace):
    """Open the selected catalog directory (or exit 2 when empty/bad)."""
    from repro.artifacts import CatalogError, CatalogStore

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
            f"({stats['runs']:.0f} runs, {stats['objects']:.0f} blob "
            f"objects, {stats['stored_mb']:.3f} MB stored, "
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

    p_list = sub.add_parser("list", help="list available experiments")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run an experiment (or 'all')")
    p_run.add_argument(
        "experiment", choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment id",
    )
    p_run.add_argument(
        "--scale", type=float, default=1.0,
        help="workload scale (1.0 = the paper's protocol)",
    )
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help=(
            "worker processes for independent trials (default: auto = "
            "usable cores capped at 8; 1 = in-process serial; results "
            "are bit-identical for any value)"
        ),
    )
    p_run.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write machine-readable results to this JSON file",
    )
    p_run.set_defaults(func=_cmd_run)

    p_drill = sub.add_parser(
        "drill",
        help=(
            "hedged vs unhedged blob reads under a latency spike (the "
            "fault-window drills run as 'campaign storm|crash|burst')"
        ),
    )
    p_drill.add_argument(
        "scenario",
        choices=["spike"],
        help="spike = hedged vs unhedged blob reads under a latency spike",
    )
    p_drill.add_argument("--seed", type=int, default=3)
    p_drill.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write machine-readable verdicts to this JSON file",
    )
    p_drill.set_defaults(func=_cmd_drill)

    p_campaign = sub.add_parser(
        "campaign",
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
        "--scale", type=float, default=1.0,
        help=(
            "time scale for the campaign horizon and fault schedule "
            "(op cadence is fixed, so smaller scales issue fewer ops)"
        ),
    )
    p_campaign.add_argument("--seed", type=int, default=3)
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
    p_campaign.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help=(
            "worker processes for the policy x mode grid (default: "
            "auto = usable cores capped at 8; 1 = in-process serial; "
            "results are bit-identical for any value)"
        ),
    )
    p_campaign.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the machine-readable report to this JSON file",
    )
    p_campaign.add_argument(
        "--catalog", metavar="DIR", nargs="?", const="catalog",
        default=None,
        help=(
            "catalog the campaign report as a run record in this "
            "directory (default ./catalog)"
        ),
    )
    p_campaign.set_defaults(func=_cmd_campaign)

    p_bench = sub.add_parser(
        "bench",
        help=(
            "measure simulator performance (kernel events/sec + "
            "per-experiment wall-clock) for BENCH_*.json tracking"
        ),
    )
    p_bench.add_argument(
        "--quick", action="store_true",
        help="kernel throughput only (skip experiment wall-clocks)",
    )
    p_bench.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="jobs value used for the experiment wall-clock runs",
    )
    p_bench.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the machine-readable snapshot to this JSON file",
    )
    p_bench.add_argument(
        "--cohort", action="store_true",
        help="also measure closed batched table clients at --clients scale",
    )
    p_bench.add_argument(
        "--clients", type=int, default=100_000, metavar="N",
        help="client population for --cohort (default 100000)",
    )
    p_bench.add_argument(
        "--catalog", metavar="DIR", nargs="?", const="catalog",
        default=None,
        help=(
            "catalog the perf snapshot as a run record in this "
            "directory (default ./catalog)"
        ),
    )
    p_bench.set_defaults(func=_cmd_bench)

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
        help="max traces printed in waterfall mode",
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
        "scenario",
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
        "--seed", type=int, default=None,
        help="RNG seed (default: the spec's recorded seed)",
    )
    p_scenario.add_argument(
        "--mode", choices=["auto", "exact", "batched"], default="auto",
        help=(
            "auto = exact per-client simulation up to "
            "256 clients, batched population dynamics beyond"
        ),
    )
    p_scenario.add_argument(
        "--scale", type=float, default=1.0,
        help=(
            "cheaper copy of the spec: scales the open-arrival horizon "
            "or the per-phase op counts (1.0 = as written)"
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
        "--jobs", type=int, default=1, metavar="N",
        help=(
            "worker processes for --levels sweeps (1 = in-process; "
            "results are bit-identical for any value)"
        ),
    )
    p_scenario.add_argument(
        "--seeds", metavar="S1,S2", default=None,
        help=(
            "run the sweep once per comma-separated seed (a seed x "
            "level grid — what the QC variance gate judges)"
        ),
    )
    p_scenario.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the machine-readable summary to this JSON file",
    )
    p_scenario.add_argument(
        "--catalog", metavar="DIR", nargs="?", const="catalog",
        default=None,
        help=(
            "catalog the run/grid as a run record written through the "
            "simulated blob service into this directory (default "
            "./catalog); observation-only, results are bit-identical "
            "with or without it"
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
        help="filter/select by record kind (scenario, campaign, ...)",
    )
    p_catalog.set_defaults(func=_cmd_catalog)

    p_cal = sub.add_parser(
        "calibration", help="print the paper-anchored constants"
    )
    p_cal.set_defaults(func=_cmd_calibration)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
