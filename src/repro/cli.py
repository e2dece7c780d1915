"""Command-line interface: list, describe and run everything in the run
registry.

Usage::

    python -m repro list
    python -m repro describe scenario:block-storage
    python -m repro describe --file my_pack.toml
    python -m repro run fig1 [--scale 0.3] [--seed 7] [--json out.json]
    python -m repro run all  [--scale 0.2]
    python -m repro run drill:hedge [--json out.json]
    python -m repro run campaign:day [--catalog DIR]
    python -m repro run campaign:month --modes none,automatic [--fast]
    python -m repro run scenario:streaming [--clients 10000] [--mode batched]
    python -m repro run --file my_pack.toml [--levels 2,8,32]
    python -m repro run scenario:fig3-queue-add --levels 2,4 --seeds 3,4 --catalog
    python -m repro run scenario:fig1-blob-download --trace chrome --out trace.json
    python -m repro run scenario:streaming --availability 0.99 --latency-ms 500
    python -m repro calibration
    python -m repro qc [RUN_ID] [--max-cv 0.5] [--freeze baseline]
    python -m repro dash [RUN_ID | --frozen baseline] [--availability 0.999]
    python -m repro catalog list [--kind scenario]
    python -m repro catalog show [RUN_ID]

``run`` is the one verb that runs anything; ``--seed`` defaults to 3,
the golden seed.  Each runnable declares the knobs it accepts
(:attr:`~repro.experiments.registry.Runnable.knobs`); a flag whose knob
the run would not use exits 2 before the run, naming the ones it
accepts.  ``--json`` writes ``{name: {title, passed, checks, data}}``.
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


def _scenario_spec(args: argparse.Namespace):
    """The spec that NAME (``scenario:<name>``) or ``--file PATH``
    names, or ``None`` (exit 2)."""
    from repro.scenarios import (
        ScenarioValidationError,
        get_scenario,
        load_scenario_file,
    )

    if (args.name is None) == (args.file is None):
        print(f"repro: {args.command} takes one of NAME and --file PATH",
              file=sys.stderr)
        return None
    try:
        if args.file:
            spec = load_scenario_file(args.file)[0]
        else:
            spec = get_scenario(args.name.split(":", 1)[1])
        spec.scaled(args.scale)  # a bad --scale fails here, before a run
    except (ScenarioValidationError, KeyError, OSError) as exc:
        print(f"bad scenario: {exc}", file=sys.stderr)
        return None
    return spec


def _cmd_describe(args: argparse.Namespace) -> int:
    from repro.scenarios import scenario_to_dict

    spec = _scenario_spec(args)
    if spec is None:
        return 2
    print(json.dumps(
        scenario_to_dict(spec.scaled(args.scale)), indent=2, sort_keys=True
    ))
    return 0


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


def _slos(args: argparse.Namespace) -> Optional[List[Any]]:
    """The objectives the SLO flags set: availability with
    ``--availability``, latency with ``--latency-ms`` or
    ``--latency-target`` (500 ms and 0.95 when unset); ``None`` when no
    SLO flag is given."""
    from repro.observability.slo import availability_slo, latency_slo

    slos = []
    if args.availability is not None:
        try:
            slos.append(availability_slo(args.availability))
        except ValueError as exc:
            raise ValueError(f"--availability: {exc}") from None
    if args.latency_ms is not None or args.latency_target is not None:
        latency_ms = 500.0 if args.latency_ms is None else args.latency_ms
        target = 0.95 if args.latency_target is None else args.latency_target
        try:
            slos.append(latency_slo(latency_ms / 1000.0, target))
        except ValueError as exc:
            raise ValueError(f"--latency-ms/--latency-target: {exc}") from None
    return slos or None


def _knobs(args: argparse.Namespace) -> Dict[str, Any]:
    """The knobs the flags set (an unset flag sets none), after the
    checks only the command line can make; ``ValueError`` (exit 2)
    otherwise."""
    if args.limit is not None and args.limit < 1:
        raise ValueError(f"--limit must be >= 1, got {args.limit}")
    if args.trace in ("chrome", "jsonl") and not args.out:
        raise ValueError(f"--trace {args.trace} needs --out PATH")
    if args.out is not None and args.trace not in ("chrome", "jsonl"):
        raise ValueError("--out applies only to --trace chrome|jsonl")
    if args.limit is not None and args.trace != "waterfall":
        raise ValueError("--limit applies only to --trace waterfall")
    knobs = {
        "n_clients": args.clients,
        "mode": args.mode,
        "levels": (
            None if args.levels is None
            else _int_list("--levels", args.levels, 1)
        ),
        "seeds": (
            None if args.seeds is None
            else _int_list("--seeds", args.seeds, 0)
        ),
        "trace": True if args.trace else None,
        "slos": _slos(args),
        "modes": (
            None if args.modes is None
            else [m.strip() for m in args.modes.split(",") if m.strip()]
        ),
        "fast": args.fast,
        "guard_band_s": args.guard_band,
    }
    return {k: v for k, v in knobs.items() if v is not None}


def _execute(
    runnable: Runnable, args: argparse.Namespace, **knobs: Any
) -> Optional[Any]:
    """Run ``runnable`` with the shared flags and ``knobs`` and print
    it; ``None`` (exit 2) when the run rejects its arguments."""
    start = time.time()
    try:
        result = runnable.run(
            seed=args.seed, scale=args.scale, jobs=args.jobs, **knobs
        )
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return None
    print(result.render())
    print(f"\n({runnable.name} finished in {time.time() - start:.1f}s)\n")
    return result


def _export_trace(args: argparse.Namespace, tracer: Any) -> None:
    """Print or write the spans a ``--trace`` run collected."""
    from repro.observability.export import (
        waterfall,
        write_chrome_trace,
        write_jsonl,
    )

    spans, traces = tracer.spans(), tracer.traces()
    print(f"collected {len(spans)} spans over {len(traces)} traces "
          f"({tracer.errors} error spans)")
    if args.trace == "chrome":
        path = write_chrome_trace(args.out, spans)
        print(f"wrote Chrome trace-event JSON to {path} "
              "(load in Perfetto or chrome://tracing)")
    elif args.trace == "jsonl":
        path = write_jsonl(args.out, spans)
        print(f"wrote {len(spans)} spans to {path}")
    else:
        limit = args.limit or 3
        for trace_id in sorted(traces)[:limit]:
            print(waterfall(spans, trace_id=trace_id))
            print()
        if len(traces) > limit:
            print(f"(… {len(traces) - limit} more traces; raise --limit, "
                  "or export with --trace chrome --out trace.json)")


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.artifacts import canonical_data

    try:
        knobs = _knobs(args)
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    if args.name is None or args.file is not None:
        spec = _scenario_spec(args)
        if spec is None:
            return 2
        targets = [scenario_runnable(spec)]
    elif args.name == "all":
        targets = list(EXPERIMENTS.values())
    else:
        targets = [get_experiment(args.name)]
    results = []
    for runnable in targets:
        result = _execute(runnable, args, **knobs)
        if result is None:
            return 2
        results.append(result)
    if args.trace:
        _export_trace(args, results[0].spans)
    if args.catalog:
        from repro.artifacts import CatalogStore, ingest

        store = CatalogStore(args.catalog)
        for r in results:
            run_id = ingest(store, r.cells or {args.seed: {r.level: r}})
            print(f"catalogued as {run_id} in {args.catalog}/")
    if args.json:
        document = {
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
        }
        with open(args.json, "w") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
        print(f"wrote machine-readable results to {args.json}")
    failures = sum(not r.passed for r in results)
    if failures:
        print(f"{failures} run(s) had failing checks")
    return 1 if failures else 0


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
    names = sorted(runnables())

    # What `run` and `describe` share: a spec file and the scale.
    spec_flags = argparse.ArgumentParser(add_help=False)
    spec_flags.add_argument(
        "--file", metavar="PATH", default=None,
        help="a scenario from a TOML/JSON pack file instead of NAME",
    )
    spec_flags.add_argument(
        "--scale", type=float, default=1.0,
        help=(
            "workload scale > 0 (1.0 = as specified): sample counts for "
            "experiments, the open horizon or per-phase op counts for "
            "scenarios, simulated time for campaigns (their op cadence "
            "is fixed); the drill has one size"
        ),
    )

    p_list = sub.add_parser("list", help="list every registered run")
    p_list.set_defaults(func=_cmd_list)

    p_describe = sub.add_parser(
        "describe", parents=[spec_flags],
        help="dump one scenario's spec (scaled) as JSON",
    )
    p_describe.add_argument(
        "name", metavar="NAME", nargs="?", default=None,
        choices=[n for n in names if n.startswith("scenario:")],
        help="scenario:<name> (see 'list')",
    )
    p_describe.set_defaults(func=_cmd_describe)

    p_run = sub.add_parser(
        "run", parents=[spec_flags],
        help=(
            "run any registered run (see 'list'), a scenario file, or "
            "'all' experiments"
        ),
    )
    p_run.add_argument(
        "name", metavar="NAME", nargs="?", default=None,
        choices=names + ["all"],
        help=(
            "fig1..table2, scenario:<name>, campaign:<preset>, "
            "drill:hedge, or all (every paper experiment)"
        ),
    )
    p_run.add_argument(
        "--seed", type=int, default=GOLDEN_SEED,
        help=f"master seed (default {GOLDEN_SEED}, the golden seed)",
    )
    p_run.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help=(
            "worker processes for independent trials, sweep levels or "
            "campaign cells (default: auto = usable cores capped at 8; "
            "1 = in-process serial; results are bit-identical for any "
            "value)"
        ),
    )
    p_run.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write machine-readable results to this JSON file",
    )
    p_run.add_argument(
        "--catalog", metavar="DIR", nargs="?", const="catalog",
        default=None,
        help=(
            "catalog the results as a content-addressed run record in "
            "this directory (default ./catalog); observation-only, "
            "results are bit-identical with or without it"
        ),
    )
    scenario = p_run.add_argument_group("scenario knobs")
    scenario.add_argument(
        "--clients", type=int, default=None, metavar="N",
        help="override the spec's population size",
    )
    scenario.add_argument(
        "--mode", choices=["auto", "exact", "batched"], default=None,
        help=(
            "auto (default) = exact per-client simulation up to "
            "256 clients, batched population dynamics beyond"
        ),
    )
    scenario.add_argument(
        "--levels", metavar="N1,N2", default=None,
        help=(
            "sweep these comma-separated population sizes instead of a "
            "single run (per-level trials fan across --jobs workers)"
        ),
    )
    scenario.add_argument(
        "--seeds", metavar="S1,S2", default=None,
        help=(
            "run the sweep once per comma-separated seed (a seed x "
            "level grid — what the QC variance gate judges)"
        ),
    )
    scenario.add_argument(
        "--trace", default=None, choices=["waterfall", "chrome", "jsonl"],
        help=(
            "capture every span of an exact run: waterfall = ASCII "
            "per-trace view; chrome = trace-event JSON for "
            "Perfetto/chrome://tracing; jsonl = one span per line"
        ),
    )
    scenario.add_argument(
        "--out", metavar="PATH", default=None,
        help="--trace chrome|jsonl output file",
    )
    scenario.add_argument(
        "--limit", type=int, default=None,
        help="--trace waterfall: traces printed (default 3, at least 1)",
    )
    scenario.add_argument(
        "--availability", type=float, default=None, metavar="T",
        help="check an availability SLO in (0, 1) on the client calls",
    )
    scenario.add_argument(
        "--latency-ms", type=float, default=None, metavar="MS",
        help="check a latency SLO with this threshold (default 500)",
    )
    scenario.add_argument(
        "--latency-target", type=float, default=None, metavar="T",
        help=(
            "latency SLO: required fraction of calls under the threshold "
            "(default 0.95)"
        ),
    )
    campaign = p_run.add_argument_group("campaign knobs")
    campaign.add_argument(
        "--modes", metavar="M1,M2", default=None,
        help=(
            "comma-separated failover modes to replay (default: the "
            "preset's modes)"
        ),
    )
    campaign.add_argument(
        "--fast", action="store_true", default=None,
        help=(
            "piecewise-stationary fast-forward: solve the stationary "
            "windows between fault/failover transitions analytically "
            "and event-simulate only a guard band around each "
            "transition (availability verdicts and minute counts match "
            "event-level replay; latency tails are statistical)"
        ),
    )
    campaign.add_argument(
        "--guard-band", type=float, default=None, metavar="S",
        help=(
            "--fast only: event-level radius in seconds around each "
            "transition (default: replication lag + client timeout, "
            "at least 65s)"
        ),
    )
    p_run.set_defaults(func=_cmd_run)

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
