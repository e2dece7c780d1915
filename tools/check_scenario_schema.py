#!/usr/bin/env python
"""Validate a scenario run's ``repro run --json`` summary: schema and sanity.

CI runs both shipped scenario packs (block-storage, streaming) at their
full 10^4-client populations through the batched driver and then this
checker.  It unwraps the one ``scenario:<name>`` entry of the run
document (``{name: {title, passed, checks, data}}``) and asserts, of
its ``data``:

1. **Schema** — the document carries the run header (``scenario``/
   ``mode``/``n_clients``/``seed``), the scalar outcome fields
   (makespan, op/error/failed-client counts, aggregate rate, latency
   mean/p50/p99) and a non-empty ``per_op`` rollup whose keys are
   ``service.op`` pairs with ops/errors/latency columns.
2. **Sanity** — counts are consistent: per-op ops/errors sum to the
   header totals, latency percentiles are ordered (p50 <= p99), open
   runs carry a ``windows`` rollup whose observed ops equal completed +
   failed-in-flight work, and the optional ``skew`` block's analytic
   quantities are in range.

``--configs`` mode instead validates the scenario *inputs*: every
shipped pack file parses into a valid ``ScenarioSpec``, round-trips
through ``scenario_to_dict``/``scenario_from_dict`` unchanged, and the
registry's builtin figure scenarios are present.

Usage:
    PYTHONPATH=src python tools/check_scenario_schema.py run.json
    PYTHONPATH=src python tools/check_scenario_schema.py --configs
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NoReturn

SUMMARY_FIELDS = (
    "scenario", "mode", "n_clients", "seed",
    "makespan_s", "ops_completed", "errors", "failed_clients",
    "aggregate_ops_per_s",
    "latency_mean_s", "latency_p50_s", "latency_p99_s",
    "per_op",
)

PER_OP_FIELDS = (
    "ops", "errors", "latency_mean_s", "latency_p50_s", "latency_p99_s",
)

MODES = ("exact", "batched")

#: The fields of each entry of a ``repro run --json`` document.
RUN_FIELDS = {"title", "passed", "checks", "data"}


def fail(message: str) -> NoReturn:
    print(f"scenario schema check FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def check_summary(document: dict, where: str = "summary") -> None:
    for key in SUMMARY_FIELDS:
        if key not in document:
            fail(f"{where}: missing {key!r}")
    if not isinstance(document["scenario"], str) or not document["scenario"]:
        fail(f"{where}: 'scenario' must be a non-empty string")
    if document["mode"] not in MODES:
        fail(f"{where}: mode {document['mode']!r} not in {MODES}")
    for key in ("n_clients", "ops_completed", "errors", "failed_clients",
                "seed"):
        value = document[key]
        if not isinstance(value, int):
            fail(f"{where}: {key!r} must be an integer")
        if key != "seed" and value < 0:
            fail(f"{where}: {key!r} must be non-negative")
    if document["n_clients"] < 1:
        fail(f"{where}: 'n_clients' must be >= 1")
    for key in ("makespan_s", "aggregate_ops_per_s", "latency_mean_s",
                "latency_p50_s", "latency_p99_s"):
        value = document[key]
        if not isinstance(value, (int, float)) or value < 0:
            fail(f"{where}: {key!r} must be a non-negative number")
    if document["latency_p50_s"] > document["latency_p99_s"]:
        fail(f"{where}: latency_p50_s exceeds latency_p99_s")

    per_op = document["per_op"]
    if not isinstance(per_op, dict) or not per_op:
        fail(f"{where}: 'per_op' must be a non-empty object")
    ops_total = errors_total = 0.0
    for op_key, row in per_op.items():
        op_where = f"{where}: per_op[{op_key!r}]"
        if op_key.count(".") != 1:
            fail(f"{op_where}: key must be 'service.op'")
        if not isinstance(row, dict):
            fail(f"{op_where}: not an object")
        for key in PER_OP_FIELDS:
            value = row.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                fail(f"{op_where}: {key!r} must be a non-negative number")
        ops_total += row["ops"]
        errors_total += row["errors"]
    if round(ops_total) != document["ops_completed"]:
        fail(
            f"{where}: per_op ops sum {ops_total:.0f} != "
            f"ops_completed {document['ops_completed']}"
        )
    if round(errors_total) != document["errors"]:
        fail(
            f"{where}: per_op errors sum {errors_total:.0f} != "
            f"errors {document['errors']}"
        )

    windows = document.get("windows")
    if windows is not None:
        w_where = f"{where}: windows"
        if not isinstance(windows, dict):
            fail(f"{w_where}: not an object")
        for key in ("count", "expected_ops", "ops", "errors"):
            value = windows.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                fail(f"{w_where}: {key!r} must be a non-negative number")
        if windows["count"] < 1:
            fail(f"{w_where}: open run recorded no windows")
        issued = windows["ops"] + windows["errors"]
        completed = document["ops_completed"] + document["errors"]
        if issued < completed:
            fail(
                f"{w_where}: window ops+errors {issued} below completed "
                f"work {completed}"
            )

    skew = document.get("skew")
    if skew is not None:
        s_where = f"{where}: skew"
        if not isinstance(skew, dict):
            fail(f"{s_where}: not an object")
        for key in ("partitions", "theta", "top_share",
                    "effective_partitions"):
            value = skew.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                fail(f"{s_where}: {key!r} must be a non-negative number")
        if not 0.0 < skew["top_share"] <= 1.0:
            fail(f"{s_where}: 'top_share' must be in (0, 1]")
        if not 1.0 <= skew["effective_partitions"] <= skew["partitions"]:
            fail(
                f"{s_where}: 'effective_partitions' must lie in "
                f"[1, partitions]"
            )


def unwrap(document: object) -> dict:
    """The ``data`` of a run document's one scenario run."""
    if not isinstance(document, dict) or len(document) != 1:
        fail("document must be a JSON object holding exactly one run")
    ((name, run),) = document.items()
    if not name.startswith("scenario:"):
        fail(f"run {name!r} is not a scenario run")
    if not isinstance(run, dict) or set(run) != RUN_FIELDS:
        fail(f"{name}: a run entry holds exactly {sorted(RUN_FIELDS)}")
    document = run["data"]
    if not isinstance(document, dict):
        fail(f"{name}: 'data' must be a JSON object")
    if document.get("scenario") != name.split(":", 1)[1]:
        fail(f"{name}: data names scenario {document.get('scenario')!r}")
    return document


def check_configs() -> int:
    """Validate the shipped pack files and the registry contents."""
    from repro.scenarios import (
        get_scenario,
        list_scenarios,
        load_scenario_file,
        pack_files,
        scenario_from_dict,
        scenario_to_dict,
    )

    packs = pack_files()
    if not packs:
        fail("no scenario pack files shipped under repro/scenarios/packs")
    for path in packs:
        try:
            spec, fmt = load_scenario_file(path)
        except Exception as exc:  # noqa: BLE001 - report and fail
            fail(f"{path.name}: does not parse: {exc}")
        doc = scenario_to_dict(spec)
        if scenario_to_dict(scenario_from_dict(doc)) != doc:
            fail(f"{path.name}: spec does not round-trip through dicts")
        if get_scenario(spec.name).name != spec.name:
            fail(f"{path.name}: '{spec.name}' not in the registry")
        print(f"pack OK: {path.name} ({fmt}) -> scenario '{spec.name}'")
    registered = list_scenarios()
    for name in ("fig1-blob-download", "fig1-blob-upload", "fig2-table",
                 "fig3-queue-add", "fig3-queue-peek", "fig3-queue-receive"):
        if name not in registered:
            fail(f"builtin figure scenario {name!r} missing from registry")
    print(
        f"scenario configs OK: {len(packs)} pack file(s), "
        f"{len(registered)} registered scenarios"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "path", nargs="?", default=None,
        help="repro run scenario:<name> --json document",
    )
    parser.add_argument(
        "--configs", action="store_true",
        help=(
            "validate the shipped pack files and registry instead of a "
            "run summary"
        ),
    )
    args = parser.parse_args(argv)
    if args.configs:
        return check_configs()
    if args.path is None:
        fail("need a summary file path (or --configs)")
    with open(args.path) as fh:
        document = unwrap(json.load(fh))
    if "seeds" in document:
        seeds = document["seeds"]
        if not isinstance(seeds, dict) or not seeds:
            fail("'seeds' must be a non-empty object")
        cells = 0
        for seed, levels in sorted(seeds.items(), key=lambda kv: int(kv[0])):
            if not isinstance(levels, dict) or not levels:
                fail(f"seeds[{seed}] must be a non-empty object")
            for level, doc in sorted(
                levels.items(), key=lambda kv: int(kv[0])
            ):
                check_summary(doc, where=f"seeds[{seed}][{level}]")
                cells += 1
        print(
            f"scenario grid schema OK: '{document.get('scenario')}' over "
            f"{len(seeds)} seed(s), {cells} cell(s)"
        )
        return 0
    if "levels" in document:
        levels = document["levels"]
        if not isinstance(levels, dict) or not levels:
            fail("'levels' must be a non-empty object")
        for level, doc in sorted(levels.items(), key=lambda kv: int(kv[0])):
            check_summary(doc, where=f"levels[{level}]")
        print(
            f"scenario sweep schema OK: '{document.get('scenario')}' at "
            f"{len(levels)} population size(s)"
        )
        return 0
    check_summary(document)
    print(
        f"scenario schema OK: '{document['scenario']}' ({document['mode']} "
        f"driver, {document['n_clients']:,} clients, "
        f"{document['ops_completed']:,} ops, {document['errors']:,} errors)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
