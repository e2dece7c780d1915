#!/usr/bin/env python
"""Validate a campaign run's ``repro run --json`` report: schema and ordering.

CI runs ``repro run campaign:day`` (one simulated day of correlated
rack/zone/WAN outages, replayed per failover mode) and ``repro run
campaign:storm`` (a 503 storm replayed per client policy), each
followed by this checker.  It unwraps the one ``campaign:<preset>``
entry of the run document (``{name: {title, passed, checks, data}}``)
and asserts, of its ``data``:

1. **Schema** — the document carries the scenario header
   (``scenario``/``duration_s``/``seed``/``slo``), a ``faults``
   schedule (empty for the server-window presets; each entry a known
   domain kind with a non-negative start and exactly one of
   duration/MTTR), and a
   ``modes`` object whose entries expose the availability, per-minute,
   failover and SLO-burn fields the report promises.
2. **Sanity** — per-mode counts are consistent: ``ok + failed == ops``,
   availability matches ``ok/ops``, minute counters are bounded by the
   sampled minutes, and burn rates are non-negative.
3. **Ordering** — when the schedule is non-empty and both modes are
   present, ``automatic`` failover yields strictly better user-side
   availability than ``none`` (the acceptance criterion: the failover
   machinery must actually help under correlated faults).

Usage:
    PYTHONPATH=src python tools/check_campaign_schema.py campaign.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NoReturn

MODE_FIELDS = (
    "availability", "ops", "ok", "failed", "retries",
    "p50_ms", "p99_ms", "amplification",
    "minutes", "bad_minutes", "zero_minutes",
    "worst_minute_availability", "mean_minute_availability",
    "account_failovers", "account_failbacks", "client_failovers",
    "lost_writes", "slo_pass", "worst_burn_rate", "slo",
)

FAULT_KINDS = ("blackout", "crash_restart")

#: The fields of each entry of a ``repro run --json`` document.
RUN_FIELDS = {"title", "passed", "checks", "data"}


def fail(message: str) -> NoReturn:
    print(f"campaign schema check FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def unwrap(document: object) -> dict:
    """The ``data`` of a run document's one campaign run."""
    if not isinstance(document, dict) or len(document) != 1:
        fail("document must be a JSON object holding exactly one run")
    ((name, run),) = document.items()
    if not name.startswith("campaign:"):
        fail(f"run {name!r} is not a campaign run")
    if not isinstance(run, dict) or set(run) != RUN_FIELDS:
        fail(f"{name}: a run entry holds exactly {sorted(RUN_FIELDS)}")
    if not isinstance(run["data"], dict):
        fail(f"{name}: 'data' must be a JSON object")
    return run["data"]


def check_header(document: dict) -> None:
    if not isinstance(document.get("scenario"), str) or not document["scenario"]:
        fail("missing or empty 'scenario'")
    for key in ("duration_s", "seed"):
        if not isinstance(document.get(key), (int, float)):
            fail(f"'{key}' must be numeric")
    if document["duration_s"] <= 0:
        fail("'duration_s' must be positive")
    slo = document.get("slo")
    if not isinstance(slo, dict):
        fail("missing 'slo' object")
    for key in ("availability", "p99_ms", "amplification"):
        if not isinstance(slo.get(key), (int, float)):
            fail(f"slo.{key} must be numeric")


def check_faults(document: dict) -> list:
    faults = document.get("faults")
    if not isinstance(faults, list):
        fail("'faults' must be a list")
    for i, fault in enumerate(faults):
        where = f"faults[{i}]"
        if not isinstance(fault, dict):
            fail(f"{where}: not an object")
        if not isinstance(fault.get("domain"), str) or not fault["domain"]:
            fail(f"{where}: missing 'domain'")
        if fault.get("kind") not in FAULT_KINDS:
            fail(f"{where}: kind {fault.get('kind')!r} not in {FAULT_KINDS}")
        start = fault.get("start_s")
        if not isinstance(start, (int, float)) or start < 0:
            fail(f"{where}: 'start_s' must be a non-negative number")
        duration = fault.get("duration_s")
        mttr = fault.get("mttr_s")
        if (duration is None) == (mttr is None):
            fail(f"{where}: exactly one of duration_s/mttr_s must be set")
        horizon = duration if duration is not None else mttr
        if not isinstance(horizon, (int, float)) or horizon <= 0:
            fail(f"{where}: outage duration/MTTR must be positive")
    return faults


def check_mode(name: str, mode: dict) -> None:
    where = f"modes[{name!r}]"
    for key in MODE_FIELDS:
        if key not in mode:
            fail(f"{where}: missing {key!r}")
    for key in ("ops", "ok", "failed", "retries", "minutes", "bad_minutes",
                "zero_minutes", "account_failovers", "account_failbacks",
                "client_failovers", "lost_writes"):
        value = mode[key]
        if not isinstance(value, int) or value < 0:
            fail(f"{where}: {key!r} must be a non-negative integer")
    for key in ("availability", "worst_minute_availability",
                "mean_minute_availability"):
        value = mode[key]
        if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
            fail(f"{where}: {key!r} must be in [0, 1]")
    for key in ("p50_ms", "p99_ms", "amplification", "worst_burn_rate"):
        value = mode[key]
        if not isinstance(value, (int, float)) or value < 0:
            fail(f"{where}: {key!r} must be a non-negative number")
    if not isinstance(mode["slo_pass"], bool):
        fail(f"{where}: 'slo_pass' must be a boolean")
    if mode["ok"] + mode["failed"] != mode["ops"]:
        fail(f"{where}: ok + failed != ops")
    if mode["ops"] == 0:
        fail(f"{where}: campaign issued no operations")
    if abs(mode["availability"] - mode["ok"] / mode["ops"]) > 1e-9:
        fail(f"{where}: availability inconsistent with ok/ops")
    if mode["bad_minutes"] > mode["minutes"]:
        fail(f"{where}: bad_minutes exceeds sampled minutes")
    if mode["zero_minutes"] > mode["bad_minutes"]:
        fail(f"{where}: zero_minutes exceeds bad_minutes")
    slo = mode["slo"]
    if not isinstance(slo, dict) or not slo:
        fail(f"{where}: 'slo' must be a non-empty object")
    for objective, fields in slo.items():
        for key in ("target", "sli", "error_budget", "budget_consumed",
                    "budget_remaining", "burn_rate", "passed"):
            if key not in fields:
                fail(f"{where}: slo[{objective!r}] missing {key!r}")


def check_ordering(document: dict, faults: list) -> None:
    modes = document["modes"]
    if not faults or "automatic" not in modes or "none" not in modes:
        return
    auto = modes["automatic"]["availability"]
    none = modes["none"]["availability"]
    if not auto > none:
        fail(
            "automatic failover must strictly beat no-failover under "
            f"correlated faults (automatic={auto:.6f}, none={none:.6f})"
        )
    if modes["automatic"]["account_failovers"] < 1:
        fail("automatic mode recorded no account failovers despite faults")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "path", help="repro run campaign:<preset> --json document"
    )
    args = parser.parse_args(argv)
    with open(args.path) as fh:
        document = unwrap(json.load(fh))
    check_header(document)
    faults = check_faults(document)
    modes = document.get("modes")
    if not isinstance(modes, dict) or not modes:
        fail("'modes' must be a non-empty object")
    for name, mode in modes.items():
        if not isinstance(mode, dict):
            fail(f"modes[{name!r}] is not an object")
        check_mode(name, mode)
    check_ordering(document, faults)
    availabilities = ", ".join(
        f"{name}={mode['availability']:.5f}"
        for name, mode in sorted(modes.items())
    )
    print(
        f"campaign schema OK: scenario '{document['scenario']}', "
        f"{len(faults)} correlated faults, {len(modes)} grid cells "
        f"({availabilities})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
