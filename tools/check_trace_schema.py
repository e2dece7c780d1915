#!/usr/bin/env python
"""Validate a Chrome trace-event JSON export's schema and span nesting.

CI runs ``repro run scenario:fig1-blob-download --trace chrome`` and
then this checker, which asserts:

1. **Schema** — the document has a ``traceEvents`` list of ``"X"``
   (complete) events, each with numeric ``ts``/``dur`` (microseconds),
   integer ``pid`` (trace id) / ``tid`` (lane), a ``name``/``cat``, and
   ``args`` carrying ``span_id``/``parent_id``/``trace_id``/``status``.
2. **Causality** — every non-root span's parent exists in the same
   trace, parents start no later and end no earlier than their children
   (within a float tolerance), and there are no parent cycles.
3. **Shape** — at least one trace nests the full instrumented path:
   a ``client`` span over an ``attempt`` span over a ``server`` span
   over at least one ``stage`` span.

Usage:
    PYTHONPATH=src python tools/check_trace_schema.py trace.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NoReturn

#: Tolerance (µs) for parent/child containment comparisons.
EPS_US = 0.5


def fail(message: str) -> NoReturn:
    print(f"trace schema check FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def check_event_schema(events: list) -> None:
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if event.get("ph") != "X":
            fail(f"{where}: expected complete event ph='X', got {event.get('ph')!r}")
        for key in ("name", "cat"):
            if not isinstance(event.get(key), str) or not event[key]:
                fail(f"{where}: missing or empty {key!r}")
        for key in ("ts", "dur"):
            if not isinstance(event.get(key), (int, float)):
                fail(f"{where}: {key!r} must be numeric")
        if event["dur"] < 0:
            fail(f"{where}: negative dur")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                fail(f"{where}: {key!r} must be an integer")
        args = event.get("args")
        if not isinstance(args, dict):
            fail(f"{where}: missing args object")
        for key in ("span_id", "trace_id", "status"):
            if key not in args:
                fail(f"{where}: args missing {key!r}")
        if "parent_id" not in args:
            fail(f"{where}: args missing 'parent_id' (null for roots)")
        if args["trace_id"] != event["pid"]:
            fail(f"{where}: args.trace_id != pid")


def check_causality(events: list) -> None:
    by_id = {e["args"]["span_id"]: e for e in events}
    if len(by_id) != len(events):
        fail("duplicate span_id")
    for event in events:
        parent_id = event["args"]["parent_id"]
        if parent_id is None:
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            fail(f"span {event['args']['span_id']} has unknown parent {parent_id}")
        if parent["pid"] != event["pid"]:
            fail(f"span {event['args']['span_id']} crosses traces to its parent")
        if parent["ts"] > event["ts"] + EPS_US:
            fail(f"parent {parent_id} starts after child {event['args']['span_id']}")
        if (parent["ts"] + parent["dur"]) + EPS_US < event["ts"] + event["dur"]:
            fail(f"parent {parent_id} ends before child {event['args']['span_id']}")
    # No cycles: walk each span to a root, bounded by the span count.
    for event in events:
        hops = 0
        cursor = event
        while cursor["args"]["parent_id"] is not None:
            cursor = by_id[cursor["args"]["parent_id"]]
            hops += 1
            if hops > len(events):
                fail(f"parent cycle at span {event['args']['span_id']}")


def check_nesting_shape(events: list) -> None:
    by_id = {e["args"]["span_id"]: e for e in events}

    def ancestor_kinds(event: dict) -> list:
        kinds = []
        cursor = event
        while cursor["args"]["parent_id"] is not None:
            cursor = by_id[cursor["args"]["parent_id"]]
            kinds.append(cursor["cat"])
        return kinds

    for event in events:
        if event["cat"] != "stage":
            continue
        kinds = ancestor_kinds(event)
        if "server" in kinds and "attempt" in kinds and "client" in kinds:
            return
    fail("no stage span nests under server -> attempt -> client")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", help="Chrome trace-event JSON file")
    args = parser.parse_args(argv)
    with open(args.path) as fh:
        document = json.load(fh)
    events = document.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("document has no traceEvents")
    metadata = document.get("metadata", {})
    if metadata.get("clock") != "simulation-seconds":
        fail("metadata.clock missing or wrong")
    check_event_schema(events)
    check_causality(events)
    check_nesting_shape(events)
    traces = {e["pid"] for e in events}
    print(
        f"trace schema OK: {len(events)} spans across {len(traces)} traces "
        f"(client -> attempt -> server -> stage nesting verified)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
