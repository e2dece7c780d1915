"""The Fig. 2 table benchmark and the Section 6.1 property-filter test.

Protocol (Section 3.2), per concurrency level ``n`` on ONE partition:

1. Insert: each of the n clients inserts 500 new entities.
2. Query: each client point-queries the same entity 500 times.
3. Update: every client unconditionally updates the *same* entity, 100x.
4. Delete: each client deletes the 500 entities it inserted.

The benchmark program (like the authors') aborts a client's phase at the
first storage exception, which is how "only 89 clients successfully
finished all 500 insert operations" presents.  Raw service behaviour is
wanted, so the driver runs with retries disabled.

Since the scenario-registry refactor this module is a thin
compatibility wrapper: the four-phase protocol is the registered
``fig2-table`` scenario, executed by the unified driver in
:mod:`repro.scenarios.driver` (byte-identical replay of the historical
hand-written phase procs — pinned by the golden digests).  The
Section 6.1 property-filter test stays a bespoke driver: its
query-by-property scan is not a scenario op.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import calibration as cal
from repro.client import TableClient
from repro.resilience.backoff import NO_RETRY
from repro.workloads.harness import (
    ClientRun,
    Platform,
    build_platform,
    run_clients,
    sweep,
)

PHASES = ("insert", "query", "update", "delete")


class PhaseOutcome(ClientRun):
    """One client's result for one phase."""


@dataclass
class TableBenchResult:
    """One (entity size, concurrency) column of Fig. 2."""

    n_clients: int
    entity_kb: float
    phases: Dict[str, List[PhaseOutcome]] = field(default_factory=dict)

    def mean_client_ops(self, phase: str) -> float:
        outcomes = self.phases[phase]
        return sum(o.ops_per_s for o in outcomes) / len(outcomes)

    def aggregate_ops(self, phase: str) -> float:
        outcomes = self.phases[phase]
        window = max(o.elapsed_s for o in outcomes)
        return sum(o.ops_completed for o in outcomes) / window

    def failed_clients(self, phase: str) -> int:
        return sum(1 for o in self.phases[phase] if not o.finished)


def run_table_test(
    n_clients: int,
    entity_kb: float = 4.0,
    ops_per_client: Optional[Dict[str, int]] = None,
    seed: int = 0,
    platform: Platform = None,
) -> TableBenchResult:
    """Run the four-phase protocol at one concurrency level."""
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    # Imported lazily: repro.scenarios and repro.workloads import each
    # other's submodules, so neither package init may need the other.
    from repro.scenarios.driver import run_scenario
    from repro.scenarios.registry import fig2_scenario

    spec = fig2_scenario(entity_kb=entity_kb, ops_per_client=ops_per_client)
    run = run_scenario(
        spec, n_clients=n_clients, seed=seed, mode="exact", platform=platform
    )
    result = TableBenchResult(n_clients, entity_kb)
    for phase in PHASES:
        result.phases[phase] = [
            PhaseOutcome(o.client, o.ops_completed, o.elapsed_s, o.error)
            for o in run.phase_outcomes[phase]
        ]
    return result


def sweep_table(
    levels: Sequence[int] = cal.CONCURRENCY_LEVELS,
    entity_kb: float = 4.0,
    ops_per_client: Optional[Dict[str, int]] = None,
    seed: int = 0,
    jobs: Optional[int] = 1,
) -> Dict[int, TableBenchResult]:
    """Fig. 2's concurrency sweep for one entity size.

    ``jobs`` fans the independent per-level trials across worker
    processes (``1`` = in-process, ``None`` = auto); results are merged
    in level order and are bit-identical for any jobs value.
    """
    return sweep(
        run_table_test,
        [(n, entity_kb, ops_per_client, seed + n) for n in levels],
        levels,
        jobs=jobs,
    )


@dataclass
class PropertyFilterResult:
    """Section 6.1's non-indexed query experiment."""

    n_clients: int
    n_entities: int
    timed_out_clients: int
    succeeded_clients: int
    latencies_s: List[float] = field(default_factory=list)


def run_property_filter_test(
    n_clients: int = 32,
    n_entities: int = cal.TABLE_SCAN_EXPERIMENT_ENTITIES,
    seed: int = 0,
) -> PropertyFilterResult:
    """Query a ~220k-entity partition by property filter from n clients.

    The paper: "over a half of the 32 concurrent clients got time-out
    exceptions instead of correct results."
    """
    p = build_platform(seed=seed, n_clients=max(n_clients, 1))
    svc = p.account.tables
    svc.create_table("big")
    # Pre-populate administratively (simulating 220k inserts one by one
    # is not the point of this experiment), as columns: only the ~1% of
    # rows the filter matches ever become entities.
    svc.seed_columns(
        "big", "pk", n_entities, "r", f1=np.arange(n_entities) % 97
    )

    outcomes = {"timeout": 0, "ok": 0}
    latencies: List[float] = []

    def scanner(env, idx):
        client = TableClient(svc, retry=NO_RETRY)
        start = env.now
        try:
            # Every client sends the same ``$filter=f1 eq 13``.
            yield from client.query_by_property("big", "pk", ("f1", "eq", 13))
            outcomes["ok"] += 1
            latencies.append(env.now - start)
        except Exception:  # noqa: BLE001 - timeout is the expected failure
            outcomes["timeout"] += 1

    run_clients(p, n_clients, scanner)
    return PropertyFilterResult(
        n_clients=n_clients,
        n_entities=n_entities,
        timed_out_clients=outcomes["timeout"],
        succeeded_clients=outcomes["ok"],
        latencies_s=latencies,
    )
