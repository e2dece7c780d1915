"""The scenario registry: names -> specs.

Built-in paper scenarios (fig1/fig2/fig3, constructed by the same
builder functions the bench compatibility wrappers call) register at
import time, followed by every config file in ``packs/`` — so "add a
scenario" is "drop a TOML/JSON file in packs/ and record a golden", per
the ROADMAP.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional

from repro import calibration as cal
from repro.scenarios.loader import load_scenario_file
from repro.scenarios.spec import (
    Distribution,
    OpSpec,
    PhaseSpec,
    ScenarioSpec,
    ScenarioValidationError,
)

#: Where shipped scenario packs live (TOML/JSON config files).
PACK_DIR = Path(__file__).resolve().parent / "packs"

_REGISTRY: Dict[str, ScenarioSpec] = {}
_SOURCES: Dict[str, str] = {}


def register_scenario(
    spec: ScenarioSpec, source: str = "builtin", replace: bool = False
) -> None:
    """Register ``spec`` under its name (duplicate names are an error
    unless ``replace=True``)."""
    if spec.name in _REGISTRY and not replace:
        raise ScenarioValidationError(
            f"scenario {spec.name!r} already registered "
            f"(from {_SOURCES[spec.name]})"
        )
    _REGISTRY[spec.name] = spec
    _SOURCES[spec.name] = source


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ScenarioValidationError(
            f"unknown scenario {name!r}; registered: {list_scenarios()}"
        ) from None


def list_scenarios() -> List[str]:
    return sorted(_REGISTRY)


def pack_files() -> List[Path]:
    """Every shipped scenario config file, in deterministic order."""
    if not PACK_DIR.is_dir():
        return []
    return sorted(PACK_DIR.glob("*.toml")) + sorted(PACK_DIR.glob("*.json"))


# -- paper scenario builders ----------------------------------------------
#
# These produce *degenerate* specs — single-op (or single-op-per-phase)
# mixes, constant sizes, no think/skew/link — so the unified driver
# makes zero scenario-feature RNG draws and replays the historical
# hand-written benches byte-for-byte (the fig golden digests pin this).


def fig1_scenario(
    direction: str, size_mb: float = cal.BLOB_TEST_SIZE_MB
) -> ScenarioSpec:
    """Fig. 1: n clients each move one ``size_mb`` blob (shared object
    for downloads, distinct names for uploads), SDK-default retry."""
    if direction not in ("download", "upload"):
        raise ValueError(
            f"direction must be download/upload, got {direction!r}"
        )
    op = OpSpec(
        "blob",
        direction,
        size_mb=Distribution.constant(size_mb),
        retry="default",
    )
    return ScenarioSpec(
        name=f"fig1-blob-{direction}",
        title=f"Fig. 1 blob {direction} bandwidth",
        description=(
            "Section 3.1: concurrent worker roles "
            f"{direction} {size_mb:g} MB blobs; per-client and "
            "aggregate bandwidth vs concurrency."
        ),
        phases=(PhaseSpec("main", (op,), ops_per_client=1),),
        n_clients=4,
        levels=tuple(cal.CONCURRENCY_LEVELS),
        tags=("paper", "fig1"),
    )


def fig2_scenario(
    entity_kb: float = 4.0,
    ops_per_client: Optional[Dict[str, int]] = None,
) -> ScenarioSpec:
    """Fig. 2: the four-phase single-partition table protocol
    (insert/query/update/delete), retries disabled."""
    ops = dict(cal.TABLE_OPS_PER_CLIENT)
    if ops_per_client:
        ops.update(ops_per_client)
    size = Distribution.constant(entity_kb)
    phases = tuple(
        PhaseSpec(
            name=phase,
            ops=(OpSpec("table", phase, size_kb=size),),
            ops_per_client=ops[phase],
        )
        for phase in ("insert", "query", "update", "delete")
    )
    return ScenarioSpec(
        name="fig2-table",
        title="Fig. 2 table operation throughput",
        description=(
            "Section 3.2: four sequential phases against one partition "
            f"({entity_kb:g} kB entities), aborting a client's phase at "
            "its first storage exception."
        ),
        phases=phases,
        n_clients=4,
        levels=tuple(cal.CONCURRENCY_LEVELS),
        tags=("paper", "fig2"),
    )


def fig3_scenario(
    operation: str,
    message_kb: float = 0.5,
    ops_per_client: int = 100,
    prefill: Optional[int] = None,
) -> ScenarioSpec:
    """Fig. 3: one shared queue, measuring add/peek/receive separately
    (peek/receive against a deep pre-filled backlog)."""
    if operation not in ("add", "peek", "receive"):
        raise ValueError(
            f"operation must be one of ('add', 'peek', 'receive'), "
            f"got {operation!r}"
        )
    op = OpSpec(
        "queue",
        operation,
        size_kb=Distribution.constant(message_kb),
        # Long visibility so re-receives don't recycle messages within
        # the measurement window (matching the historical bench).
        visibility_timeout_s=7200.0 if operation == "receive" else None,
    )
    return ScenarioSpec(
        name=f"fig3-queue-{operation}",
        title=f"Fig. 3 queue {operation} throughput",
        description=(
            "Section 3.3: n worker roles share one queue; "
            f"{operation} at {message_kb:g} kB messages."
        ),
        phases=(PhaseSpec("main", (op,), ops_per_client=ops_per_client),),
        n_clients=4,
        levels=tuple(cal.CONCURRENCY_LEVELS),
        queue_prefill=prefill,
        tags=("paper", "fig3"),
    )


def _register_builtins() -> None:
    for direction in ("download", "upload"):
        register_scenario(fig1_scenario(direction))
    register_scenario(fig2_scenario())
    for operation in ("add", "peek", "receive"):
        register_scenario(fig3_scenario(operation))


def _register_packs() -> None:
    for path in pack_files():
        spec, _ = load_scenario_file(path)
        register_scenario(spec, source=str(path))


_register_builtins()
_register_packs()
