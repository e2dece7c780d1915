"""Declarative scenario registry (ROADMAP: "new scenario = config file
plus a golden digest").

:mod:`~repro.scenarios.spec` defines the :class:`ScenarioSpec` family,
:mod:`~repro.scenarios.loader` reads TOML/JSON config files,
:mod:`~repro.scenarios.registry` names built-ins and shipped packs, and
:mod:`~repro.scenarios.driver` runs any spec — exactly (per-client
processes on the shared harness) or batched (the fluid model)
for 10^4+ populations.
"""

from repro.scenarios.arrivals import ArrivalProcess
from repro.scenarios.driver import (
    EXACT_MAX_SCENARIO_CLIENTS,
    LinkDropError,
    ScenarioRunResult,
    run_scenario,
    scenario_engine,
    sweep_scenario,
)
from repro.scenarios.loader import (
    load_scenario_file,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.scenarios.registry import (
    PACK_DIR,
    fig1_scenario,
    fig2_scenario,
    fig3_scenario,
    get_scenario,
    list_scenarios,
    pack_files,
    register_scenario,
)
from repro.scenarios.skew import ZipfRouter
from repro.scenarios.spec import (
    ARRIVAL_KINDS,
    SCENARIO_OPS,
    ArrivalSpec,
    LinkSpec,
    OpSpec,
    PhaseSpec,
    ScenarioSpec,
    ScenarioValidationError,
    SkewSpec,
    dist_from_dict,
    dist_to_dict,
)

__all__ = [
    "ARRIVAL_KINDS",
    "EXACT_MAX_SCENARIO_CLIENTS",
    "PACK_DIR",
    "SCENARIO_OPS",
    "ArrivalProcess",
    "ArrivalSpec",
    "LinkDropError",
    "LinkSpec",
    "OpSpec",
    "PhaseSpec",
    "ScenarioRunResult",
    "ScenarioSpec",
    "ScenarioValidationError",
    "SkewSpec",
    "ZipfRouter",
    "dist_from_dict",
    "dist_to_dict",
    "fig1_scenario",
    "fig2_scenario",
    "fig3_scenario",
    "get_scenario",
    "list_scenarios",
    "load_scenario_file",
    "pack_files",
    "register_scenario",
    "run_scenario",
    "scenario_engine",
    "scenario_from_dict",
    "scenario_to_dict",
    "sweep_scenario",
]
