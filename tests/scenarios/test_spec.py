"""ScenarioSpec validation, (de)serialisation, loaders and registry."""

import json

import pytest

from repro.scenarios import (
    PACK_DIR,
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
    get_scenario,
    list_scenarios,
    load_scenario_file,
    pack_files,
    register_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.scenarios.loader import parse_toml, parse_toml_minimal
from repro.simcore import Distribution
from repro.workloads.cohort import solve_stationary, stationary_op_model


def _mixed_spec(**overrides):
    base = dict(
        name="mixed",
        phases=(
            PhaseSpec(
                "main",
                (
                    OpSpec("table", "insert", weight=2.0,
                           size_kb=Distribution.constant(4.0)),
                    OpSpec("table", "query", weight=1.0),
                    OpSpec("queue", "add", weight=1.0,
                           size_kb=Distribution.uniform(0.5, 2.0)),
                ),
                ops_per_client=10,
            ),
        ),
        arrival=ArrivalSpec(
            kind="closed", think=Distribution.exponential(0.05)
        ),
        skew=SkewSpec(partitions=8, theta=0.9),
        n_clients=4,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


# -- op-set contract -------------------------------------------------------


def test_every_scenario_op_has_a_fluid_model():
    # Every exact-mode op must also run batched, so the fluid model
    # prices each (service, op) pair the spec layer accepts.
    for service, op in SCENARIO_OPS:
        state = solve_stationary(stationary_op_model(service, op), 100.0, 0.1)
        assert 0.0 < state.response_s < float("inf"), (service, op)


# -- validation ------------------------------------------------------------


@pytest.mark.parametrize(
    "builder",
    [
        lambda: OpSpec("blob", "rename"),
        lambda: OpSpec("table", "insert", weight=0.0),
        lambda: OpSpec("table", "insert", retry="exponential"),
        lambda: PhaseSpec("main", ()),
        lambda: PhaseSpec("", (OpSpec("queue", "add"),)),
        lambda: PhaseSpec("main", (OpSpec("queue", "add"),), ops_per_client=0),
        lambda: ArrivalSpec(kind="batch"),
        lambda: ArrivalSpec(kind="poisson", rate_hz=0.0),
        lambda: ArrivalSpec(kind="mmpp", rate_hz=1.0, burst_fraction=0.0),
        lambda: ArrivalSpec(kind="mmpp", rate_hz=1.0, burst_fraction=0.2,
                            burst_multiplier=0.5),
        lambda: ArrivalSpec(kind="poisson", rate_hz=1.0,
                            diurnal_amplitude=1.0),
        lambda: SkewSpec(partitions=0),
        lambda: SkewSpec(theta=-0.1),
        lambda: LinkSpec(loss_rate=1.0),
        lambda: LinkSpec(bandwidth_mbps=0.0),
        lambda: LinkSpec(extra_latency_ms=-1.0),
    ],
)
def test_fragment_validation_errors(builder):
    with pytest.raises(ScenarioValidationError):
        builder()


def test_scenario_validation_errors():
    ops = (OpSpec("table", "insert"),)
    with pytest.raises(ScenarioValidationError):
        ScenarioSpec(name="", phases=(PhaseSpec("main", ops),))
    with pytest.raises(ScenarioValidationError):
        ScenarioSpec(name="x", phases=())
    with pytest.raises(ScenarioValidationError):
        ScenarioSpec(
            name="x",
            phases=(PhaseSpec("a", ops), PhaseSpec("a", ops)),
        )
    with pytest.raises(ScenarioValidationError):
        ScenarioSpec(name="x", phases=(PhaseSpec("main", ops),), n_clients=0)
    with pytest.raises(ScenarioValidationError):
        ScenarioSpec(name="x", phases=(PhaseSpec("main", ops),),
                     levels=(4, 0))
    # Open arrivals need a horizon and a single phase.
    with pytest.raises(ScenarioValidationError):
        ScenarioSpec(
            name="x", phases=(PhaseSpec("main", ops),),
            arrival=ArrivalSpec(kind="poisson", rate_hz=1.0),
        )
    with pytest.raises(ScenarioValidationError):
        ScenarioSpec(
            name="x",
            phases=(PhaseSpec("a", ops), PhaseSpec("b", ops)),
            arrival=ArrivalSpec(kind="poisson", rate_hz=1.0),
            duration_s=60.0,
        )


# -- derived quantities ----------------------------------------------------


def test_entity_sizes_and_services():
    spec = _mixed_spec()
    # insert 4 kB, query default 1 kB, add mean 1.25 kB.
    assert [op.mean_size_kb for op in spec.all_ops] == pytest.approx(
        [4.0, 1.0, 1.25]
    )
    assert spec.services == ("table", "queue")


def test_scaled_floors():
    closed = _mixed_spec()
    assert closed.scaled(0.01).phases[0].ops_per_client == 2
    assert closed.scaled(1.0) is closed
    open_spec = ScenarioSpec(
        name="open",
        phases=(PhaseSpec("main", (OpSpec("table", "query"),)),),
        arrival=ArrivalSpec(kind="poisson", rate_hz=1.0),
        duration_s=3600.0,
        window_s=60.0,
    )
    assert open_spec.scaled(0.001).duration_s == pytest.approx(240.0)
    with pytest.raises(ScenarioValidationError):
        open_spec.scaled(0.0)


# -- distribution round trips ----------------------------------------------


@pytest.mark.parametrize(
    "dist",
    [
        Distribution.constant(4.0),
        Distribution.uniform(0.5, 2.0),
        Distribution.exponential(0.1),
        Distribution.normal(5.0, 1.0, minimum=0.0),
        Distribution.lognormal_from_mean_std(16.0, 24.0),
        Distribution.pareto(1.0, 2.5),
        Distribution.empirical([0.35, 0.75, 1.25], [0.5, 0.3, 0.2]),
    ],
)
def test_distribution_dict_round_trip(dist):
    doc = dist_to_dict(dist)
    again = dist_to_dict(dist_from_dict(doc))
    assert again == doc
    assert dist_from_dict(doc).mean == pytest.approx(dist.mean)


def test_distribution_dict_errors():
    with pytest.raises(ScenarioValidationError):
        dist_from_dict({"kind": "cauchy"})
    with pytest.raises(ScenarioValidationError):
        dist_from_dict({"kind": "uniform", "low": 1.0})
    with pytest.raises(ScenarioValidationError):
        dist_from_dict("constant")


# -- scenario dict / file round trips --------------------------------------


def test_scenario_dict_round_trip_multi_phase():
    spec = _mixed_spec(
        phases=(
            PhaseSpec("warm", (OpSpec("table", "insert"),), ops_per_client=5),
            PhaseSpec(
                "main",
                (OpSpec("table", "query"), OpSpec("table", "update")),
                ops_per_client=20,
            ),
        ),
        link=LinkSpec(profile="dsl", extra_latency_ms=20.0, loss_rate=0.01),
        levels=(2, 4, 8),
        tags=("test",),
    )
    doc = scenario_to_dict(spec)
    assert scenario_to_dict(scenario_from_dict(doc)) == doc


@pytest.mark.parametrize("path", pack_files(), ids=lambda p: p.name)
def test_pack_files_parse_and_round_trip(path):
    spec, fmt = load_scenario_file(path)
    assert fmt == path.suffix.lstrip(".")
    doc = scenario_to_dict(spec)
    assert scenario_to_dict(scenario_from_dict(doc)) == doc
    # The shipped packs are the trace-shaped 10^4-client workloads.
    assert spec.n_clients >= 10_000
    assert spec.arrival.is_open
    assert not spec.abort_on_error


@pytest.mark.parametrize("path", pack_files(), ids=lambda p: p.name)
def test_minimal_toml_parser_matches_tomllib(path):
    tomllib = pytest.importorskip("tomllib")
    text = path.read_text()
    assert parse_toml_minimal(text) == tomllib.loads(text)
    assert parse_toml(text) == tomllib.loads(text)


def test_json_and_toml_specs_are_equivalent(tmp_path):
    toml_spec, _ = load_scenario_file(PACK_DIR / "block_storage.toml")
    json_path = tmp_path / "block_storage.json"
    json_path.write_text(json.dumps(scenario_to_dict(toml_spec)))
    json_spec, fmt = load_scenario_file(json_path)
    assert fmt == "json"
    assert scenario_to_dict(json_spec) == scenario_to_dict(toml_spec)


def test_load_scenario_file_reports_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": {"name": "x"}}))
    with pytest.raises(ScenarioValidationError):
        load_scenario_file(bad)
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps({
        "scenario": {"name": "x", "n_clients": 2},
        "ops": [{"service": "blob", "op": "rename"}],
    }))
    with pytest.raises(ScenarioValidationError, match="worse.json"):
        load_scenario_file(worse)


# -- registry --------------------------------------------------------------


def test_registry_contents():
    names = list_scenarios()
    for expected in (
        "fig1-blob-download", "fig1-blob-upload", "fig2-table",
        "fig3-queue-add", "fig3-queue-peek", "fig3-queue-receive",
        "block-storage", "streaming",
    ):
        assert expected in names


def test_registry_rejects_duplicates_and_unknown_names():
    with pytest.raises(ScenarioValidationError):
        get_scenario("no-such-scenario")
    with pytest.raises(ScenarioValidationError):
        register_scenario(get_scenario("fig2-table"))
    # Explicit replacement is allowed (idempotent re-registration).
    register_scenario(get_scenario("fig2-table"), replace=True)
