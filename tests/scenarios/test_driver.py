"""The unified scenario driver: exact mode, batched mode, packs, CLI."""

import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.resilience.campaign import CAMPAIGN_SCENARIOS
from repro.scenarios import (
    EXACT_MAX_SCENARIO_CLIENTS,
    ArrivalSpec,
    LinkSpec,
    OpSpec,
    PhaseSpec,
    ScenarioSpec,
    SkewSpec,
    get_scenario,
    run_scenario,
    scenario_to_dict,
    sweep_scenario,
)
from repro.simcore import Distribution

_TOOLS = Path(__file__).resolve().parents[2] / "tools"


def _load_schema_checker():
    spec = importlib.util.spec_from_file_location(
        "check_scenario_schema", _TOOLS / "check_scenario_schema.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mixed_closed(**overrides):
    base = dict(
        name="mixed-closed",
        phases=(
            PhaseSpec(
                "main",
                (
                    OpSpec("table", "insert", weight=2.0,
                           size_kb=Distribution.constant(4.0)),
                    OpSpec("table", "query", weight=1.0),
                    OpSpec("queue", "add", weight=1.0),
                ),
                ops_per_client=10,
            ),
        ),
        arrival=ArrivalSpec(
            kind="closed", think=Distribution.exponential(0.02)
        ),
        skew=SkewSpec(partitions=8, theta=0.9),
        n_clients=4,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _blob_spec(link=None, abort=True, ops_per_client=3):
    return ScenarioSpec(
        name="blob-link",
        phases=(
            PhaseSpec(
                "main",
                (OpSpec("blob", "download",
                        size_mb=Distribution.constant(0.1)),),
                ops_per_client=ops_per_client,
            ),
        ),
        link=link,
        abort_on_error=abort,
        n_clients=3,
    )


# -- exact mode ------------------------------------------------------------


def test_mixed_closed_exact_run():
    run = run_scenario(_mixed_closed(), n_clients=4, seed=1, mode="exact")
    assert run.mode == "exact"
    assert run.ops_completed == 4 * 10
    assert run.errors == 0 and run.failed_clients == 0
    assert set(run.per_op) <= {"table.insert", "table.query", "queue.add"}
    assert sum(row["ops"] for row in run.per_op.values()) == 40
    assert run.makespan_s > 0
    assert run.latency_p50_s <= run.latency_p99_s
    # The skew block carries the analytic Zipf quantities.
    assert run.skew is not None
    assert run.skew["partitions"] == 8
    assert 1.0 <= run.skew["effective_partitions"] <= 8.0


def test_exact_mode_is_deterministic():
    a = run_scenario(_mixed_closed(), n_clients=4, seed=9, mode="exact")
    b = run_scenario(_mixed_closed(), n_clients=4, seed=9, mode="exact")
    assert a.summary() == b.summary()
    c = run_scenario(_mixed_closed(), n_clients=4, seed=10, mode="exact")
    assert c.summary() != a.summary()


def test_exact_mode_caps_population():
    with pytest.raises(ValueError):
        run_scenario(
            _mixed_closed(),
            n_clients=EXACT_MAX_SCENARIO_CLIENTS + 1,
            mode="exact",
        )


def test_run_scenario_rejects_unknown_mode():
    with pytest.raises(ValueError):
        run_scenario(_mixed_closed(), mode="fluid-ish")


def test_auto_mode_dispatch():
    small = run_scenario(_mixed_closed(), n_clients=4, seed=0)
    assert small.mode == "exact"
    big = run_scenario(
        _mixed_closed(), n_clients=EXACT_MAX_SCENARIO_CLIENTS + 44, seed=0
    )
    assert big.mode == "batched"
    assert big.n_clients == EXACT_MAX_SCENARIO_CLIENTS + 44


def test_link_adds_latency_and_can_drop_requests():
    fast = run_scenario(_blob_spec(), seed=2, mode="exact")
    slow = run_scenario(
        _blob_spec(link=LinkSpec(profile="edge", extra_latency_ms=500.0)),
        seed=2,
        mode="exact",
    )
    # Exact mode keeps the tracer's service-side latency untouched; the
    # link delay shows up in the client-observed elapsed time (and so in
    # the makespan): 3 ops x 0.5 s extra per client here.
    assert slow.latency_mean_s == fast.latency_mean_s
    assert slow.makespan_s > fast.makespan_s + 3 * 0.45
    # A hopeless link (loss with no retransmit budget) drops requests;
    # with abort_on_error=False the run keeps going and counts them.
    lossy = run_scenario(
        _blob_spec(
            link=LinkSpec(profile="edge", loss_rate=0.6, max_retransmits=0),
            abort=False,
            ops_per_client=20,
        ),
        seed=2,
        mode="exact",
    )
    assert lossy.errors > 0
    assert lossy.ops_completed + lossy.errors == 3 * 20


def test_aborting_clients_count_one_error_each_open_or_closed():
    # An aborting client's one failure is counted once, through
    # failed_clients, whether its arrivals are closed or open.
    lossy = LinkSpec(profile="edge", loss_rate=0.6, max_retransmits=0)
    closed = run_scenario(
        _blob_spec(link=lossy, ops_per_client=20), seed=2, mode="exact"
    )
    open_spec = dataclasses.replace(
        _blob_spec(link=lossy),
        arrival=ArrivalSpec(kind="poisson", rate_hz=2.0),
        duration_s=20.0,
    )
    opened = run_scenario(open_spec, seed=2, mode="exact")
    for run in (closed, opened):
        assert run.failed_clients == 3
        assert run.errors == run.failed_clients


# -- batched mode ----------------------------------------------------------


def test_batched_mode_is_deterministic():
    spec = get_scenario("block-storage").scaled(0.01)
    a = run_scenario(spec, seed=3, mode="batched")
    b = run_scenario(spec, seed=3, mode="batched")
    assert a.summary() == b.summary()


def test_closed_batched_splits_population_by_weight():
    spec = _mixed_closed(
        phases=(
            PhaseSpec(
                "main",
                (
                    OpSpec("table", "insert", weight=0.7,
                           size_kb=Distribution.constant(4.0)),
                    OpSpec("table", "query", weight=0.3),
                ),
                ops_per_client=10,
            ),
        ),
        arrival=ArrivalSpec(
            kind="closed", think=Distribution.exponential(1.0)
        ),
        skew=None,
    )
    run = run_scenario(spec, n_clients=2000, seed=3, mode="batched")
    assert run.mode == "batched"
    issued = {
        key: row["ops"] + row["errors"] for key, row in run.per_op.items()
    }
    total = sum(issued.values())
    assert total == 2000 * 10
    # Largest-remainder population split: op shares track the weights.
    assert issued["table.insert"] / total == pytest.approx(0.7, abs=0.01)
    assert issued["table.query"] / total == pytest.approx(0.3, abs=0.01)


@pytest.mark.parametrize("name", ["block-storage", "streaming"])
def test_pack_summary_passes_schema_check(name):
    checker = _load_schema_checker()
    run = run_scenario(get_scenario(name).scaled(0.01), mode="batched")
    doc = json.loads(json.dumps(run.summary()))
    checker.check_summary(doc)  # exits non-zero on any violation
    assert doc["n_clients"] >= 10_000
    assert doc["mode"] == "batched"
    assert doc["windows"]["count"] >= 4


def test_open_batched_windows_track_expected_load():
    run = run_scenario(get_scenario("streaming").scaled(0.01), mode="batched")
    w = run.summary()["windows"]
    issued = w["ops"] + w["errors"]
    # Poisson totals stay within ~5 sigma of the rate integral.
    assert abs(issued - w["expected_ops"]) < 5.0 * w["expected_ops"] ** 0.5


# -- sweeps ----------------------------------------------------------------

def test_sweep_scenario_is_jobs_invariant():
    spec = _mixed_closed()
    serial = sweep_scenario(spec, levels=[2, 3], seed=5, jobs=1)
    fanned = sweep_scenario(spec, levels=[2, 3], seed=5, jobs=2)
    assert sorted(serial) == [2, 3]
    for level in serial:
        assert serial[level].summary() == fanned[level].summary()
        assert serial[level].n_clients == level


# -- integration with the fluid and campaign layers -------------------------


def test_closed_batched_folds_link_into_think():
    from repro.scenarios.driver import _closed_think

    spec = _blob_spec(
        link=LinkSpec(
            profile="edge", extra_latency_ms=100.0, bandwidth_mbps=2.0,
            loss_rate=0.2, retransmit_penalty_ms=150.0,
        )
    )
    think = _closed_think(spec, spec.all_ops[0])
    # extra 0.1s + 0.25 mean retransmits * 0.15s + 0.1MB / 2MBps = 0.1875s
    assert think is not None and think.kind == "constant"
    assert think.mean == pytest.approx(0.1875)
    # No link: the spec's own think time, untouched.
    assert _closed_think(_blob_spec(), spec.all_ops[0]) is None


def test_campaign_spec_adopts_scenario_mix():
    campaign = CAMPAIGN_SCENARIOS["day"](seed=3, scale=1.0)
    block = get_scenario("block-storage")
    derived = campaign.with_scenario_mix(block)
    assert derived.read_fraction == pytest.approx(block.read_fraction())
    assert derived.entity_kb == pytest.approx(block.mean_entity_kb())
    assert derived.duration_s == campaign.duration_s


# -- CLI -------------------------------------------------------------------


def test_cli_scenario_list_and_describe(capsys):
    assert cli_main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    assert "block-storage" in out and "fig2-table" in out
    assert cli_main(["scenario", "describe", "streaming"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == scenario_to_dict(get_scenario("streaming"))


def test_cli_scenario_run_writes_valid_summary(tmp_path, capsys):
    checker = _load_schema_checker()
    out = tmp_path / "summary.json"
    code = cli_main([
        "scenario", "run", "block-storage",
        "--scale", "0.01", "--json", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    checker.check_summary(doc)
    assert doc["scenario"] == "block-storage"


def test_cli_scenario_run_from_file_and_bad_name(tmp_path, capsys):
    spec_file = tmp_path / "tiny.json"
    spec_file.write_text(json.dumps(scenario_to_dict(_mixed_closed())))
    # The file's spec records seed 0, the seed this run used before
    # every verb defaulted to the golden seed.
    assert cli_main([
        "scenario", "run", "--file", str(spec_file), "--seed", "0",
    ]) == 0
    assert cli_main(["scenario", "run", "no-such-scenario"]) == 2
    capsys.readouterr()


def test_cli_closed_batched_runs_through_scenario_run(capsys):
    # Large closed-loop populations run through `scenario run`; the old
    # `run cohort` trial is gone.
    assert cli_main([
        "scenario", "run", "fig3-queue-add", "--clients", "10000",
        "--mode", "batched", "--seed", "3", "--scale", "0.05",
    ]) == 0
    assert "batched driver" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        cli_main(["run", "cohort"])
    capsys.readouterr()
