"""CLI tests."""

import importlib.util
import inspect
import json
from pathlib import Path

import pytest

from repro.artifacts import CatalogStore, payload_digest
from repro.cli import build_parser, main
from repro.experiments.golden import GOLDEN_SEED, digest
from repro.experiments.registry import (
    Runnable,
    get_experiment,
    run_experiment,
    runnables,
)
from repro.resilience.hedging import run_hedge_drill


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for eid in ("fig1", "fig2", "table1", "table2", "fig7"):
        assert eid in out


def test_calibration_command(capsys):
    assert main(["calibration"]) == 0
    out = capsys.readouterr().out
    assert "[network]" in out and "replication_factor" in out


def test_run_command_executes_experiment(capsys):
    code = main(["run", "fig1", "--scale", "0.05", "--seed", "2"])
    out = capsys.readouterr().out
    assert "fig1" in out and "Shape checks" in out
    assert code == 0


def test_run_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["run", "fig99"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_command_json_export(tmp_path, capsys):
    out = tmp_path / "results.json"
    code = main([
        "run", "fig1", "--scale", "0.05", "--seed", "2",
        "--json", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert "fig1" in data
    assert data["fig1"]["passed"] is True
    assert any(c["name"].startswith("single client") for c in
               data["fig1"]["checks"])
    assert "download" in data["fig1"]["data"]


# -- the run registry behind `repro run` -------------------------------------

_ROOT = Path(__file__).resolve().parents[2]
_GOLDEN = json.loads(
    (Path(__file__).parent / "golden_digests.json").read_text()
)


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, _ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_verb_and_registry_run_defaults_to_the_golden_seed():
    parser = build_parser()
    for argv in (
        ["run", "fig1"],
        ["run", "drill:hedge"],
        ["campaign", "day"],
        ["scenario", "run", "streaming"],
    ):
        assert parser.parse_args(argv).seed == GOLDEN_SEED == 3
    for fn in (run_experiment, run_hedge_drill, Runnable.run):
        assert inspect.signature(fn).parameters["seed"].default == 3


def test_list_names_every_runnable_and_run_accepts_them(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    names = runnables()
    assert {"fig1", "scenario:streaming", "scenario:fig2-table",
            "campaign:month", "campaign:burst", "drill:hedge"} <= set(names)
    parser = build_parser()
    for name in names:
        assert name in out
        assert parser.parse_args(["run", name]).name == name


def test_run_drill_json_matches_the_committed_golden(tmp_path, capsys):
    out = tmp_path / "drill.json"
    assert main(["run", "drill:hedge", "--json", str(out)]) == 0
    assert "p99 speedup" in capsys.readouterr().out
    doc = json.loads(out.read_text())["drill:hedge"]
    assert set(doc) == {"title", "passed", "checks", "data"}
    assert doc["passed"] is True and doc["checks"] == []
    assert digest(doc["data"]) == _GOLDEN["digests"]["drill:hedge"]


def test_run_campaign_catalog_passes_the_schema_check(tmp_path, capsys):
    root = tmp_path / "cat"
    code = main([
        "run", "campaign:day", "--scale", "0.2", "--jobs", "1",
        "--catalog", str(root),
    ])
    out = capsys.readouterr().out
    assert code in (0, 1)
    assert "some cell meets every SLO target" in out
    assert _load_tool("check_catalog_schema").check_catalog(root) == 0
    (row,) = CatalogStore(root).list_runs(kind="campaign")
    assert row["name"] == "day"
    record = CatalogStore(root).get_record(row["run_id"])
    assert record.spec["fast"] is False
    assert record.digests["report"] == payload_digest(record.metrics)


def test_run_rejects_a_non_positive_scale_with_exit_2(capsys):
    assert main(["run", "campaign:day", "--scale", "0"]) == 2
    err = capsys.readouterr().err
    assert "campaign:day: scale must be > 0, got 0.0" in err
    with pytest.raises(ValueError, match="scale must be > 0"):
        get_experiment("drill:hedge").run(scale=-1.0)


@pytest.mark.parametrize("flag,value,message", [
    ("--levels", "2,x", "--levels: 'x' is not an integer"),
    ("--levels", "0", "--levels: 0 is below 1"),
    ("--seeds", "3,x", "--seeds: 'x' is not an integer"),
    ("--seeds", "-1", "--seeds: -1 is below 0"),
])
def test_scenario_grid_rejects_bad_levels_and_seeds_with_exit_2(
    capsys, flag, value, message
):
    assert main(["scenario", "run", "fig3-queue-add", flag, value]) == 2
    err = capsys.readouterr().err
    assert err == f"repro: {message}\n"


@pytest.mark.parametrize("name,scale", [
    ("fig7", 0.05),
    ("scenario:fig1-blob-upload", 0.05),
    ("scenario:fig3-queue-peek", 0.05),
    ("campaign:storm", 0.1),
    ("campaign:burst", 0.1),
    ("campaign:crash", 0.1),
])
def test_runnables_outside_the_goldens_run(name, scale):
    result = get_experiment(name).run(scale=scale)
    assert result.experiment_id == name
    assert result.data and result.config
    assert result.title in result.render()
    assert (result.level is not None) == (result.family == "scenario")
