"""CLI tests."""

import importlib.util
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from repro.artifacts import CatalogStore, payload_digest
from repro.cli import EXIT_BROKEN_PIPE, build_parser, main
from repro.experiments.golden import GOLDEN_SEED, digest
from repro.experiments.registry import (
    CAMPAIGN_KNOBS,
    EXPERIMENTS,
    SCENARIO_KNOBS,
    Runnable,
    get_experiment,
    run_experiment,
    runnables,
)
from repro.observability.slo import availability_slo, latency_slo
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
    # Only constants the model reads are printed.
    assert "cross_rack_pair_fraction" not in out
    assert "total_executions" not in out


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
        ["run", "campaign:day"],
        ["run", "scenario:streaming"],
        ["run", "--file", "my_pack.toml"],
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
    assert main(["run", "scenario:fig3-queue-add", flag, value]) == 2
    err = capsys.readouterr().err
    assert err == f"repro: {message}\n"


#: A traced run and an SLO-judged run of the fig1 download scenario.
_TRACED = pytest.mark.parametrize("verb", [
    pytest.param(["--trace", "waterfall"], id="trace"),
    pytest.param(["--availability", "0.99"], id="slo"),
])


@_TRACED
@pytest.mark.parametrize("args,message", [
    (["--clients", "0"], "n_clients must be >= 1"),
    (["--clients", "300", "--mode", "exact"], "300 clients need more hosts"),
])
def test_traced_workload_rejects_bad_arguments_with_exit_2(
    capsys, verb, args, message
):
    assert main(["run", "scenario:fig1-blob-download", *verb, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro: {message}")


@pytest.fixture
def no_run(monkeypatch):
    """Fail the test if the command line starts a run."""
    import repro.cli as cli

    def refuse(*_args, **_kwargs):
        raise AssertionError("the workload ran")

    monkeypatch.setattr(cli, "_execute", refuse)


@pytest.mark.parametrize("args,message", [
    (["--availability", "1.5"],
     "--availability: target must be in (0, 1), got 1.5"),
    (["--latency-target", "2"],
     "--latency-ms/--latency-target: target must be in (0, 1), got 2.0"),
    (["--latency-ms", "-5"],
     "--latency-ms/--latency-target: latency SLOs need a positive"
     " threshold_s"),
])
def test_slo_rejects_bad_objectives_with_exit_2_before_the_run(
    capsys, no_run, args, message
):
    assert main(["run", "scenario:fig1-blob-download", *args]) == 2
    assert capsys.readouterr().err == f"repro: {message}\n"


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_trace_rejects_a_limit_below_1_with_exit_2(capsys, limit):
    assert main([
        "run", "scenario:fig1-blob-download", "--trace", "waterfall",
        "--limit", limit,
    ]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"repro: --limit must be >= 1, got {limit}\n"
    assert captured.out == ""


@pytest.mark.parametrize("fmt", ["chrome", "jsonl"])
def test_trace_export_without_out_exits_2_before_the_run(
    capsys, no_run, fmt
):
    assert main(["run", "scenario:fig1-blob-download", "--trace", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"repro: --trace {fmt} needs --out PATH\n"
    assert captured.out == ""


def test_trace_writes_a_chrome_export_that_passes_the_schema_check(
    tmp_path, capsys
):
    out = tmp_path / "trace.json"
    assert main([
        "run", "scenario:fig1-blob-download", "--trace", "chrome",
        "--out", str(out),
    ]) == 0
    assert "collected 28 spans over 4 traces" in capsys.readouterr().out
    assert _load_tool("check_trace_schema").main([str(out)]) == 0


def test_traced_scenario_run_keeps_the_untraced_data_digest():
    runnable = get_experiment("scenario:fig1-blob-download")
    plain, traced = runnable.run(), runnable.run(trace=True)
    assert digest(traced.data) == digest(plain.data)
    assert plain.spans is None
    assert len(traced.spans.spans()) == 28
    assert len(traced.spans.traces()) == 4


@pytest.mark.parametrize("name,scale", [
    ("scenario:fig2-table", 0.05),  # exact engine
    ("scenario:streaming", 0.05),  # batched: no server-side requests
])
def test_slos_judge_client_calls_in_both_engines(name, scale):
    runnable = get_experiment(name)
    plain = runnable.run(scale=scale)
    judged = runnable.run(
        scale=scale, slos=[availability_slo(0.5), latency_slo(3600.0, 0.5)]
    )
    assert digest(judged.data) == digest(plain.data)
    assert [c.name for c in judged.checks.results] == [
        "SLO availability", "SLO latency<3.6e+06ms",
    ]
    assert judged.passed
    assert "client calls" in judged.body


@pytest.mark.parametrize("verb,existing,code", [
    pytest.param(["qc"], False, 2, id="verb0"),
    pytest.param(["dash"], False, 2, id="verb1"),
    pytest.param(["catalog", "list"], False, 2, id="verb2"),
    # An existing empty directory is an empty catalog: nothing to judge
    # or render (exit 2), nothing to list (exit 0), and nothing written.
    pytest.param(["qc"], True, 2, id="qc-empty-dir"),
    pytest.param(["dash"], True, 2, id="dash-empty-dir"),
    pytest.param(["catalog", "list"], True, 0, id="catalog-list-empty-dir"),
])
def test_read_only_catalog_verbs_create_no_directory(
    tmp_path, capsys, verb, existing, code
):
    root = tmp_path / "catalog"
    if existing:
        root.mkdir()
    assert main([*verb, "--catalog", str(root)]) == code
    if not existing:
        assert capsys.readouterr().err == f"repro: no catalog at {root}\n"
    assert list(tmp_path.rglob("*")) == ([root] if existing else [])


@pytest.mark.parametrize("args,message", [
    (["--fast", "--guard-band", "-5"], "guard band must be"),
    (["--fast", "--guard-band", "nan"], "guard band must be"),
    (["--guard-band", "100"], "a guard band applies only to the fast-forward"),
])
def test_campaign_rejects_a_bad_guard_band_with_exit_2(
    capsys, args, message
):
    assert main(["run", "campaign:day", "--jobs", "1", *args]) == 2
    assert capsys.readouterr().err.startswith(f"repro: {message}")


@pytest.mark.parametrize("modes", [",", ""])
def test_campaign_rejects_an_empty_mode_list_with_exit_2(capsys, modes):
    assert main(["run", "campaign:day", "--modes", modes]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "repro: campaign:day: no failover modes given; choose from"
    )
    assert captured.out == ""
    with pytest.raises(ValueError, match="no failover modes given"):
        get_experiment("campaign:day").run(modes=[])


_SCENARIO = "n_clients, mode, levels, seeds, trace, slos"
_GRID = "a levels/seeds grid accepts mode, levels, seeds"


@pytest.mark.parametrize("name,args,message", [
    ("scenario:fig3-queue-add", ["--levels", "2", "--clients", "50"],
     f"{_GRID}; got n_clients"),
    ("scenario:fig3-queue-add", ["--seeds", "3", "--trace", "waterfall"],
     f"{_GRID}; got trace"),
    ("scenario:fig3-queue-add", ["--levels", "2", "--latency-ms", "50"],
     f"{_GRID}; got slos"),
    ("scenario:streaming", ["--trace", "waterfall"],
     "a batched run (10,000 clients) accepts n_clients, mode, slos; "
     "got trace"),
    ("scenario:fig2-table", ["--clients", "300", "--trace", "jsonl",
                             "--out", "spans.jsonl"],
     "a batched run (300 clients) accepts n_clients, mode, slos; "
     "got trace"),
    ("campaign:day", ["--guard-band", "100"],
     "without fast accepts modes, fast; got guard_band_s"),
    ("campaign:day", ["--clients", "8"],
     "campaign:day accepts modes, fast, guard_band_s; got n_clients"),
    ("scenario:fig2-table", ["--fast"], f"accepts {_SCENARIO}; got fast"),
    ("scenario:fig2-table", ["--out", "trace.json"],
     "--out applies only to --trace chrome|jsonl"),
    ("scenario:fig2-table", ["--trace", "chrome", "--out", "t.json",
                             "--limit", "2"],
     "--limit applies only to --trace waterfall"),
    *[
        (name, args, f"{name} accepts no knobs; got {knob}")
        for name in (*EXPERIMENTS, "drill:hedge")
        for args, knob in ((["--clients", "3"], "n_clients"),
                           (["--modes", "none"], "modes"),
                           (["--trace", "waterfall"], "trace"),
                           (["--availability", "0.9"], "slos"))
    ],
])
def test_a_knob_the_run_would_not_use_exits_2_before_the_run(
    capsys, monkeypatch, name, args, message
):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the workload ran")

    for module, attr in (("repro.scenarios", "run_scenario"),
                         ("repro.scenarios", "sweep_scenario"),
                         ("repro.resilience.campaign", "run_campaign")):
        monkeypatch.setattr(f"{module}.{attr}", refuse)
    assert main(["run", name, "--jobs", "1", *args]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("repro: ")
    assert message in captured.err
    assert captured.out == ""


def test_runnable_rejects_an_undeclared_knob_with_value_error():
    with pytest.raises(ValueError, match="fig1 accepts no knobs; got n_clients"):
        get_experiment("fig1").run(n_clients=3)
    with pytest.raises(ValueError, match="got fast, level"):
        get_experiment("scenario:fig2-table").run(level=3, fast=True)
    assert get_experiment("scenario:fig2-table").knobs == SCENARIO_KNOBS
    assert get_experiment("campaign:day").knobs == CAMPAIGN_KNOBS
    assert get_experiment("drill:hedge").knobs == ()


def _documented_commands():
    """Every ``python -m repro …`` command in the docs and in CI, with
    ``\\`` continuations joined, up to the end of its code span, a
    comment or a shell operator; a shell variable stands for a number."""
    for doc in ("README.md", "EXPERIMENTS.md", "DESIGN.md",
                ".github/workflows/ci.yml"):
        text = (_ROOT / doc).read_text().replace("\\\n", " ")
        for match in re.finditer(r"python -m repro\b([^`#|&;>\n]*)", text):
            yield doc, re.sub(r"\$\{?\w+\}?", "1", match.group(1))


def test_every_documented_command_parses():
    parser = build_parser()
    commands = list(_documented_commands())
    assert len(commands) > 50
    unparsed = []
    for doc, command in commands:
        try:
            parser.parse_args(shlex.split(command))
        except SystemExit:
            unparsed.append(f"{doc}: python -m repro{command}")
    assert unparsed == []


def test_closed_stdout_exits_quietly_without_a_traceback():
    """``repro list | head -0``: the reader is gone before the first
    write, so every write fails with EPIPE."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = Path(__file__).resolve().parents[2] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            stdout=write_end, stderr=subprocess.PIPE, env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_BROKEN_PIPE
    assert proc.stderr == b""


def test_bench_verb_is_gone():
    """``bench``, and the verbs ``run`` absorbed: ``campaign``,
    ``scenario``, ``trace`` and ``slo``."""
    assert set(build_parser()._subparsers._group_actions[0].choices) == {
        "list", "run", "describe", "qc", "dash", "catalog", "calibration",
    }
    for verb in ("bench", "campaign", "scenario", "trace", "slo"):
        with pytest.raises(SystemExit):
            build_parser().parse_args([verb])


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
