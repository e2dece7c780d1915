"""Tests of the benchmark itself, at tiny workload sizes.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import inspect
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

#: Shrinks each workload to a fraction of a second or so.
TINY = {"campaign-month": 0.02, "fluid-packs": 0.02, "net-fig1-fig5": 0.2}


def tiny_call(name, seed=3):
    return WORKLOADS[name](seed, TINY[name])


def digests(docs):
    return {k: digest(v) for k, v in docs.items()}


def repro_attributes():
    """Every attribute of every loaded ``repro`` module and of every class
    those modules define, by identity."""
    snap = {}
    for mod in layers._repro_modules():
        for attr, value in vars(mod).items():
            snap[(mod.__name__, attr)] = value
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for name, member in vars(value).items():
                    snap[(mod.__name__, attr, name)] = member
    return snap


def test_list_prints_every_name_with_its_unit():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--list"],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    for w in spec["workloads"]:
        assert any(line.split()[1] == w["name"] for line in out)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert any(line.split()[1:3] == [m["name"], m["unit"]]
                   for line in out), m["name"]


def test_benchmark_names_match_what_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    per_layer = set(layers.LayerTracer().metrics()) | {"trace.overhead"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_call_is_observation_only_and_leaves_no_trace(name):
    # The untraced call imports every module the workload needs, and
    # installing the tracer every module it wraps, before the snapshot.
    plain = digests(tiny_call(name)())
    tracer = layers.LayerTracer()
    tracer.install()
    tracer.uninstall()
    before = repro_attributes()

    docs, _run_s, _tracer = layers.traced_call(tiny_call(name))

    assert digests(docs) == plain
    after = repro_attributes()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


@pytest.mark.parametrize("name", sorted(TINY))
def test_layer_self_times_sum_to_traced_run_s(name):
    _docs, run_s, tracer = layers.traced_call(tiny_call(name))
    metrics = tracer.metrics()
    total = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert run_s > 0
    assert math.isclose(total, run_s, rel_tol=1e-9, abs_tol=1e-9)
    # Each workload enters the layers it is meant to stress.
    lead = {"campaign-month": "resilience.hedge_delay_calls",
            "fluid-packs": "workloads.fluid_solves",
            "net-fig1-fig5": "network.transfers"}[name]
    assert metrics[lead] > 0


def test_generator_spans_propagate_values_and_thrown_errors():
    tracer = layers.LayerTracer()

    def inner():
        try:
            got = yield "a"
        except KeyError:
            got = "caught"
        yield got
        raise ValueError("done")

    errors = []
    wrapped = tracer._wrap(inner, "storage",
                           after=lambda _t, _r, e: errors.append(e))
    tracer.start()
    gen = wrapped()
    assert next(gen) == "a"
    assert gen.throw(KeyError("k")) == "caught"
    with pytest.raises(ValueError):
        next(gen)
    tracer.stop()
    assert isinstance(errors[0], ValueError)
    assert tracer.self_s["storage"] > 0


def test_corrupted_reference_fails_the_run(tmp_path, monkeypatch):
    sample = {"digests": digests(tiny_call("campaign-month")())}
    good = dict(sample["digests"])
    bad = {k: "0" * 64 for k in good}
    assert run.count_failures([sample, sample], good) == 0
    assert run.count_failures([sample, sample], bad) == 2
    assert run.count_failures([sample, {"error": "boom"}], None) == 1

    # The committed references cover every part of every workload at the
    # reference seed; other seeds check against the digest ledger.
    for name in WORKLOADS:
        ref = run.reference(name, run.REFERENCE_SEED)
        assert ref and all(len(v) == 64 for v in ref.values())
    assert set(run.reference("net-fig1-fig5", run.REFERENCE_SEED)) == {
        "fig1", "fig5", "tcp-deployments"}
    assert run.reference("campaign-month", run.REFERENCE_SEED + 1) is None

    monkeypatch.setattr(run, "LEDGER", tmp_path / "digests.json")
    assert run.ledger_expectation("campaign-month", 4, [sample]) is None
    assert run.ledger_expectation("campaign-month", 4, [sample]) == good
    ledger = json.loads(run.LEDGER.read_text())
    run.LEDGER.write_text(json.dumps({k: bad for k in ledger}))
    expected = run.ledger_expectation("campaign-month", 4, [sample])
    assert run.count_failures([sample], expected) == 1


def test_speed_probe_ticks_on_cpu_time_and_tops_up_short_phases():
    probe = worker.SpeedProbe()
    probe.start()
    started = time.process_time()
    while time.process_time() - started < 0.2:
        pass
    probe.stop()
    cpu, slowdown, ticks = probe.phase()
    assert ticks >= 10
    assert 0 < cpu < 0.2 * 0.5
    assert slowdown > 0
    # A phase with no timer ticks is topped up with explicit ones, whose
    # CPU time is not charged to the phase.
    cpu, slowdown, ticks = probe.phase()
    assert (cpu, ticks) == (0.0, worker.MIN_TICKS)
    assert slowdown > 0
