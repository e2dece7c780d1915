"""The profiler's benchmark-workload mode and its per-package shares."""

import importlib.util
import json
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_TOOL = ROOT / "tools" / "profile_simulator.py"
_spec = importlib.util.spec_from_file_location("profile_simulator", _TOOL)
profile_simulator = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(profile_simulator)


def test_the_workloads_are_the_benchmarks():
    names = {w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text()
    )["workloads"]}
    assert set(profile_simulator.benchmark_workloads()) == names
    assert profile_simulator.DEFAULT_WORKLOAD in names


def test_package_shares_fold_modules_into_packages():
    by_func = Counter({
        ("repro.storage.table", "TableService.insert"): 3,
        ("repro.storage.partition", "PartitionServer.execute"): 2,
        ("repro.simcore.engine", "Environment.run"): 4,
        ("repro", "main"): 1,
        ("-", "outside repro"): 5,
    })
    assert profile_simulator.package_shares(by_func) == Counter(
        {"storage": 5, "simcore": 4, "repro": 1, "-": 5}
    )


def test_a_sampled_profile_charges_ticks_to_repro_frames():
    from repro.simcore import Environment

    def spin():
        for _ in range(3):
            env = Environment()
            for k in range(20_000):
                env.timeout(float(k))
            env.run()

    ticks, by_func, by_line = profile_simulator.sampled_profile(spin)
    assert ticks == sum(by_func.values()) == sum(by_line.values())
    assert all(
        module == "-" or module.startswith("repro")
        for module, _name in by_func
    )
