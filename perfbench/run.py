"""The repository's benchmark: end-to-end and per-layer metrics of one
workload, with every output checked against its digest.

    python3 perfbench/run.py --workload fig2-table --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --list

Run from the repository root.  Each sample is a fresh process
(``worker.py``) with the BLAS/OpenMP pools pinned to one thread; one
sample runs at a time.  ``--trace 0`` repeats the workload for about
``--seconds`` seconds and reports the medians of ``run_s``, ``peak_rss_mb``
and (over at least :data:`SETUP_SAMPLES` processes) ``setup_s``.
``--trace 1`` runs the workload once untraced and once with the layer
wrappers of ``layers.py`` and reports the per-layer metrics.  The last
line of standard output is the result object; the line before it records
the machine and the samples.

A sample fails when its call raises or its digests differ from the
expected ones: at the reference seed the committed references (the golden
digests for the figures, ``references.json`` for the rest), otherwise the
digests every other run of the same code and seed recorded in
``.perfbench/digests.json``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "experiments" / "golden_digests.json"
REFERENCES = HERE / "references.json"
LEDGER = ROOT / ".perfbench" / "digests.json"

sys.path.insert(0, str(HERE))
from workloads import FIG_SCALE, WORKLOADS  # noqa: E402

REFERENCE_SEED = 3
#: Figure parts pinned by the golden-digest file.
GOLDEN_PARTS = {"fig2-table": ("fig2",), "net-fig1-fig5": ("fig1", "fig5")}
#: ``setup_s`` is the median over at least this many processes per run.
SETUP_SAMPLES = 8
#: A run ends within 180 s even if a sample hangs.
RUN_LIMIT_S = 170.0

PINNED_THREADS = {
    var: "1" for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    )
}


#: What the result's info line records of each sample.
SAMPLE_KEYS = (
    "setup_s", "setup_raw_s", "setup_slowdown", "run_s", "run_raw_s",
    "run_slowdown", "run_ticks", "peak_rss_mb", "wall_s", "error",
)


class SetupError(RuntimeError):
    """The program could not be imported or set up: no result."""


def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(SRC)
    # A fixed hash seed gives every sample the same dict/set layouts.
    env["PYTHONHASHSEED"] = "0"
    return env


def sample(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    """Run one worker process to completion and parse its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise SetupError(f"{workload}: sample exceeded the run limit") from exc
    if proc.returncode != 0:
        raise SetupError(proc.stderr.strip() or f"worker exit {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["wall_s"] = time.perf_counter() - started
    return out


def src_digest() -> str:
    """Identifies the code under test (program and workload definitions)."""
    h = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(SRC.rglob("*.toml"))
    for path in files + [HERE / "workloads.py"]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def reference(workload: str, seed: int) -> Optional[Dict[str, str]]:
    """The committed digests for ``workload`` at ``seed``, if any: the
    golden digests of its figure parts and ``references.json`` for the
    rest."""
    if seed != REFERENCE_SEED:
        return None
    expected = dict(
        json.loads(REFERENCES.read_text())["digests"].get(workload, {})
    )
    if workload in GOLDEN_PARTS:
        golden = json.loads(GOLDEN.read_text())
        if golden["seed"] != seed or golden["scale"] != FIG_SCALE:
            raise SetupError(f"{GOLDEN} is not at seed {seed}, scale "
                             f"{FIG_SCALE}")
        expected.update(
            {p: golden["digests"][p] for p in GOLDEN_PARTS[workload]}
        )
    return expected


def count_failures(
    samples: List[dict], expected: Optional[Dict[str, str]]
) -> int:
    """Samples that raised or whose digests differ from ``expected`` (or,
    with no expectation, from the first sample that completed)."""
    failed = 0
    for s in samples:
        if "error" in s:
            failed += 1
            continue
        if expected is None:
            expected = s["digests"]
        if s["digests"] != expected:
            failed += 1
    return failed


def ledger_expectation(
    workload: str, seed: int, samples: List[dict]
) -> Optional[Dict[str, str]]:
    """Digests an earlier run of this code and seed recorded; records this
    run's first completed sample when there is none."""
    key = f"{workload} seed={seed} src={src_digest()}"
    ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    if key in ledger:
        return ledger[key]
    done = [s for s in samples if "error" not in s]
    if done:
        ledger[key] = done[0]["digests"]
        LEDGER.parent.mkdir(exist_ok=True)
        tmp = LEDGER.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        os.replace(tmp, LEDGER)
    return None


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    if not (SRC / "repro").is_dir():
        raise SetupError(f"no program at {SRC / 'repro'}")
    # Users run compiled bytecode; a fresh checkout has none yet.
    compileall.compile_dir(str(SRC), quiet=1)
    # Warm the page cache for the imports; this sample is not reported.
    sample(workload, seed, deadline, "--setup-only")

    probes: List[dict] = []  # set-up-only samples
    if trace:
        runs = [sample(workload, seed, deadline),
                sample(workload, seed, deadline, "--trace")]
    else:
        # Host speed drifts over seconds, so set-up samples are spread
        # between the timed ones rather than taken in one burst.
        runs = []
        while True:
            runs.append(sample(workload, seed, deadline))
            probes.append(sample(workload, seed, deadline, "--setup-only"))
            per_sample = statistics.median(s["wall_s"] for s in runs)
            if time.perf_counter() - start + per_sample / 2 > seconds:
                break
        while len(runs) + len(probes) < SETUP_SAMPLES:
            probes.append(sample(workload, seed, deadline, "--setup-only"))

    expected = reference(workload, seed)
    if expected is None:
        expected = ledger_expectation(workload, seed, runs)
    failed = count_failures(runs, expected)

    if trace:
        timed, traced = runs
        metrics = dict(traced.get("layers", {}))
        if "run_s" in timed and "run_s" in traced:
            metrics["trace.overhead"] = traced["run_s"] / timed["run_s"]
    else:
        done = [s for s in runs if "error" not in s]
        metrics = {
            "run_s": statistics.median(s["run_s"] for s in done),
            "setup_s": statistics.median(
                s["setup_s"] for s in runs + probes
            ),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in done),
        } if done else {}
    return {
        "samples": runs, "probes": probes, "expected": expected,
        "failed": failed, "metrics": metrics,
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def print_names(spec: dict) -> None:
    for w in spec["workloads"]:
        print(f"workload  {w['name']:<18} {w['why']}")
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            bound = f"  bound {m['bound']}" if "bound" in m else ""
            print(f"{group:<10} {m['name']:<32} {m['unit']:<6} "
                  f"{m['better']} is better{bound}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print every workload and metric with its unit")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.list:
        print_names(spec)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    seconds = args.seconds or spec["run_seconds"]
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        run = measure(args.workload, args.seed, seconds, bool(args.trace))
    except (SetupError, OSError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    missing = [m["name"] for m in group if m["name"] not in run["metrics"]]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "nproc": os.cpu_count(),
        "versions": next((s["versions"] for s in run["samples"]
                          if "versions" in s), None),
        "missing_metrics": missing, "expected": run["expected"],
        "samples": [{k: s.get(k) for k in SAMPLE_KEYS}
                    for s in run["samples"]],
        "probes": [{k: p.get(k) for k in SAMPLE_KEYS if k in p}
                   for p in run["probes"]],
    }))
    print(json.dumps({
        "correct": run["failed"] == 0 and not missing,
        "attempted": len(run["samples"]),
        "failed": run["failed"],
        "metrics": {
            m["name"]: {"value": run["metrics"].get(m["name"], 0.0),
                        "unit": m["unit"]}
            for m in group
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
