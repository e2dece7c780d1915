#!/usr/bin/env python
"""Paired A/B timing gate: the repository's benchmark on two revisions.

    python tools/perf_ab.py BASE [CHANGE]

CHANGE defaults to ``HEAD``.  Each revision is ``git archive``d into one
of two sibling temporary directories whose paths have the same length
(the on-disk layout alone can move a workload by a few percent).  For
every workload in BASE's ``BENCHMARK.json`` the tool runs :data:`PAIRS`
pairs of samples, each sample being that tree's own unmodified

    python3 perfbench/run.py --workload W --seed 3 --seconds 1 --trace 0

BASE runs first in even pairs, CHANGE first in odd ones, so a drift in
host speed falls on both sides alike.  For every workload and
end-to-end metric the report gives both medians (with quartiles), their
ratio and the pairs CHANGE lost.

The exit status is 1 when a sample reports ``correct`` other than
``true`` or ``failed > 0``, or when for some workload and metric
CHANGE's median is worse than BASE's by more than BASE's
``BENCHMARK.json`` bound *and* CHANGE is worse in at least
:data:`AGREE` of the pairs.  The bounds come from BASE, so a change
cannot loosen its own gate.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Pairs per workload.  Ten pairs let a sign test tell a shift from
#: noise (8 of 10 one way happens by chance about 5% of the time) while
#: a gate over the four workloads takes about a quarter of an hour on a
#: 2-vCPU host.
PAIRS = 10
#: A regression must show in at least this many of the pairs.
AGREE = 8
#: ``--seconds`` per sample.  One second gives one timed run per sample
#: (every workload runs longer than that), so the ten pairs rather than
#: repeats inside a sample carry the statistics.
SECONDS = 1
SEED = 3

#: (BASE sample, CHANGE sample), each the result line of ``run.py``.
Pair = Tuple[dict, dict]


def load_spec(trees: Sequence[Path]) -> dict:
    """The benchmark spec the gate obeys: BASE's, never CHANGE's."""
    return json.loads((trees[0] / "BENCHMARK.json").read_text())


def _worse(base: float, change: float, better: str) -> bool:
    return change < base if better == "higher" else change > base


def _spread(values: List[float]) -> str:
    """Median and quartiles."""
    q1, q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                  else values * 3)
    return f"{q2:9.4f} [{q1:.4f}, {q3:.4f}]"


def judge(spec: dict, samples: Dict[str, List[Pair]]) -> Tuple[List[str], bool]:
    """Report lines and the verdict (True = pass) over the parsed samples
    of every workload."""
    lines: List[str] = []
    ok = True
    for workload, pairs in samples.items():
        for side, index in (("BASE", 0), ("CHANGE", 1)):
            bad = [p[index] for p in pairs
                   if p[index].get("correct") is not True
                   or p[index].get("failed", 1) > 0]
            if bad:
                ok = False
                lines.append(f"{workload}: {len(bad)} {side} sample(s) not "
                             f"correct: {bad[0].get('error', bad[0])}")
        good = [p for p in pairs
                if all(s.get("correct") is True for s in p)]
        if not good:
            continue
        for metric in spec["end_to_end"]:
            name, better = metric["name"], metric["better"]
            base = [p[0]["metrics"][name]["value"] for p in good]
            change = [p[1]["metrics"][name]["value"] for p in good]
            b, c = statistics.median(base), statistics.median(change)
            ratio = c / b if b else float("inf")
            lost = sum(_worse(x, y, better) for x, y in zip(base, change))
            bound = metric["bound"] if better == "lower" else -metric["bound"]
            flagged = _worse(b * (1 + bound), c, better) and lost >= AGREE
            ok = ok and not flagged
            lines.append(
                f"{workload:<15} {name:<12} base {_spread(base)}  change "
                f"{_spread(change)}  ratio {ratio:6.3f}  worse in {lost}/"
                f"{len(good)}  bound {metric['bound']:.2f}"
                f"{'  REGRESSED' if flagged else ''}"
            )
    return lines, ok


def checkout(tmp: Path, revisions: Sequence[str]) -> List[Path]:
    """``git archive`` each revision into ``tmp/a``, ``tmp/b``, …"""
    trees = []
    for label, rev in zip("ab", revisions):
        tree = tmp / label
        tree.mkdir()
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
            check=True, capture_output=True,
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive,
                       check=True)
        trees.append(tree)
    return trees


def sample(tree: Path, command: List[str], workload: str) -> dict:
    """One ``run.py`` result line, or a failed sample saying why."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"correct": False, "failed": 1,
                "error": proc.stderr.strip()[-500:] or
                f"exit {proc.returncode}"}


def run_pairs(spec: dict, trees: Sequence[Path]) -> Dict[str, List[Pair]]:
    samples: Dict[str, List[Pair]] = {w["name"]: [] for w in spec["workloads"]}
    for i in range(PAIRS):
        for workload, pairs in samples.items():
            order = (0, 1) if i % 2 == 0 else (1, 0)
            got = {side: sample(trees[side], spec["command"], workload)
                   for side in order}
            pairs.append((got[0], got[1]))
            print(f"pair {i + 1}/{PAIRS} {workload}", file=sys.stderr,
                  flush=True)
    return samples


def main(argv: Sequence[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    revisions = [argv[0], argv[1] if len(argv) > 1 else "HEAD"]
    with tempfile.TemporaryDirectory(prefix="perf-ab-") as tmp:
        trees = checkout(Path(tmp), revisions)
        spec = load_spec(trees)
        samples = run_pairs(spec, trees)
    lines, ok = judge(spec, samples)
    print(f"BASE {revisions[0]}  CHANGE {revisions[1]}  ({PAIRS} pairs)")
    print("\n".join(lines))
    print("perf A/B gate passed" if ok else "perf A/B gate FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
