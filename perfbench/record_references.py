"""Record the reference digests of the workload parts the golden-digest
file does not pin (only after an intentional output change).

    python3 perfbench/record_references.py

Each workload runs once at the reference seed in a fresh worker process;
the digests go to ``perfbench/references.json``.
"""

from __future__ import annotations

import json
import sys
import time

from run import (
    GOLDEN_PARTS, REFERENCE_SEED, REFERENCES, RUN_LIMIT_S, WORKLOADS, sample,
)


def main() -> int:
    digests = {}
    for name in sorted(WORKLOADS):
        out = sample(name, REFERENCE_SEED, time.perf_counter() + RUN_LIMIT_S)
        if "error" in out:
            print(f"{name}: {out['error']}", file=sys.stderr)
            return 1
        golden = GOLDEN_PARTS.get(name, ())
        parts = {k: v for k, v in out["digests"].items() if k not in golden}
        if parts:
            digests[name] = parts
    REFERENCES.write_text(json.dumps(
        {"seed": REFERENCE_SEED, "digests": digests}, indent=2,
        sort_keys=True,
    ) + "\n")
    print(f"wrote {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
