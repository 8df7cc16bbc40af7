"""Self-check of the benchmark: two traced runs on one seed must report
identical work counters (every per-layer metric that is not a time).

    python3 bench/selfcheck.py [--seed N] [--workload NAME ...]

Exits 1 and names the counters that differ, or the run that failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("experiments", "verdict-scan", "branch-sets")


def counters(workload: str, seed: int) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=RUN.parent.parent, check=True, capture_output=True, text=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] != "ms"
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workload:
        first, second = counters(workload, args.seed), counters(workload, args.seed)
        differ = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        ok &= not differ
        print(f"{workload}: {len(first)} counters, "
              + ("identical" if not differ else f"differ: {', '.join(differ)}"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
