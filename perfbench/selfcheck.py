"""Check that the benchmark's counts repeat exactly across two runs at one seed.

    python3 perfbench/selfcheck.py --seed 1 [--workload random-z] [--seconds 1]

Runs each workload twice traced and twice untraced, and compares every
per-layer count (calls, mults, ratios of counts, max_bits, bytes) and the
deterministic end-to-end metrics (certificate size and witness bits).
Times, shares of time and the tracing overhead are not compared.  Exits 1
on any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
COUNT_UNITS = {"count", "count/op", "bits", "bytes", "KiB", "ratio"}
NOT_COUNTS = {"trace.overhead_ratio"}  # a ratio of times


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{workload}: exit code {proc.returncode}, no result") from None
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} of {result['attempted']} outputs wrong")
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] in COUNT_UNITS and k not in NOT_COUNTS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args(argv)
    differences = 0
    for workload in WORKLOAD_NAMES if args.workload == "all" else (args.workload,):
        for trace in (1, 0):
            first = _run(workload, args.seed, args.seconds, trace)
            second = _run(workload, args.seed, args.seconds, trace)
            for name in sorted(first):
                if first[name] != second.get(name):
                    differences += 1
                    print(f"{workload}: {name} {first[name]} != {second.get(name)}")
            print(f"{workload} trace={trace}: {len(first)} counts compared")
    print(f"selfcheck: {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main())
