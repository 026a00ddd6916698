"""Every end-to-end metric of every workload, in one table.

    python3 perfbench/summary.py [--seed 0] [--seconds 60]

Runs each workload once, as `run.py --trace 0` would, and prints the median
of each end-to-end metric with its unit and sample count, plus the gate's
failed fraction (failed units / attempted units).  Exits 1 if any workload
fails the gate.
"""

from __future__ import annotations

import argparse
import sys

from run import run_workload
from workloads import SRC, WORKLOADS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60)
    args = ap.parse_args()
    if not (SRC / "hookforge" / "cli.py").is_file():
        print(f"error: no hookforge sources under {SRC}", file=sys.stderr)
        return 2

    print(f"{'workload':<14} {'metric':<12} {'value':>12}  unit  samples")
    all_correct = True
    for name in WORKLOADS:
        rec = run_workload(name, args.seed, args.seconds, trace=False)
        all_correct &= rec["correct"]
        counts = {
            "wall_s": len(rec["samples"]["reps"]),
            "setup_s": len(rec["samples"]["setup_s"]),
            "peak_rss_mb": len(rec["samples"]["reps"]),
        }
        for key, m in rec["metrics"].items():
            print(f"{name:<14} {key:<12} {m['value']:>12.4f}  {m['unit']:<4}  "
                  f"median of {counts[key]}")
        print(f"{name:<14} {'failed_frac':<12} {rec['failed_frac']:>12.4f}  1     "
              f"{rec['failed']}/{rec['attempted']} units")
        sys.stdout.flush()
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
