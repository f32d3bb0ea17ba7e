"""Per-layer summary of every workload.

    python3 bench/summary.py [--seed 1] [--seconds 30]

Runs ``bench/run.py`` once untraced and once traced for each workload, one
after the other, and prints every per-layer metric by name and unit, the
tracing overhead (traced batch_s minus untraced batch_s) and the share of
``linalg.kernel_s + maps.rowgen_s`` in the traced jobs' wall time.  The
numbers also go to ``.bench_runs/summary.json``; the spans of each traced run
stay in ``.bench_runs/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} of {result['attempted']} jobs failed\n"
                         + proc.stdout)
    return result["metrics"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()
    run.import_finalg()
    from workloads import WORKLOADS

    summary = {}
    for workload in WORKLOADS:
        plain = bench(workload, args.seed, args.seconds, 0)
        traced = bench(workload, args.seed, args.seconds, 1)
        overhead = traced["trace.batch_s"]["value"] - plain["batch_s"]["value"]
        summary[workload] = {"end_to_end": plain, "per_layer": traced,
                             "trace_overhead_s": overhead}
        print(f"== {workload} (seed {args.seed})")
        for name, metric in traced.items():
            print(f"{name} {metric['value']:.6g} {metric['unit']}")
        print(f"tracing overhead {overhead:.4f} s "
              f"({overhead / plain['batch_s']['value']:+.1%} of the untraced batch_s "
              f"{plain['batch_s']['value']:.4f} s)")
        print(f"linalg.kernel_s + maps.rowgen_s = "
              f"{traced['trace.solver_share']['value']:.1%} of the traced jobs' wall time")
    out = run.ROOT / ".bench_runs" / "summary.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
