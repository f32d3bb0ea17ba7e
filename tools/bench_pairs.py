"""Compare this checkout's benchmark with a parent checkout's, in alternating pairs.

For each workload of ``BENCHMARK.json`` and each pair i, run ``bench/run.py
--seed K+i`` once in the parent checkout and once in this one, the parent
first on even pairs and this checkout first on odd ones, and read the JSON
result on the last line of each run:

    python3 tools/bench_pairs.py --parent ../finalg-parent              # 10 pairs of 30 s runs
    python3 tools/bench_pairs.py --parent . --pairs 1 --seconds 1 --workload commands-mixed

Every run must report ``correct`` true and ``failed`` 0.  For each workload
and each end-to-end metric it prints the parent's and this checkout's
medians, the parent's interquartile range, this checkout's wins over the
pairs (a tie counts for neither) and whether this checkout's median is
worse than the parent's by more than the metric's bound in
``BENCHMARK.json``.  Each checkout runs its own ``bench/run.py``; nothing
under ``bench/`` or in ``BENCHMARK.json`` is changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result of one untraced ``bench/run.py`` run in checkout."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
    out = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def compare(metric: dict, parent: list, change: list) -> dict:
    """The summary of one metric over the pairs (parent[i], change[i])."""
    sign = 1 if metric["better"] == "lower" else -1
    before, after = statistics.median(parent), statistics.median(change)
    if before:
        worse_by = sign * (after - before) / before
    else:
        worse_by = 0.0 if after == before else sign * float("inf")
    return {
        "parent_median": before,
        "parent_iqr": iqr(parent),
        "change_median": after,
        "wins": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
        "worse_by": worse_by,
        "bound": metric["bound"],
        "worse_than_bound": worse_by > metric["bound"],
        "unit": metric["unit"],
        "parent_runs": parent,
        "change_runs": change,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0, help="--seconds of each run.py run")
    parser.add_argument("--seed", type=int, default=1, help="K: pair i runs with seed K + i")
    parser.add_argument("--workload", action="append", help="default: every workload, repeatable")
    parser.add_argument("--out", type=Path, help="also write the summary as JSON here")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    ok = True
    summary = {}
    for workload in workloads:
        results = {"parent": [], "change": []}
        for i in range(args.pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                result = run(sides[side], workload, args.seed + i, args.seconds)
                results[side].append(result)
                if result["correct"] is not True or result["failed"] != 0:
                    ok = False
                    print(f"{workload} pair {i} {side}: correct {result['correct']}, "
                          f"failed {result['failed']}", file=sys.stderr)
        summary[workload] = {
            metric["name"]: compare(metric, *([r["metrics"][metric["name"]]["value"] for r in results[side]]
                                              for side in ("parent", "change")))
            for metric in declared["end_to_end"]
        }
        for name, s in summary[workload].items():
            print(f"{workload:15s} {name:12s} parent {s['parent_median']:.4g} (IQR {s['parent_iqr']:.3g}) "
                  f"change {s['change_median']:.4g} {s['unit']}  wins {s['wins']}/{s['pairs']}  "
                  f"{100 * s['worse_by']:+.1f}% vs bound {100 * s['bound']:.0f}%"
                  f"{'  WORSE THAN BOUND' if s['worse_than_bound'] else ''}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
