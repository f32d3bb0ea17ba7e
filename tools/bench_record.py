"""Record the benchmark's metrics of this checkout in ``BENCH_<pr>.json``.

For each seed, and for each workload in turn (in reverse order on every
other seed, so that no workload always runs first), run ``bench/run.py`` as
a subprocess twice, untraced and with ``--trace 1``, read the JSON result
on the last line of each run, and write the median of every metric over
the seeds:

    python3 tools/bench_record.py --pr N                   # seeds 1-5, 30 s runs
    python3 tools/bench_record.py --pr N --seeds 1 --seconds 1 --out record.json

The untraced runs give the end-to-end metrics (wall times in reference
seconds and the peak RSS), the traced runs the per-layer split and the
counts.  Each entry keeps the per-seed values beside its median.  Nothing
under ``bench/`` is changed or imported; only its command line is run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("solve-monomial", "solve-dense", "commands-mixed")


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """The JSON result and the environment line of one ``bench/run.py`` run."""
    command = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True).stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return json.loads(lines[-1]), env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="the number in BENCH_<pr>.json")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    parser.add_argument("--seconds", type=float, default=30.0, help="--seconds of each run.py run")
    parser.add_argument("--out", type=Path, help="default: BENCH_<pr>.json at the root of the checkout")
    args = parser.parse_args(argv)

    runs = {workload: {0: [], 1: []} for workload in WORKLOADS}
    env = {}
    for n, seed in enumerate(args.seeds):
        for workload in WORKLOADS[::-1] if n % 2 else WORKLOADS:
            for trace in (0, 1):
                result, env = run(workload, seed, args.seconds, trace)
                runs[workload][trace].append(result)
                print(f"{workload} seed {seed} trace {trace}: correct {result['correct']}, "
                      f"failed {result['failed']} of {result['attempted']}", file=sys.stderr)

    def medians(results: list) -> dict:
        names = results[0]["metrics"]
        return {name: {"median": statistics.median(r["metrics"][name]["value"] for r in results),
                       "unit": results[0]["metrics"][name]["unit"],
                       "runs": [r["metrics"][name]["value"] for r in results]} for name in names}

    record = {
        "pr": args.pr,
        "seeds": args.seeds,
        "seconds": args.seconds,
        "environment": {key: env[key] for key in ("python", "nproc", "cpu") if key in env},
        "workloads": {
            workload: {
                "correct": all(r["correct"] for r in by[0] + by[1]),
                "failed": sum(r["failed"] for r in by[0] + by[1]),
                "end_to_end": medians(by[0]),
                "per_layer": medians(by[1]),
            }
            for workload, by in runs.items()
        },
    }
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0 if all(w["correct"] and not w["failed"] for w in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
