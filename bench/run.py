"""finalg benchmark: drives the batch CLI in-process over a seeded workload.

    python3 bench/run.py --workload solve-monomial --seed 1 --seconds 30 --trace 0

One client in a closed loop: the jobs of the workload's fixed list run one
after another through ``finalg.cli:main`` in this single process, in a
seeded order.  The list is repeated in whole passes while another pass fits
in ``--seconds`` (at least two passes, so every job runs twice and its
repeat must be byte-identical).  Every report is checked against the
workload's oracle.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics; with ``--trace 1`` the same loop runs under the
outside-in tracer and the result holds the per-layer metrics, while the
spans go to ``.bench_runs/spans-<workload>-<seed>.jsonl``.  Inputs are
written to a scratch directory under ``.bench_runs`` and removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
MIN_PASSES = 2
CALIBRATION_REF_S = 0.005
CALIBRATION_INTERVAL_S = 0.25
CALIBRATION_WINDOW = 5

END_TO_END = {
    "batch_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_finalg():
    """Import finalg from this checkout's src/, and nowhere else."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import finalg

    location = Path(finalg.__file__).resolve()
    if (ROOT / "src") not in location.parents:
        raise ImportError(f"finalg was imported from {location}, not from {ROOT / 'src'}")
    return finalg


def environment() -> dict:
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as info:
        cpu = next((line.split(":", 1)[1].strip() for line in info
                    if line.startswith("model name")), "")
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
    }


# -- reports and the oracle -------------------------------------------------------

def render(value) -> str:
    """A report value as the text renderer writes it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, (int, str)):
        return str(value)
    return json.dumps(value, sort_keys=True)


def parse_report(text: str) -> dict:
    """{"section.key": rendered value} from a text or structured report."""
    if text.startswith("{"):
        doc = json.loads(text)
        return {f"{sec['name']}.{key}": render(value)
                for sec in doc["sections"] for key, value in sec["entries"]}
    facts, section = {}, None
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
        elif section is not None and " = " in line:
            key, _, value = line.partition(" = ")
            facts[f"{section}.{key}"] = value
    return facts


def check(job, code, out: str, err: str) -> str | None:
    """Why the job's outcome is wrong, or None when the oracle accepts it."""
    if code != job.exit_code:
        return f"exit {code}, expected {job.exit_code}: {err.strip()[:200]}"
    if job.stderr and job.stderr not in err:
        return f"stderr lacks {job.stderr!r}"
    facts = parse_report(out) if job.facts else {}
    for key, want in job.facts.items():
        if facts.get(key) != render(want):
            return f"{key} = {facts.get(key)}, expected {render(want)}"
    if job.output_dim is not None:
        written = Path(job.args[-1]).read_text(encoding="utf-8").splitlines()
        if f"dim {job.output_dim}" not in written:
            return f"{job.args[-1]} does not declare dim {job.output_dim}"
    return None


def execute(cli_main, args) -> tuple:
    """Run one CLI job in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli_main.main(args=list(args), prog_name="finalg", standalone_mode=True)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an uncaught exception is a failed job, not a crash
            code = f"uncaught {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def calibrate() -> float:
    """Seconds that a fixed loop of exact rational arithmetic takes right now."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 2000):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


class SpeedClock:
    """Times work in reference seconds.

    On a shared 2-vCPU Xeon host, the speed of a fixed loop drifts by up to
    a factor of 1.7 within seconds (other tenants share the cores), far more
    than the changes the benchmark must resolve.  So the clock runs the calibration loop, which does the same
    kind of arithmetic as the program, before and after each timed call and
    every CALIBRATION_INTERVAL_S during it (from a SIGALRM handler, so no
    thread is added).  The wall time between two calibrations is rescaled by
    CALIBRATION_REF_S over the median of the last CALIBRATION_WINDOW loop
    times up to the later one: the result is the time the work would take at
    the speed where the loop takes CALIBRATION_REF_S.  Calibrations are left
    out of both the wall and the reference time, and out of the tracer's
    spans.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.loops = []  # seconds of every calibration so far
        self.marks = []  # (start, end) of the calibrations of the current call

    def _calibrate(self, *_signal):
        start = time.perf_counter()
        self.loops.append(calibrate())
        end = time.perf_counter()
        self.marks.append((start, end, len(self.loops)))
        if self.tracer is not None:
            self.tracer.exclude(end - start)

    def time(self, fn, *args):
        """(wall seconds, reference seconds, result) of fn(*args)."""
        self.marks = []
        self._calibrate()
        previous = signal.signal(signal.SIGALRM, self._calibrate)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._calibrate()
        wall = ref = 0.0
        for (_, begin, _), (finish, _, seen) in zip(self.marks, self.marks[1:]):
            loop = statistics.median(self.loops[max(0, seen - CALIBRATION_WINDOW):seen])
            wall += finish - begin
            ref += (finish - begin) * CALIBRATION_REF_S / loop
        return wall, ref, result


def set_up(workload: str, work: Path, seed: int):
    """Import finalg and generate the workload's inputs SETUP_REPEATS times.

    Each repeat drops finalg and the generator from ``sys.modules`` first, so
    it pays the module-level work of the import again; the generated files
    must repeat byte for byte.  Returns the job list and the median set-up
    time of the repeats, in wall and in reference seconds.
    """
    clock = SpeedClock()
    wall, times, snapshot = [], [], None
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n.split(".")[0] in ("finalg", "corpus", "workloads")]:
            del sys.modules[name]
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        seconds, ref_seconds, jobs = clock.time(_generate, workload, work, seed)
        wall.append(seconds)
        times.append(ref_seconds)
        files = {p.name: p.read_bytes() for p in sorted(work.iterdir()) if p.is_file()}
        if snapshot is not None and files != snapshot:
            raise RuntimeError("the input generator is not deterministic")
        snapshot = files
    names = [job.name for job in jobs]
    if len(set(names)) != len(names):
        raise RuntimeError("job names must be unique")
    return jobs, statistics.median(wall), statistics.median(times)


def _generate(workload: str, work: Path, seed: int) -> list:
    import_finalg()
    from workloads import WORKLOADS

    return WORKLOADS[workload](work, Random(seed))


def tail(samples: list) -> tuple:
    """(value, percentile) of the highest order statistic with at least ten
    samples beyond it; the largest sample when there are ten or fewer."""
    ordered = sorted(samples)
    k = len(ordered) - 10 if len(ordered) > 10 else len(ordered)
    return ordered[k - 1], 100.0 * k / len(ordered)


def measure(cli_main, jobs, seed: int, seconds: float, tracer):
    order = list(jobs)
    Random(seed).shuffle(order)
    samples = {job.name: [] for job in jobs}
    wall = {job.name: [] for job in jobs}
    first, failures, layer_passes = {}, [], []
    attempted = 0
    pass_times = []
    clock = SpeedClock(tracer)
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        pass_wall_s = 0.0
        for job in order:
            if tracer is None:
                job_wall, job_ref, outcome = clock.time(execute, cli_main, job.args)
            else:
                tracer.job = f"{len(pass_times)}:{job.name}"
                job_wall, job_ref, outcome = clock.time(_traced, tracer, cli_main, job.args)
            attempted += 1
            samples[job.name].append(job_ref)
            wall[job.name].append(job_wall)
            pass_wall_s += job_wall
            code, out, err = outcome
            if job.output_dim is not None:  # gen: the written document must repeat too
                outcome += (Path(job.args[-1]).read_bytes(),)
            if job.name not in first:
                first[job.name] = (outcome, check(job, code, out, err))
            reason = first[job.name][1]
            if reason is None and outcome != first[job.name][0]:
                reason = "repeat run gave different output"
            if reason is not None:
                failures.append(f"{job.name}: {reason}")
        pass_times.append(time.perf_counter() - pass_start)
        if tracer is not None:
            layer_passes.append(tracer.take_pass(pass_wall_s))
        elapsed = time.perf_counter() - start
        if len(pass_times) >= MIN_PASSES and elapsed + statistics.median(pass_times) > seconds:
            break
    return samples, wall, attempted, failures, pass_times, layer_passes


def _traced(tracer, cli_main, args):
    frame = tracer.open("cli.main", "cli.main")
    try:
        return execute(cli_main, args)
    finally:
        tracer.close(frame)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_finalg()
    except ImportError as exc:
        print(f"error: cannot import finalg from this checkout: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = environment()
    env["loadavg_before"] = os.getloadavg()
    runs = ROOT / ".bench_runs"
    work = runs / f"work-{os.getpid()}"
    try:
        jobs, setup_wall_s, setup_s = set_up(args.workload, work, args.seed)
        from finalg.cli import main as cli_main
        from tracer import PER_LAYER, Tracer, median_metrics

        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            samples, wall, attempted, failures, pass_times, layer_passes = measure(
                cli_main, jobs, args.seed, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()

    per_job = {name: statistics.median(times) for name, times in samples.items()}
    batch_s = sum(per_job.values())
    per_group = {}
    for job in jobs:
        key = job.group or job.name
        per_group[key] = per_group.get(key, 0.0) + per_job[job.name]
    tail_s, tail_pct = tail(list(per_group.values()))
    print(f"env {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs x {len(pass_times)} passes; "
          f"pass times {[round(t, 3) for t in pass_times]}")
    per_job_wall = {name: statistics.median(times) for name, times in wall.items()}
    for name, seconds in sorted(per_job.items(), key=lambda item: item[1]):
        print(f"job {seconds:.4f} s ({per_job_wall[name]:.4f} s wall) {name}")
    print(f"job_p50_s and job_tail_s are the p50 and p{tail_pct:.1f} of the {len(per_group)} "
          f"per-job medians" + (" (a group's jobs summed)" if len(per_group) < len(per_job) else ""))
    print(f"times in reference seconds (calibration loop = {CALIBRATION_REF_S} s); "
          f"wall: batch {sum(per_job_wall.values()):.4f} s, setup {setup_wall_s:.4f} s")
    for failure in failures:
        print(f"FAILED {failure}")

    if tracer is None:
        values = {
            "batch_s": batch_s,
            "job_p50_s": statistics.median(per_group.values()),
            "job_tail_s": tail_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        runs.mkdir(exist_ok=True)
        tracer.write_spans(runs / f"spans-{args.workload}-{args.seed}.jsonl")
        values = median_metrics(layer_passes)
        values["trace.batch_s"] = batch_s
        units = PER_LAYER
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
