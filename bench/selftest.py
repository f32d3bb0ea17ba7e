"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that

* the outside-in tracer changes no report: every job of commands-mixed and
  the Q[S4] derivations job give byte-identical output (and exit code)
  traced and untraced, and pass the oracle;
* the Q[S4] constraint systems seen by the traced kernel solver repeat
  exactly: rows consumed / rank reached are 13 824 / 557 for derivations,
  7 200 / 557 for Jordan derivations and 14 500 / 557 for criterion maps,
  on 576 unknowns.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import sys
from random import Random

import run

QS4_SYSTEMS = {
    "maps.derivation": (576, 13824, 557),
    "maps.jordan": (576, 7200, 557),
    "maps.criterion": (576, 14500, 557),
}


def main() -> int:
    run.import_finalg()
    from finalg.cli import main as cli_main
    from tracer import Tracer
    from workloads import commands_mixed, derivations_job

    work = run.ROOT / ".bench_runs" / f"selftest-{os.getpid()}"
    failures = []
    try:
        work.mkdir(parents=True)
        jobs = commands_mixed(work, Random(1))
        qs4 = derivations_job(work / "QS4.alg", "QS4", 0)
        jobs.append(qs4)
        plain = {}
        for job in jobs:
            plain[job.name] = run.execute(cli_main, job.args)
            reason = run.check(job, *plain[job.name])
            if reason is not None:
                failures.append(f"oracle {job.name}: {reason}")
        tracer = Tracer()
        tracer.install()
        try:
            traced = {}
            for job in jobs:
                tracer.job = job.name
                traced[job.name] = run.execute(cli_main, job.args)
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for job in jobs:
        if traced[job.name] != plain[job.name]:
            failures.append(f"traced output differs: {job.name}")
    print(f"{len(jobs)} jobs: traced and untraced reports compared byte for byte")
    if tracer.missing:
        failures.append(f"entry points not found: {tracer.missing}")

    seen = {group: (n, rows, rank) for job_name, group, n, rows, rank in tracer.kernel_calls
            if job_name == qs4.name and group in QS4_SYSTEMS}
    for group, want in QS4_SYSTEMS.items():
        got = seen.get(group)
        print(f"Q[S4] {group}: unknowns/rows/rank {got}, expected {want}")
        if got != want:
            failures.append(f"Q[S4] {group} system {got}, expected {want}")

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
