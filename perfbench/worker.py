"""Run one job list through riscpl.cli.main, back to back, in this process.

    python3 perfbench/worker.py JOBS.json RESULTS.json [--trace SPANS.npz]

One client, closed loop: each CLI call starts when the previous one has
returned, and there are no other threads.  The process is fresh for every
round of a run, so the only state shared between jobs is what the package
keeps across calls by itself.  Before the first job and after each job the
calibration process (calibrate.py, on the same CPU) runs its reference once,
while this process waits; each call's time is also given scaled to the
reference speed by the two readings around its job.  RESULTS.json gets the
per-call times, scaled times and exit codes, the calibration readings, the
summed time of the calls and the peak resident set size; with --trace, also
the per-layer metrics, and the spans are saved to SPANS.npz.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

from calibrate import Calibrator


def run(jobs, cal, tracer=None):
    import riscpl.cli as cli

    if tracer is not None:
        tracer.install()
    out = []
    before = cal.read()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.current_job = i
        calls = []
        for argv in job["calls"]:
            ts = time.perf_counter()
            error = None
            try:
                rc = cli.main(list(argv))
            except (Exception, SystemExit):
                rc, error = None, traceback.format_exc(limit=4)
            calls.append({"cmd": argv[0], "s": time.perf_counter() - ts, "rc": rc, "error": error})
        # the reference runs after the job, so it brackets the job with the
        # reading before it
        after = cal.read()
        for c in calls:
            c["scaled_s"] = cal.scale(c["s"], before, after)
        before = after
        out.append(calls)
    return out


def main(argv) -> int:
    jobs_path, results_path = argv[0], argv[1]
    # One fixed CPU, shared with the calibration process: no migrations, and
    # every run on the same one.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spans_path = argv[3] if len(argv) > 3 and argv[2] == "--trace" else None
    with open(jobs_path) as fh:
        jobs = json.load(fh)
    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer()
    with Calibrator() as cal:
        calls = run(jobs, cal, tracer)
    doc = {
        "calls": calls,
        "wall_s": sum(c["s"] for job in calls for c in job),
        "calibration_s": cal.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        doc["layers"] = tracer.metrics()
        doc["job_counts"] = {str(j): dict(c) for j, c in tracer.job_counts.items()}
        tracer.save_spans(spans_path)
    with open(results_path, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
