"""The riscpl benchmark: one command, one workload, one seed.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout (the package is imported from src/).
The run writes its inputs under .perfbench_work/, then runs the workload's
catalog of job types in rounds, each round in one fresh worker process
through riscpl.cli.main, one client in a closed loop, and each on fresh
inputs.  Before each round it times set-up (a fresh interpreter importing
riscpl.cli) a few times.  After the timed phase every output is checked
against an independent answer (verify.py).  The last line of standard output
is one JSON object: correct, attempted, failed and metrics (the end-to-end
metrics with --trace 0; with --trace 1 the per-layer metrics of one round in
a separate traced worker, whose counts a second traced worker must repeat
exactly on the first half of that round).  The line before it carries the
whole timed phase, the per-command times, the failure share and the sha256
digest of all outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibrate import Calibrator  # noqa: E402
from tracer import unit_of  # noqa: E402
from verify import digest, verify_job  # noqa: E402
from workloads import WORKLOADS, make_rounds, round_count  # noqa: E402

SETUP_PER_ROUND = 3
RUN_LIMIT_S = 170
WORK = ".perfbench_work"

# The end-to-end metrics of BENCHMARK.json; times are in seconds at the
# reference speed of calibrate.py.  The unscaled time of the timed phase goes
# to the summary line only: it follows the drift of a shared machine.
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


def warm_setup(env: dict) -> None:
    """One unmeasured start, which writes the bytecode caches."""
    subprocess.run([sys.executable, "-c", "import riscpl.cli"], env=env, check=True)


def measure_setup(env: dict, cal: Calibrator, count: int) -> list:
    """Times of count fresh interpreters that import riscpl.cli, scaled to
    the reference speed by calibration readings before and after them.  No
    timeout: waiting with one polls in steps of up to 50 ms, coarser than
    the spread."""
    argv = [sys.executable, "-c", "import riscpl.cli"]
    times = []
    before = cal.read()
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True)
        times.append(time.perf_counter() - t0)
    after = cal.read()
    return [cal.scale(t, before, after) for t in times]


def run_worker(env: dict, jobs_path: str, results_path: str, deadline: float,
               spans_path: str = None) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), jobs_path, results_path]
    if spans_path is not None:
        argv += ["--trace", spans_path]
    subprocess.run(argv, env=env, check=True, timeout=max(1.0, deadline - time.monotonic()))
    with open(results_path) as fh:
        return json.load(fh)


def write_jobs(path: str, jobs: list) -> str:
    with open(path, "w") as fh:
        json.dump(jobs, fh)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join("src", "riscpl", "cli.py")):
        print("perfbench: run from the root of a riscpl checkout (no src/riscpl/cli.py)",
              file=sys.stderr)
        return 2
    # One CPU for every process of the run (set-up, calibration, workers),
    # which only ever run one at a time.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)

    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        rounds = make_rounds(args.workload, args.seed,
                             round_count(args.workload, args.seconds), workdir)
        warm_setup(env)
        setup_times, plain = [], []
        with Calibrator() as cal:
            for r, jobs in enumerate(rounds):
                # set-up is sampled before every round, so its median spans the run
                setup_times += measure_setup(env, cal, SETUP_PER_ROUND)
                jobs_path = write_jobs(os.path.join(workdir, f"jobs-{r}.json"), jobs)
                plain.append(run_worker(env, jobs_path,
                                        os.path.join(workdir, f"plain-{r}.json"), deadline))
        all_jobs = [job for jobs in rounds for job in jobs]
        all_calls = [calls for res in plain for calls in res["calls"]]
        out_digest = digest(all_jobs)
        failures = [verify_job(job, calls) for job, calls in zip(all_jobs, all_calls)]
        problems = [f"{job['name']}: {r}" for job, r in zip(all_jobs, failures) if r]

        traced = None
        if args.trace:
            # the per-layer metrics are those of one round, traced in a fresh
            # worker on the first round's inputs
            jobs_path = os.path.join(workdir, "jobs-0.json")
            traced = run_worker(env, jobs_path, os.path.join(workdir, "traced.json"), deadline,
                                os.path.join(WORK, f"spans-{args.workload}.npz"))
            if digest(all_jobs) != out_digest:
                problems.append("the traced pass changed the outputs")
            # a second traced pass over the first half of that round must
            # repeat its counts exactly
            head = rounds[0][:max(1, len(rounds[0]) // 2)]
            head_path = write_jobs(os.path.join(workdir, "head.json"), head)
            again = run_worker(env, head_path, os.path.join(workdir, "again.json"), deadline,
                               os.path.join(workdir, "spans.npz"))
            for i in map(str, range(len(head))):
                if traced["job_counts"].get(i) != again["job_counts"].get(i):
                    problems.append(f"traced counts of job {i} differ between two passes")
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Each catalog type at its median over the rounds, in seconds at the
    # reference speed (calibrate.py); a pass is one job of every type.
    by_type, by_cmd_type = {}, {}
    for job, calls in zip(all_jobs, all_calls):
        t = job["type"]
        by_type.setdefault(t, []).append(sum(c["scaled_s"] for c in calls))
        for c in calls:
            by_cmd_type.setdefault((c["cmd"] + "_s", t), []).append(c["scaled_s"])
    by_cmd = {}
    for (name, _), s in sorted(by_cmd_type.items()):
        by_cmd[name] = by_cmd.get(name, 0.0) + statistics.median(s)
    job_s = [sum(c["scaled_s"] for c in calls) for calls in all_calls]
    failed = sum(1 for r in failures if r)
    summary = {
        "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
        "jobs": len(all_jobs),
        "wall_s": {"value": sum(res["wall_s"] for res in plain), "unit": "s"},
        "calibration_s": {"value": statistics.median(
            x for res in plain for x in res["calibration_s"]), "unit": "s"},
        "job_p50_s": {"value": statistics.median(job_s), "unit": "s"},
        "job_max_s": {"value": max(job_s), "unit": "s"},
        **{k: {"value": v, "unit": "s"} for k, v in sorted(by_cmd.items())},
        "fail_frac": {"value": failed / len(all_jobs), "unit": "1"},
        "digest": out_digest,
    }
    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in traced["layers"].items()}
        overhead = sum(c["scaled_s"] for calls in traced["calls"] for c in calls) - sum(
            c["scaled_s"] for calls in plain[0]["calls"] for c in calls)
        metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        values = {"setup_s": statistics.median(setup_times),
                  "pass_s": sum(statistics.median(v) for v in by_type.values()),
                  "peak_rss_mb": max(res["peak_rss_mb"] for res in plain)}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        summary.update(metrics)
    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)
    print("perfbench summary " + json.dumps(summary))
    print(json.dumps({"correct": not problems, "attempted": len(all_jobs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
