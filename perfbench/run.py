"""duocast benchmark: one workload in a closed loop, then one JSON result line.

    python3 perfbench/run.py --workload frontier --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/`` next to
this directory.  One process and one client run the workload's jobs back to
back, in whole passes, until ``--seconds`` have passed.  The seed makes every
input.  After each pass, with the clock stopped, every job's output is
checked; a job that raised or failed its check counts in ``failed``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first times one
untraced pass, then runs the timed phase with every layer wrapped, and prints
the per-layer metrics and the tracing overhead.  Every line above the last
names the backend the numbers come from; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPEATS = 5

# Percentile reported as job_s_tail, fixed per workload so that runs of
# different speed report the same percentile.  Each leaves at least ten jobs
# beyond it at the job count of a 30 s run on the numpy fallback (2 cores):
# frontier 30 jobs, regions 69, packets 140 to 170.
TAIL_PERCENTILE = {"frontier": 66, "regions": 85, "packets": 92}

# The result line carries the per-layer metrics BENCHMARK.json lists: counts,
# which may read 0 where a layer is idle, and times and rates that no
# workload leaves at 0.  Layer times that are 0 by design on some workload
# (the kernel on regions and packets, apply_slot on frontier and regions)
# are in the printed report only.
BENCHMARK = HERE.parent / "BENCHMARK.json"


def result_layer_metrics() -> list[str]:
    return [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolation percentile, as numpy's default."""

    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def pass_time(job_times: list[float], jobs_per_pass: int) -> float:
    """Time of one pass: each job's median over the passes, summed.

    Medians per job keep a slow-down that hit one pass from moving the
    result.
    """

    m = jobs_per_pass
    return sum(statistics.median(job_times[j::m]) for j in range(m))


class Loop:
    """Closed loop over whole passes; times every job, checks every output.

    Each pass is checked as soon as it ends, with the clock stopped, and its
    outputs are dropped, so memory does not grow with the number of passes.
    """

    def __init__(self, workload, jobs) -> None:
        self.workload = workload
        self.jobs = jobs
        self.job_times: list[float] = []
        self.pass_times: list[float] = []
        self.failed = 0
        self.errors: list[str] = []

    def one_pass(self, tracer=None) -> None:
        outputs = []
        start = time.perf_counter()
        for job in self.jobs:
            begin = time.perf_counter()
            try:
                if tracer is None:
                    output = self.workload.run_job(job)
                else:
                    tracer.job = len(self.job_times)
                    with tracer.region("bench.job"):
                        output = self.workload.run_job(job)
            except Exception:
                self.errors.append(traceback.format_exc())
                output = None
            self.job_times.append(time.perf_counter() - begin)
            outputs.append((job, output))
        self.pass_times.append(time.perf_counter() - start)
        self.failed += sum(not ok for ok in self.workload.check(outputs))

    def run_for(self, seconds: float, tracer=None) -> None:
        """Repeat passes until ``seconds`` of them have run."""

        while sum(self.pass_times) < seconds:
            self.one_pass(tracer)


def import_seconds() -> float:
    """Time to import the package, measured in a fresh interpreter."""

    code = (
        "import sys, time; start = time.perf_counter(); import duocast; "
        "print(time.perf_counter() - start)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout)


def environment(kernel, numpy) -> dict:
    return {
        "backend": "jit" if kernel.jit_enabled() else "numpy-fallback",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("frontier", "regions", "packets"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "duocast" / "__init__.py").is_file():
        print(f"error: no duocast sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy

    from duocast import kernel

    import layers
    import workloads
    from tracing import Tracer

    if not Path(kernel.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: duocast imported from {kernel.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        import_s = import_seconds()
        begin = time.perf_counter()
        jobs = workload.make_jobs(args.seed)
        workload.warm(jobs)
        setups.append(import_s + time.perf_counter() - begin)
    setup_s = statistics.median(setups)

    env = environment(kernel, numpy)
    stamp = " ".join(f"{k}={v}" for k, v in env.items())
    loop = Loop(workload, jobs)
    lines = [
        f"# duocast benchmark workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}",
        f"# {stamp}",
    ]
    metrics: dict[str, tuple[float, str]] = {}

    if args.trace:
        untraced = loop
        untraced.one_pass()
        untraced_pass_s = untraced.pass_times[0]
        loop = Loop(workload, jobs)
        loop.failed, loop.errors = untraced.failed, untraced.errors
        tracer = Tracer()
        with layers.instrument(tracer):
            loop.run_for(args.seconds, tracer)
        job_s = sum(s.duration for s in tracer.spans if s.name == "bench.job")
        rng_floor = layers.rng_floor_slots_per_s(args.seed)
        report = layers.layer_metrics(tracer, len(loop.pass_times), job_s, rng_floor)
        overhead = pass_time(loop.job_times, len(jobs)) - untraced_pass_s
        report["trace.overhead_s"] = (overhead, "s")
        report["trace.overhead_share"] = (overhead / untraced_pass_s, "ratio")
        lines.append(
            f"# traced: {len(loop.pass_times)} passes, {len(loop.job_times)} jobs, "
            f"{job_s:.3f} s in jobs; untraced pass {untraced_pass_s:.3f} s; "
            f"counts and times are per pass; shares are of time in jobs; "
            f"kernel.rng_bytes_per_slot is computed, not measured"
        )
        for name, (value, unit) in report.items():
            lines.append(f"{name:<38} {value:>14.6g} {unit:<6} backend={env['backend']}")
        metrics = {name: report[name] for name in result_layer_metrics()}
    else:
        loop.run_for(args.seconds)
        n_passes, n_jobs, m = len(loop.pass_times), len(loop.job_times), len(jobs)
        work = n_passes * sum(workload.work(job) for job in jobs)
        tail = TAIL_PERCENTILE[args.workload]
        times = loop.job_times
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (pass_time(times, m), "s"),
            "job_s_p50": (statistics.median(times), "s"),
            "job_s_tail": (percentile(times, tail), "s"),
            "work_per_s": (work / sum(loop.pass_times), "1/s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        notes = {
            "setup_s": f"median of {SETUP_REPEATS} set-ups: import in a fresh "
                       f"interpreter, input generation, warm-up",
            "wall_s": f"one pass of {m} jobs, each at its median over "
                      f"{n_passes} passes",
            "job_s_p50": f"{n_jobs} jobs",
            "job_s_tail": f"p{tail} of {n_jobs} jobs, "
                          f"{n_jobs * (100 - tail) / 100:.1f} beyond",
            "work_per_s": f"{workload.work_unit}_per_s, {work} {workload.work_unit}",
        }
        lines.append(
            f"# closed loop: 1 process, 1 client, jobs back to back; "
            f"{n_passes} passes, {n_jobs} jobs; pass times "
            + " ".join(f"{t:.3f}" for t in loop.pass_times) + " s"
        )
        for name, (value, unit) in metrics.items():
            lines.append(f"{name:<12} {value:>14.6g} {unit:<4} "
                         f"backend={env['backend']}  {notes.get(name, '')}".rstrip())

    attempted = len(loop.job_times) + (len(jobs) if args.trace else 0)
    failed = loop.failed
    lines.append(f"wrong_frac   {failed}/{attempted} = {failed / attempted:.4g}  "
                 f"(raised or failed a check)")
    for error in loop.errors[:1]:
        print(error, file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
