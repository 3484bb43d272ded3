"""Benchmark of the wfvar command line on three seeded workloads.

    python3 bench/run.py --workload {refine,check,radiation} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; wfvar is imported from `src/`.
The seed generates every scenario file (see `workloads.py`); the program
sees only those files.  Jobs run in this one process through the public
entry point `wfvar.cli.run`, one pass after another, for as many passes
as fit in `--seconds` (at least one).  Every output of every pass is
checked by the workload's gates.

The host's speed drifts by up to half, for seconds to minutes at a time,
and a process's CPU time drifts with it.  So while the jobs run, a timer
signal runs a fixed calibration kernel that does not touch wfvar every
0.1 s (`Calibration`); each pass's wall time, less the kernel's, is
scaled to the kernel's reference speed.  The traced pass runs without it.

With `--trace 0` the run reports the end-to-end metrics: the median wall
time of one pass (`wall_ref_s`), the median of five set-ups (`setup_s`:
a fresh interpreter importing wfvar plus generating the scenario files),
both scaled to the reference speed, and the process's peak resident
memory.  The unscaled pass times are printed and recorded in the
line before the result.  With `--trace 1` it times untraced passes for
half the budget, then runs one pass under the span tracer of `tracer.py`
and reports the per-layer metrics, with the spans written to
`.bench_out/`.  Metric names and units come from BENCHMARK.json.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` (jobs that exited non-zero or missed a gate) and `metrics`; the
line before it records the machine and versions.  The exit code is 0 only
when every job passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACES = ROOT / ".bench_out"
SETUP_SAMPLES = 5
# Seconds one calibration unit took on the reference machine (a shared
# 2-core Xeon VM at its faster speed): the scale of the scaled times.
CAL_REF_S = 0.002
CAL_PERIOD_S = 0.1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Timed in a fresh interpreter, with its own calibration: the import every
# real CLI invocation pays.  argv: the benchmark's directory, then `src/`.
IMPORT_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
from run import Calibration, timed
with Calibration() as cal:
    sys.path.insert(0, sys.argv[2])
    _, took = timed(cal, __import__, "wfvar")
    print(cal.scale(took))
"""


def pin_threads() -> None:
    """One compute thread: BLAS/OpenMP pinned, farfield's pool switched off.

    Must run before numpy is imported; child processes inherit it.
    """
    os.environ.pop("WFVAR_THREADS", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# Float objects in creation order, read back in a fixed scattered order by
# the calibration: about 6 MB, more than a core's own cache.
_SCATTER = [float(i) for i in range(200_000)]
_READS = random.Random(0).sample(range(len(_SCATTER)), 4_000)


def calibration_unit() -> None:
    """About 2 ms of fixed interpreted work, without wfvar or numpy, in
    two parts about equal in time: tuples, lists and dicts of floats, and
    reads scattered over `_SCATTER`."""
    recent, table = [], {}
    for i in range(3_000):
        item = (i * 0.5, math.sin(i))
        recent.append(item)
        table[i % 97] = item
        if len(recent) > 64:
            recent.pop(0)
    s = 0.0
    for i in _READS:
        s += _SCATTER[i]


class Calibration:
    """Samples the host's speed while the code being measured runs.

    Inside the `with` block a timer signal runs one calibration unit every
    CAL_PERIOD_S seconds, in this thread between two bytecodes of whatever
    is running, and adds its time to `seconds`.  Sampling during the work,
    not around it, matters: the speed changes within seconds.
    """

    def __init__(self):
        self.units = 0
        self.seconds = 0.0

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        calibration_unit()
        self.seconds += time.perf_counter() - t0
        self.units += 1

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, seconds: float) -> float:
        """`seconds` measured in the block, at the reference speed."""
        return seconds * CAL_REF_S * self.units / self.seconds


def timed(cal, fn, *args) -> tuple:
    """fn's result and its wall seconds, less the calibration units that
    ran inside the call (`cal` may be None)."""
    spent = cal.seconds if cal else 0.0
    t0 = time.perf_counter()
    result = fn(*args)
    took = time.perf_counter() - t0
    if cal:
        took -= cal.seconds - spent
    return result, took


def measure_setup(build, workload: str, seed: int, work: Path) -> list:
    """Seconds per set-up at the reference speed: import wfvar in a fresh
    interpreter, then write the workload's scenario files into an empty
    directory."""
    samples = []
    for i in range(SETUP_SAMPLES):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(BENCH), str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        with Calibration() as cal:
            _, took = timed(cal, build, workload, seed, work / f"setup{i}")
            samples.append(float(probe.stdout) + cal.scale(took))
    return samples


def run_job(cli, job) -> int:
    try:
        return cli.run(job.command, job.dir / job.scenario, quiet=True)
    except Exception:  # a crash fails this job; keep measuring the rest
        traceback.print_exc()
        return -1


def run_pass(cli, jobs, cal=None) -> tuple:
    """Run every job once; return (wall seconds of the jobs, problems of
    failed jobs)."""
    for job in jobs:
        for name in job.outputs:
            (job.dir / name).unlink(missing_ok=True)
    codes = []
    wall = 0.0
    for job in jobs:
        code, took = timed(cal, run_job, cli, job)
        codes.append(code)
        wall += took
    problems = []
    for job, code in zip(jobs, codes):
        problem = f"exit code {code}" if code != 0 else job.gate()
        if problem:
            problems.append(f"{job.name}: {problem}")
    return wall, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wfvar" / "__init__.py").is_file():
        print(f"error: no wfvar package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    pin_threads()
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    from tracer import Tracer
    from workloads import build, minimizer_iterations

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    problems = []
    attempted = 0
    walls = []
    passes = []  # seconds per pass, calibration included
    scaled = []  # pass wall times at the calibration's reference speed
    try:
        setup = measure_setup(build, args.workload, args.seed, work)
        cli = importlib.import_module("wfvar.cli")
        jobs = build(args.workload, args.seed, work / "run")
        budget = args.seconds / 2 if args.trace else args.seconds
        t_start = time.perf_counter()
        # start another pass only if it should end within the budget, so a
        # run lasts about --seconds whatever one pass costs
        while not passes or (time.perf_counter() - t_start
                             + statistics.median(passes) <= budget):
            t0 = time.perf_counter()
            with Calibration() as cal:
                wall, failed = run_pass(cli, jobs, cal)
                scaled.append(cal.scale(wall))
            passes.append(time.perf_counter() - t0)
            walls.append(wall)
            problems += failed
            attempted += len(jobs)
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced_wall, failed = run_pass(cli, jobs)
            finally:
                tracer.uninstall()
            problems += failed
            attempted += len(jobs)
            values = tracer.summarize(minimizer_iterations(jobs))
            values["trace.overhead"] = traced_wall / statistics.median(walls)
            tracer.write(TRACES / f"trace-{args.workload}-{args.seed}.tsv")
            declared = spec["per_layer"]
        else:
            values = {
                "wall_ref_s": statistics.median(scaled),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if sorted(values) != sorted(m["name"] for m in declared):
        raise RuntimeError("measured metrics differ from BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(walls)} untraced passes"
          f"{', then 1 traced pass' if args.trace else ''}; pass wall time "
          f"min {min(walls):.4f} median {statistics.median(walls):.4f} "
          f"max {max(walls):.4f} s; scaled to the reference speed min "
          f"{min(scaled):.4f} median {statistics.median(scaled):.4f} max "
          f"{max(scaled):.4f} s")
    print(f"fail_frac {len(problems) / attempted:.4g} ({len(problems)} of {attempted} jobs)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"meta": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(walls), "pass_wall_s": walls, "pass_wall_ref_s": scaled,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_sha": git_sha(),
    }}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(problems), "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
