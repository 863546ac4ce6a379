"""Benchmark of the vertexforms command line, one workload per run.

    python3 perfbench/run.py --workload lattice-sums --seed 1 --seconds 40 --trace 0

Each workload is a closed loop: one client in this process, no extra
threads, runs the workload's jobs back to back.  A job calls
``vertexforms.cli.main(argv)`` in-process with stdout going to an
in-memory buffer; its time is the call alone, and its output is then
checked against values computed without the package (see workloads.py).
A run repeats passes over the job list while the next one fits in
--seconds (at least MIN_PASSES).  Every job is timed between two runs
of the reference kernel (reference.py) and its time scaled to the
kernel's speed, which takes out the drift of the machine's speed;
end-to-end times take each job at its median scaled run.  setup_s is
the median of fresh-process samples spread over the run, scaled the
same way.

With --trace 1 the run repeats pairs of passes over the workload's own
jobs, without the probe group, while the next pair fits in --seconds
(at least MIN_PASSES pairs); in a pair each job runs plain and traced
back to back.  It reports the per-layer metrics of the traced passes
(see tracing.py), plus the tracing overhead: the median over jobs of
traced over plain time, minus 1.

The last line of stdout is the result: correct, attempted, failed and
the metrics.  The line before it is a report with the same metrics and
the run's metadata: interpreter, core count, seed and git commit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import inputs
import tracing
import workloads
from oracle import Mismatch
from reference import REF_S, ref_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3  # fresh processes per set-up sample group
SETUP_EVERY = 2  # passes between set-up sample groups
MIN_PASSES = 2
MIN_JOB_S = 0.02  # a job reruns within a pass until its runs add up to this
SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import vertexforms.cli as cli\n"
    "cli.build_parser()\n"
    "t = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from reference import ref_time\n"
    "print(repr(t), repr(min(ref_time() for _ in range(3))))\n"
)
TAIL_BEYOND = 10  # samples the tail percentile must leave above it


def measure_setup() -> list:
    """Times to import vertexforms.cli and build its parser, each in a fresh process,
    scaled by the reference kernel timed in that process afterwards."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", SETUP_CODE, str(Path(__file__).resolve().parent)]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        seconds, ref = map(float, done.stdout.split())
        times.append(seconds * REF_S / ref)
    return times


def git_commit() -> str:
    """The checked-out commit, or 'unknown' outside a git clone."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def run_job(cli, job) -> tuple:
    """(seconds, problem or None, stdout bytes) for one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # so that no garbage an earlier job left is collected inside this one
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(job.argv)
        except Exception:  # an escaped exception is a failed job, not a crash
            rc = traceback.format_exc()[-800:]
        seconds = perf_counter() - start
    text = out.getvalue()
    problem = None
    if rc != job.rc:
        problem = f"exit {rc!r}, expected {job.rc}; stderr: {err.getvalue().strip()[:200]}"
    else:
        try:
            job.check(text)
        except (Mismatch, ValueError, KeyError, TypeError, IndexError) as e:
            problem = f"{type(e).__name__}: {str(e)[:300]}"
    return seconds, problem, len(text.encode())


def run_pass(cli, jobs) -> dict:
    """Every job, each between two runs of the reference kernel.

    A job shorter than MIN_JOB_S reruns back to back until its runs add
    up to MIN_JOB_S, so that a few-millisecond job gets as many samples
    as its noise needs.  times[k] lists the runs of job k; refs[k] is the
    mean of the kernel runs before and after them.
    """
    times, refs, problems = [], [], []
    before = ref_time()
    for job in jobs:
        runs = []
        while sum(runs) < MIN_JOB_S:
            seconds, problem, _ = run_job(cli, job)
            runs.append(seconds)
            if problem:
                problems.append(f"{job.label}: {problem}")
                break
        after = ref_time()
        times.append(runs)
        refs.append((before + after) / 2)
        before = after
    return {"jobs": jobs, "times": times, "refs": refs, "problems": problems,
            "runs": sum(map(len, times))}


def run_pair(cli, jobs, tracer, traced_first: bool) -> tuple:
    """A plain and a traced pass, made together: each job runs plain and traced back to back.

    The two runs of a job are seconds apart at most, so the machine's slow
    phases hit both alike; traced_first swaps their order.
    """
    plain = {"jobs": jobs, "times": [], "problems": [], "runs": len(jobs)}
    traced = {"jobs": jobs, "times": [], "problems": [], "runs": len(jobs)}
    first_span, traced_jobs = len(tracer.spans), []
    for job in jobs:
        for use_tracer in ((True, False) if traced_first else (False, True)):
            if use_tracer:
                tracer.install()
                first = len(tracer.spans)
            try:
                seconds, problem, nbytes = run_job(cli, job)
            finally:
                if use_tracer:
                    tracer.uninstall()
            p = traced if use_tracer else plain
            p["times"].append(seconds)
            if problem:
                p["problems"].append(f"{job.label}: {problem}")
            if use_tracer:
                traced_jobs.append((job, first, len(tracer.spans), nbytes))
    traced["layers"] = tracing.layer_metrics(tracer.spans[first_span:], first_span,
                                             traced_jobs, sum(traced["times"]))
    return plain, traced


def end_to_end(jobs, passes, setup_times) -> tuple:
    """Metrics as (value, unit), plus notes for the report: the tail percentile
    with its sample count, and the reference kernel's median time.

    Each run of a job is scaled by REF_S over the reference kernel's time
    beside it, and a job's time is the median of its scaled runs.  Pass
    and command times sum these; the job percentiles are taken over them
    for the workload's own jobs, probe jobs left out.
    """
    scaled: dict = {id(job): [] for job in jobs}
    for p in passes:
        for job, runs, ref in zip(p["jobs"], p["times"], p["refs"]):
            scaled[id(job)] += [t * REF_S / ref for t in runs]
    typical = [statistics.median(scaled[id(job)]) for job in jobs]
    samples = sorted(t for job, t in zip(jobs, typical) if not job.probe)
    n = len(samples)
    beyond = min(TAIL_BEYOND, n - 1)
    metrics = {
        "wall_s": (sum(typical), "s"),
        "job_p50_s": (statistics.median(samples), "s"),
        "job_tail_s": (samples[n - 1 - beyond], "s"),
    }
    for cmd in workloads.COMMANDS:
        metrics[f"{cmd}_s"] = (sum(t for job, t in zip(jobs, typical)
                                   if job.command == cmd), "s")
    metrics["setup_s"] = (statistics.median(setup_times), "s")
    metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                               "MiB")
    notes = {"job_tail": {"percentile": round(100 * (n - beyond) / n, 2), "samples": n,
                          "samples_beyond": beyond},
             "ref_s": statistics.median(r for p in passes for r in p["refs"])}
    return metrics, notes


def traced_metrics(jobs, plain, traced) -> dict:
    """Per-layer metrics, median over traced passes, and the tracing overhead.

    The overhead is the median over jobs of the job's fastest traced run
    over its fastest plain run, minus 1.
    """
    metrics = tracing.median_metrics([p["layers"] for p in traced])
    ratios = [min(p["times"][k] for p in traced) / min(p["times"][k] for p in plain)
              for k in range(len(jobs))]
    metrics["trace.overhead_frac"] = (statistics.median(ratios) - 1, "ratio")
    return metrics


def measure(cli, jobs, seconds: float, setup_times: list) -> list:
    """Plain passes while the next one fits in seconds, with set-up samples every
    SETUP_EVERY passes and after the last."""
    deadline = perf_counter() + seconds
    plain, longest = [], 0.0
    while len(plain) < MIN_PASSES or perf_counter() + longest < deadline:
        start = perf_counter()
        if len(plain) % SETUP_EVERY == 0:
            setup_times += measure_setup()
        plain.append(run_pass(cli, jobs))
        longest = max(longest, perf_counter() - start)
    setup_times += measure_setup()
    return plain


def measure_traced(cli, jobs, seconds: float) -> tuple:
    """Paired plain and traced passes while the next pair fits in seconds,
    alternating which of the two runs first."""
    deadline = perf_counter() + seconds
    tracer = tracing.Tracer()
    plain, traced, longest = [], [], 0.0
    while len(plain) < MIN_PASSES or perf_counter() + longest < deadline:
        start = perf_counter()
        p, t = run_pair(cli, jobs, tracer, traced_first=len(plain) % 2 == 1)
        plain.append(p)
        traced.append(t)
        longest = max(longest, perf_counter() - start)
    return plain, traced


def import_cli():
    """vertexforms.cli from the checkout's sources, or None when they are missing."""
    if not (SRC / "vertexforms" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    return importlib.import_module("vertexforms.cli")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = perf_counter()

    cli = import_cli()
    if cli is None:
        print(f"error: no vertexforms sources under {SRC}", file=sys.stderr)
        return 2

    setup_times = []
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        inp = inputs.generate(args.seed, workdir / "seeded", workloads.N_TRIPLES[args.workload])
        probe_inp = inputs.generate(workloads.PROBE_SEED, workdir / "probe",
                                    workloads.PROBE_TRIPLES)
        jobs = workloads.build(args.workload, inp, probe_inp)
        if args.trace:  # the workload's own jobs only
            jobs = [job for job in jobs if not job.probe]
            plain, traced = measure_traced(cli, jobs, args.seconds)
        else:
            plain, traced = measure(cli, jobs, args.seconds, setup_times), []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    passes = plain + traced
    attempted = sum(p["runs"] for p in passes)
    problems = [msg for p in passes for msg in p["problems"]]
    for msg in problems[:20]:
        print(f"FAILED {msg}", file=sys.stderr)

    if args.trace:
        metrics, notes = traced_metrics(jobs, plain, traced), {}
    else:
        metrics, notes = end_to_end(jobs, plain, setup_times)

    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:>16.6g} {unit}")
    as_json = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "plain_passes": len(plain), "traced_passes": len(traced),
        "jobs_per_pass": len(jobs), **notes,
        "failed_frac": len(problems) / attempted,
        "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(), "run_s": perf_counter() - started, "metrics": as_json,
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(problems), "metrics": as_json}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
