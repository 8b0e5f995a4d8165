"""projnorm benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository: projnorm is imported from its src/
directory.  One process runs one workload as a closed loop with a single
client: it repeats passes over the workload's fixed job list, one job after
another, until S seconds are used up, and checks every output of every pass.
The last line of standard output is one JSON object:

* --trace 0: setup_s, the median time of several set-ups in fresh
  processes, taken between passes so that they see the same machine as the
  passes; wall_s, one pass made of each job's median time over the passes;
  and peak_rss_mb of this process.  Nothing is traced.  The last pass stops
  at the job that would not end within S seconds, so the whole window is
  measured; the set-ups are not part of the S seconds.
* --trace 1: calls and self time per traced function (see tracing.py), from
  traced passes that alternate with untraced ones.  No set-up is timed.

`attempted` is the number of jobs in one pass and `failed` the number of
jobs that failed in any pass.  `correct` is false when a job fails in a way
that is not a known defect of the program, or when a job's output differs
between passes.  Inputs, reports and the full result go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import jobs
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# Set-up runs timed in fresh processes; setup_s is their median.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
KINDS = {"project": "project_s", "norm": "norm_s", "reproduce": "reproduce_s",
         "validate": "validate_s"}


def import_projnorm():
    src = ROOT / "src"
    if not (src / "projnorm" / "__init__.py").is_file():
        sys.exit(f"error: no projnorm sources under {src}")
    sys.path.insert(0, str(src))
    import projnorm
    import projnorm.cli

    if Path(projnorm.__file__).resolve().parent != src / "projnorm":
        sys.exit(f"error: imported projnorm from {projnorm.__file__}, not from {src}")
    return projnorm


def setup(pn, workload, seed, workdir):
    """Write the seeded inputs and run the warm-up job."""
    inputs = jobs.Inputs(str(workdir), seed)
    job_list = jobs.build(pn, workload, inputs)
    warmup = jobs.warmup_job(inputs)
    verdict = jobs.judge(warmup, jobs.execute(pn, warmup))
    return job_list, verdict


class SetupTimer:
    """Times set-ups, each in a fresh interpreter, spread over the measured window."""

    def __init__(self, args, count):
        self.cmd = [sys.executable, __file__, "--workload", args.workload,
                    "--seed", str(args.seed), "--setup-only"]
        self.count = count
        self.samples = []

    def catch_up(self, fraction):
        """Take the samples due once `fraction` of the window is measured.

        Returns the seconds they took.
        """
        due = min(self.count, 1 + int(fraction * self.count))
        start = perf_counter()
        while len(self.samples) < due:
            begin = perf_counter()
            proc = subprocess.run(self.cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=SETUP_TIMEOUT_S, cwd=ROOT)
            self.samples.append(perf_counter() - begin)
            if proc.returncode != 0:
                sys.exit(f"error: set-up failed: {proc.stderr.decode()[-2000:]}")
        return perf_counter() - start


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def environment(args, job_list):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, ValueError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": {job.name: job.size for job in job_list},
    }


def run_pass(pn, job_list, tracer=None, stop=lambda i: False):
    """Outcomes of the jobs in order, up to the first job i for which stop(i)."""
    if tracer is None:
        outcomes = []
        for i, job in enumerate(job_list):
            if stop(i):
                break
            outcomes.append(jobs.execute(pn, job))
        return outcomes
    outcomes = []
    with tracer.installed():
        for job in job_list:
            with tracer.span("job:" + job.name):
                outcomes.append(jobs.execute(pn, job))
    return outcomes


class Record:
    """Verdicts of every pass, and the first output of each job."""

    def __init__(self, job_list):
        self.job_list = job_list
        self.first = [None] * len(job_list)
        self.problems = [set() for _ in job_list]
        self.known = [set() for _ in job_list]
        self.max_rel_err = 0.0

    def add(self, outcomes):
        for i, (job, outcome) in enumerate(zip(self.job_list, outcomes)):
            verdict = jobs.judge(job, outcome)
            self.max_rel_err = max(self.max_rel_err, verdict.max_rel_err)
            self.problems[i].update(verdict.problems)
            if verdict.failed:
                self.known[i].add(verdict.known)  # None: not a known defect
            seen = jobs.fingerprint(outcome)
            if self.first[i] is None:
                self.first[i] = seen
            elif seen != self.first[i]:
                self.problems[i].add("output differs from the first pass")
                self.known[i].add(None)

    def failures(self):
        return {job.name: {"problems": sorted(self.problems[i]),
                           "known_defect": sorted(k for k in self.known[i] if k)}
                for i, job in enumerate(self.job_list) if self.problems[i]}

    def unexpected(self):
        return [job.name for i, job in enumerate(self.job_list) if None in self.known[i]]


def measure(pn, job_list, seconds, trace, setups=None):
    """Passes over the jobs for `seconds`, with set-ups timed in between.

    In trace mode untraced and traced passes alternate, and only whole passes
    run, while the next one is expected to end in time.  Otherwise the last
    pass stops at the first job that is not expected to end in time.
    """
    tracer = tracing.Tracer(pn) if trace else None
    record = Record(job_list)
    untraced, traced = [], []  # per pass: (job seconds, first span index)
    elapsed = []
    setup_s = 0.0  # spent timing set-ups, which moves the deadline
    start = perf_counter()

    def late(i):
        # only a pass after the first whole one is cut short
        if not untraced:
            return False
        expected = statistics.median(secs[i] for secs, _ in untraced if i < len(secs))
        return perf_counter() + expected > start + setup_s + seconds

    while True:
        if setups is not None:
            measured = perf_counter() - start - setup_s
            setup_s += setups.catch_up(measured / seconds if seconds > 0 else 1.0)
        begin = perf_counter()
        use_tracer = trace and len(untraced) > len(traced)
        first_span = len(tracer.spans) if use_tracer else None
        if trace:
            outcomes = run_pass(pn, job_list, tracer if use_tracer else None)
        else:
            outcomes = run_pass(pn, job_list, stop=late)
        if outcomes:
            (traced if use_tracer else untraced).append(([o.seconds for o in outcomes], first_span))
            record.add(outcomes)
        elapsed.append(perf_counter() - begin)
        if trace:
            done = (len(untraced) >= 1 and len(traced) >= 1
                    and perf_counter() + statistics.median(elapsed) > start + seconds)
        else:
            done = len(outcomes) < len(job_list)
        if done:
            if setups is not None:
                setups.catch_up(1.0)
            return record, untraced, traced, tracer


def kind_times(job_list, job_median_s):
    """Summed median job time of each job kind present."""
    out = {}
    for kind, metric in KINDS.items():
        names = [job.name for job in job_list if job.kind == kind]
        if names:
            out[metric] = sum(job_median_s[name] for name in names)
    return out


def layer_metrics(tracer, job_list, untraced, traced):
    firsts = [first for _, first in traced] + [len(tracer.spans)]
    per_pass = [tracing.summarize(tracer.spans[: firsts[k + 1]], firsts[k])
                for k in range(len(traced))]
    metrics = {}
    for name in tracing.FUNCTIONS:
        metrics[f"{name}.calls"] = (per_pass[0][0][name], "count")
        metrics[f"{name}.self_s"] = (statistics.median(p[1][name] for p in per_pass), "s")
    # call counts inside each job of the first traced pass
    first, end = firsts[0], firsts[1]
    below = tracing.calls_by_root(tracer.spans[:end], first)
    roots = [i for i in range(first, end) if tracer.spans[i][3] < first]
    inside = dict(zip((job.name for job in job_list), (below[r] for r in roots)))
    projects = [inside[j.name] for j in job_list
                if j.kind == "project" and inside[j.name]["cli.cmd_project"]]
    norms_2d = [inside[j.name] for j in job_list if j.kind == "norm" and j.size["dim"] == 2]

    def mean_calls(name, counters):
        return statistics.fmean(c[name] for c in counters) if counters else 0.0

    metrics["projection.assemble_mass.calls_per_job"] = (
        mean_calls("projection.assemble_mass", projects + norms_2d), "calls/job")
    metrics["projection.exact_operator_norm.calls_per_norm_job"] = (
        mean_calls("projection.exact_operator_norm", norms_2d), "calls/job")
    metrics["projection.problem.n_max"] = (max(j.size["vertices"] for j in job_list), "count")
    metrics["projection.problem.nnz_max"] = (max(j.size["nnz"] for j in job_list), "count")
    metrics["trace.overhead_s"] = (
        statistics.median(sum(s) for s, _ in traced) - statistics.median(sum(s) for s, _ in untraced),
        "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pn = import_projnorm()
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_only:
            setup(pn, args.workload, args.seed, workdir)
            return 0
        setups = None if args.trace else SetupTimer(args, SETUP_SAMPLES)
        job_list, warmup = setup(pn, args.workload, args.seed, workdir)
        record, untraced, traced, tracer = measure(pn, job_list, args.seconds, args.trace, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_samples = setups.samples if setups else []
    walls = [sum(secs) for secs, _ in untraced if len(secs) == len(job_list)]
    job_median_s = {job.name: statistics.median(secs[i] for secs, _ in untraced if i < len(secs))
                    for i, job in enumerate(job_list)}
    failures = record.failures()
    unexpected = record.unexpected() + ([] if not warmup.failed else ["warmup"])
    if args.trace:
        metrics = layer_metrics(tracer, job_list, untraced, traced)
        metrics["check.max_rel_err"] = (record.max_rel_err, "ratio")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            # one pass made of each job's median time, which discards a job
            # slowed in one pass by a burst of load from outside
            "wall_s": (sum(job_median_s.values()), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    detail = {
        "environment": environment(args, job_list),
        "setup_samples_s": setup_samples,
        "pass_walls_s": walls,
        "kind_s": kind_times(job_list, job_median_s),
        "job_median_s": job_median_s,
        "job_seconds": [secs for secs, _ in untraced],
        "ops": len(job_list),
        "ops_failed": len(failures),
        "failures": failures,
        "unexpected_failures": unexpected,
        "known_defects": jobs.KNOWN_DEFECTS,
        "check_max_rel_err": record.max_rel_err,
    }
    if tracer is not None:
        detail["trace_skipped"] = tracer.skipped
        detail["trace_bindings"] = dict(tracer.bindings)
        detail["traced_pass_walls_s"] = [sum(secs) for secs, _ in traced]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1, default=str) + "\n")
    if tracer is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(tracer.spans) + "\n")

    print(f"environment: {json.dumps(detail['environment'], default=str)[:2000]}")
    print(f"passes: {len(untraced)} untraced ({len(walls)} whole), {len(traced)} traced")
    for name, value in detail["kind_s"].items():
        print(f"{name}: {value:.4f} s")
    print(f"ops: {detail['ops']}  ops_failed: {detail['ops_failed']}")
    for name, failure in failures.items():
        print(f"failed: {name}: {failure['known_defect'] or 'UNEXPECTED'}: {failure['problems'][0].splitlines()[-1][:200]}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(job_list),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
