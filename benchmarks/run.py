"""End-to-end and per-layer benchmark of the decolab command line.

    python3 benchmarks/run.py --workload negativity_sweep --seed 1 --seconds 10 --trace 0

One client drives `decolab.cli.main` in-process as a closed loop: each job (a
`sweep` or `diff-formulas` run on a generated run file, or one `teleport`
call) starts when the previous one has finished and its output has been
checked against the independent reference (reference.py) outside the timed
region. Jobs come from the seeded streams in workloads.py; a run measures
whole cycles of its workload until `--seconds` of job time have passed, so
every run sees the same mix of work.

With `--trace 0` the run reports the end-to-end metrics: points finished per
second of job time, the median and tail job time, set-up time (the median over
fresh interpreters that import decolab, generate the first cycle of inputs and
run the warm-up jobs) and peak resident memory. With `--trace 1` it measures
untraced for `--seconds`, then runs a fixed number of cycles with every layer
wrapped (tracing.py), then the same cycles again untraced, and reports
per-layer calls and self time, plus traced over untraced points per second on
those same jobs. The negativity and fidelity workloads
also re-run the frozen copies of the shipped run files that exercise the same
layers (frozen/) and compare their CSVs at 1e-12.

Readable lines come first; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# One core's worth of BLAS, and decolab's own thread option unset, before numpy loads.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("DECOLAB_THREADS", None)

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads
from workloads import CSV, RUNFILE, SVG, TIMED, TRACED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FROZEN = HERE / "frozen"

# Fresh interpreters timed per run: half before the timed phase and half after,
# so that set-up time is sampled across the run, not in one moment of it.
SETUP_PROBES = 6
TAIL_LEVELS = (99.9, 99, 95, 90, 75, 50)
MIN_BEYOND = 10
# Traced cycles per workload: a few seconds of work at the time of writing.
TRACE_CYCLES = {"teleport_point": 25}
# Each frozen run file is re-run by the workload that exercises the same layers.
FROZEN_RUNFILES = {"negativity_sweep": "negativity_*.ini", "fidelity_sweep": "fidelity_*.ini"}
MAX_REPORTED_FAILURES = 5


def load_decolab():
    """Import decolab from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import decolab.cli
    except ImportError as exc:
        sys.exit(f"cannot import decolab from {SRC}: {exc}")
    if Path(decolab.__file__).resolve().parent.parent != SRC:
        sys.exit(f"decolab was imported from {decolab.__file__}, not from {SRC}")
    return decolab


@dataclass
class Phase:
    """Job times and requested points of one measured loop of whole cycles."""

    cycle_length: int
    times: list[float] = field(default_factory=list)
    points: list[int] = field(default_factory=list)

    @property
    def points_per_s(self) -> float:
        """Median over cycles of points per second of job time; each cycle is the same mix."""
        n = self.cycle_length
        return statistics.median(
            sum(self.points[i : i + n]) / sum(self.times[i : i + n])
            for i in range(0, len(self.times), n)
        )


class Runner:
    """Runs jobs in the current directory and checks each against the reference."""

    def __init__(self, decolab, reference=None):
        self.cli = decolab.cli
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def run(self, job, check=True) -> float:
        """Run one job; return the seconds spent in `cli.main`. `check`: compare with the reference."""
        text = job.runfile_text()
        if text is not None:
            Path(RUNFILE).write_text(text)
        for name in (CSV, SVG):
            Path(name).unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        code, problems = None, []
        # The harness's own garbage is collected here, untimed, so that a job
        # pays only for the collections its own allocations trigger.
        gc.collect()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(job.argv())
        except SystemExit as exc:  # argparse rejecting the command line
            code = exc.code
        except Exception:  # a traceback is a failed job, never the end of the run
            problems = [traceback.format_exc()]
        finally:
            elapsed = time.perf_counter() - start
        if code not in (0, None):
            problems = [f"exit code {code}: {err.getvalue().strip()}"]
        elif check and not problems:
            try:
                problems = self.reference.check(job, out.getvalue(), Path.cwd())
            except (OSError, ValueError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"FAILED {job.argv()}: {problems[:3]}", file=sys.stderr)
        return elapsed

    def measure(self, workload, seed, stream, first=(), seconds=None, cycles=None) -> Phase:
        """Whole cycles of the stream, until `seconds` of job time or `cycles` cycles."""
        length = len(workloads.CYCLES[workload])
        phase = Phase(length)
        busy = 0.0
        index = 0
        while True:
            if index and index % length == 0:
                if cycles is not None and index // length >= cycles:
                    break
                if seconds is not None and busy >= seconds:
                    break
            if index < len(first):
                job = first[index]
            else:
                job = workloads.make_job(workload, seed, stream, index)
            elapsed = self.run(job)
            phase.times.append(elapsed)
            phase.points.append(job.points)
            busy += elapsed
            index += 1
        return phase

    def check_frozen(self, workload) -> list[str]:
        problems = []
        if workload not in FROZEN_RUNFILES:
            return problems
        for ini in sorted(FROZEN.glob(FROZEN_RUNFILES[workload])):
            csv_name = re.search(r"^csv\s*=\s*(\S+)", ini.read_text(), re.M).group(1)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = self.cli.main(["sweep", str(ini)])
            except Exception:
                code = traceback.format_exc()
            if code != 0:
                problems.append(f"{ini.name}: exit code {code}")
                continue
            problems += self.reference.compare_frozen(Path(csv_name), FROZEN / csv_name)
        return problems


@contextlib.contextmanager
def scratch_dir():
    """A fresh working directory inside the benchmark's own directory."""
    path = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(previous)
        shutil.rmtree(path, ignore_errors=True)


def prepare(runner, workload, seed, check=True) -> list:
    """Set-up: the first cycle of inputs, then the warm-up jobs."""
    first = [workloads.make_job(workload, seed, TIMED, i) for i in range(len(workloads.CYCLES[workload]))]
    # What set-up builds lives to the end of the run: keep it out of every collection.
    gc.freeze()
    for job in workloads.warmup_jobs(workload, seed):
        runner.run(job, check)
    gc.freeze()
    return first


def measure_setup(workload, seed, probes) -> list[float]:
    """Seconds from launching a fresh interpreter until it is ready for its first timed job."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
    cmd += ["--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(probes):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - start)
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            sys.exit(f"set-up probe exited with {child.returncode}")
    return samples


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest level with MIN_BEYOND beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    for level in TAIL_LEVELS:
        rank = math.ceil(level / 100 * n)
        if n - rank >= MIN_BEYOND or level == TAIL_LEVELS[-1]:
            return ordered[rank - 1], level, n - rank
    raise AssertionError("unreachable")


def git_hash() -> str | None:
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "decolab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git": git_hash(),
        "src_sha256": digest.hexdigest(),
        "DECOLAB_THREADS": os.environ.get("DECOLAB_THREADS"),
        **{var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    decolab = load_decolab()
    if args.setup_only:
        # The harness's reference check is not part of set-up time.
        with scratch_dir():
            prepare(Runner(decolab), args.workload, args.seed, check=False)
            print("ready", flush=True)
        return 0

    import reference  # needs decolab on the path

    setup = [] if args.trace else measure_setup(args.workload, args.seed, SETUP_PROBES // 2)
    runner = Runner(decolab, reference)
    with scratch_dir():
        first = prepare(runner, args.workload, args.seed)
        timed = runner.measure(args.workload, args.seed, TIMED, first, seconds=args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not args.trace:
            setup += measure_setup(args.workload, args.seed, SETUP_PROBES - SETUP_PROBES // 2)
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            cycles = TRACE_CYCLES.get(args.workload, 1)
            tracer.install()
            try:
                traced = runner.measure(args.workload, args.seed, TRACED, cycles=cycles)
            finally:
                tracer.uninstall()
            # The same jobs untraced, for the overhead; traced first, so no
            # cache the library keeps across calls favours the traced pass.
            untraced = runner.measure(args.workload, args.seed, TRACED, cycles=cycles)
        frozen_problems = runner.check_frozen(args.workload)

    for problem in frozen_problems:
        print(f"FROZEN MISMATCH {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    p50 = statistics.median(timed.times)
    tail_s, level, beyond = tail(timed.times)
    cycles = len(timed.times) // timed.cycle_length
    print(f"points_per_s {timed.points_per_s:.6g} 1/s (median of {cycles} cycles, "
          f"{sum(timed.points)} points in {sum(timed.times):.4g} s of job time)")
    print(f"job_s_p50 {p50:.6g} s ({len(timed.times)} jobs)")
    print(f"job_s_tail {tail_s:.6g} s (p{level:g} of {len(timed.times)} jobs, {beyond} beyond it)")
    if setup:
        print(f"setup_s {statistics.median(setup):.6g} s (median of {len(setup)} fresh interpreters)")
    print(f"peak_rss_mb {peak_rss_mb:.6g} MB")
    print(f"failed_frac {runner.failed / runner.attempted:.6g} ({runner.failed} of {runner.attempted} jobs)")
    frozen = FROZEN_RUNFILES.get(args.workload, "none")
    print(f"frozen run files ({frozen}): {len(frozen_problems)} mismatches at {reference.FROZEN_TOL:g}")

    if args.trace:
        metrics = tracer.metrics(sum(traced.points))
        ratio = traced.points_per_s / untraced.points_per_s
        metrics["trace.points_per_s_ratio"] = (ratio, "ratio")
        print(f"traced: {sum(traced.points)} points in {len(traced.times)} jobs, "
              f"{traced.points_per_s:.6g} points/s traced, {untraced.points_per_s:.6g} untraced; "
              f"traced minus untraced {traced.points_per_s - untraced.points_per_s:.6g} points/s, "
              f"ratio {ratio:.4g}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:50s} {value:14.6g} {unit}")
    else:
        metrics = {
            "points_per_s": (timed.points_per_s, "1/s"),
            "job_s_p50": (p50, "s"),
            "job_s_tail": (tail_s, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": runner.failed == 0 and not frozen_problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
