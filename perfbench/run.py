"""End-to-end and per-layer benchmark of the torickit CLI.

Run from the root of a torickit checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

gen.py writes the workload's seeded job list and input documents into
perfbench/_out/NAME/. The job list is then replayed in passes, one job at a
time (a closed loop with one client). A further pass starts only while one
as long as the longest so far would end within S seconds.

--trace 0 makes at least two passes and runs every job as a fresh
`python -m torickit.cli ...` process with PYTHONPATH=src, import included.
A job's time is the fastest of its passes. It reports the end-to-end
metrics: jobs_per_s (jobs over the sum of their times), job_p50_ms (median
job time), job_tail_ms (the highest whole percentile of job time with at
least ten jobs beyond it), peak_rss_mb (largest max-RSS of a job process)
and setup_s (median wall time of fresh processes that only
`import torickit.cli`).

--trace 1 makes at least one pass in this process through
`torickit.cli.main(argv)`, running each job once untraced and once traced
by tracing.py, and reports calls and self time per traced function plus a
few derived ratios.

Every answer is checked against the answer its construction implies
(check.py). A job fails on a wrong exit code or answer, a crash, a timeout
(JOB_TIMEOUT_S, far above the slowest job) or stdout that differs from an
earlier run of the same job on the same code; the digests of earlier runs
are kept in perfbench/_out/digests/. The last line of stdout is the result
object; a run record with the environment, sample counts and failures by
name goes to perfbench/_out/NAME/record-traceT.json.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout

import check
import tracing

ROOT = os.getcwd()
SRC = "src"
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "_out")
WORKLOADS = ("analyze_census", "stability_sweep", "membership")

MIN_PASSES = 2
SETUP_REPEATS = 10
JOB_TIMEOUT_S = 30.0
RUN_LIMIT_S = 140.0  # no job starts after this; the run must end within 180 s

# A fixed, stdlib-only program that, like a job, mostly pays for starting
# an interpreter and importing modules. It runs before the first set-up
# probe, after every set-up probe and after every second job. Each timed
# wall is divided by the mean of the two reference walls around it and
# multiplied by REFERENCE_S, so every time is reported in units in which the
# reference takes REFERENCE_S seconds, about its wall time on an idle 2-vCPU
# VM.
REFERENCE = (
    "import argparse, fractions, itertools, json\n"
    "total = fractions.Fraction(0)\n"
    "for i in range(1, 2500):\n"
    "    total += fractions.Fraction(i % 7 + 1, i % 97 + 1)\n"
    "json.dumps([list(p) for p in itertools.permutations(range(7))])\n"
)
REFERENCE_S = 0.07


class JobTimeout(Exception):
    pass


def run_process(argv: list[str], env: dict, capture: str, timeout: float):
    """Run one process to completion: (wall_s, max_rss_kb, exit, stdout, timed_out)."""
    with open(capture, "w+b") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, env=env)
        lock = threading.Lock()
        state = {"exited": False, "timed_out": False}

        def expire():
            with lock:
                if not state["exited"]:
                    state["timed_out"] = True
                    proc.kill()

        timer = threading.Timer(timeout, expire)
        timer.start()
        # Wait without reaping, so the timer can never signal a reused pid.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        with lock:
            state["exited"] = True
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.join()
        out.seek(0)
        stdout = out.read()
    return wall, usage.ru_maxrss, proc.returncode, stdout, state["timed_out"]


def code_digest() -> str:
    """Hash of the library sources and the input generator."""
    h = hashlib.sha256()
    paths = [os.path.join(HERE, "gen.py")]
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        paths += [os.path.join(base, f) for f in sorted(files) if not f.endswith(".pyc")]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            h.update(hashlib.sha256(handle.read()).digest())
    return h.hexdigest()


def git_revision() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


class Ledger:
    """Outcome of every job attempt: checks, digests and failures."""

    def __init__(self, digest_path: str):
        self.digest_path = digest_path
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[dict] = []
        self.first_body: dict[str, tuple[dict, dict]] = {}

    def record(self, job: dict, exit_code: int, stdout: bytes, reason: str | None) -> None:
        self.attempted += 1
        if reason is None:
            reason = check.check(job["expect"], exit_code, stdout)
        if reason is None:
            self.first_body.setdefault(job["kind"], (job["expect"], json.loads(stdout)))
            digest = hashlib.sha256(stdout).hexdigest()
            if self.digests.setdefault(job["name"], digest) != digest:
                reason = "stdout differs between passes"
        if reason is not None:
            self.failures.append({"job": job["name"], "reason": reason})

    def compare_with_earlier_runs(self) -> None:
        """Fail jobs whose stdout differs from an earlier run of this code and seed."""
        if os.path.exists(self.digest_path):
            with open(self.digest_path, encoding="utf-8") as handle:
                earlier = json.load(handle)
            for name, digest in sorted(self.digests.items()):
                if name in earlier and earlier[name] != digest:
                    self.failures.append({"job": name, "reason": "stdout differs from an earlier run"})
            earlier.update(self.digests)
        else:
            earlier = self.digests
        os.makedirs(os.path.dirname(self.digest_path), exist_ok=True)
        with open(self.digest_path, "w", encoding="utf-8") as handle:
            json.dump(earlier, handle, sort_keys=True, indent=0)

    def tamper_check(self) -> dict[str, bool]:
        """Per job kind: does the checker reject a tampered correct answer?"""
        return {
            kind: check.check_body(expect, check.tamper(expect, body)) is not None
            for kind, (expect, body) in sorted(self.first_body.items())
        }


def tail(values: list[float]) -> tuple[int, float]:
    """(percentile, value): the highest whole percentile with at least ten
    values beyond it, by nearest rank."""
    ordered = sorted(values)
    n = len(ordered)
    p = max(50, 100 * (n - 10) // n)
    return p, ordered[-(-p * n // 100) - 1]


class Calibration:
    """Reference walls by time, and the scaling of other walls by them."""

    def __init__(self, argv: list[str], env: dict, capture: str):
        self.run = lambda: run_process(argv, env, capture, JOB_TIMEOUT_S)
        self.times: list[float] = []
        self.walls: list[float] = []

    def measure(self) -> None:
        start = time.perf_counter()
        wall, _, code, _, _ = self.run()
        if code != 0:
            raise SystemExit("perfbench: the reference program failed")
        self.times.append(start + wall / 2)
        self.walls.append(wall)

    def scale(self, at: float, wall: float) -> float:
        """`wall`, taken at time `at`, over the reference walls just before and after it."""
        index = bisect.bisect_left(self.times, at)
        return wall * REFERENCE_S / statistics.fmean(self.walls[max(0, index - 1) : index + 1])


def timed_run(jobs, args, ledger, workdir, deadline):
    env = dict(os.environ, PYTHONPATH=SRC)
    capture = os.path.join(workdir, "stdout.tmp")
    python = sys.executable
    calibration = Calibration([python, "-c", REFERENCE], env, capture)

    def timed(argv: list[str], timeout: float):
        start = time.perf_counter()
        result = run_process(argv, env, capture, timeout)
        return (start + result[0] / 2,) + result

    def measure_setup(count: int) -> None:
        for _ in range(count):
            at, wall, _, code, _, _ = timed([python, "-c", "import torickit.cli"], JOB_TIMEOUT_S)
            if code != 0:
                raise SystemExit("perfbench: `import torickit.cli` failed")
            setup.append((at, wall))
            calibration.measure()

    # Half the set-up samples before the passes and half after, so that
    # their median spans the run.
    setup: list[tuple[float, float]] = []
    calibration.measure()
    measure_setup(SETUP_REPEATS // 2)
    rss, pass_walls, timed_out = [], [], set()
    per_job: dict[str, list[tuple[float, float]]] = {job["name"]: [] for job in jobs}
    begin = time.perf_counter()
    # Another pass starts only if one as long as the longest so far still
    # ends within --seconds.
    while len(pass_walls) < MIN_PASSES or time.perf_counter() - begin + max(pass_walls) <= args.seconds:
        pass_start = time.perf_counter()
        for number, job in enumerate(jobs):
            remaining = deadline - time.perf_counter()
            if job["name"] in timed_out or remaining <= 0:
                ledger.record(job, -1, b"", "not run: timed out earlier" if remaining > 0 else "not run: run deadline")
                continue
            argv = [python, "-m", "torickit.cli"] + job["argv"]
            at, wall, max_rss, code, stdout, expired = timed(argv, min(JOB_TIMEOUT_S, remaining + 5))
            if expired:
                timed_out.add(job["name"])
                ledger.record(job, code, stdout, f"timeout after {wall:.1f} s")
                continue
            per_job[job["name"]].append((at, wall))
            rss.append(max_rss)
            ledger.record(job, code, stdout, None)
            if number % 2:
                calibration.measure()
        pass_walls.append(time.perf_counter() - pass_start)
        if time.perf_counter() > deadline:
            break

    measure_setup(SETUP_REPEATS - SETUP_REPEATS // 2)

    # This host's speed for fresh processes moves by up to half in phases
    # lasting from seconds to minutes, in step with the reference; within a
    # run, a job's time is the fastest of its passes.
    best = [min(calibration.scale(at, wall) for at, wall in samples) for samples in per_job.values() if samples]
    raw_best = [min(wall for _, wall in samples) for samples in per_job.values() if samples]
    percentile, tail_s = tail(best) if best else (0, 0.0)
    metrics = {
        "jobs_per_s": (len(best) / sum(best) if best else 0.0, "1/s"),
        "job_p50_ms": (statistics.median(best) * 1000 if best else 0.0, "ms"),
        "job_tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (max(rss, default=0) / 1024, "MB"),
        "setup_s": (statistics.median(calibration.scale(at, wall) for at, wall in setup), "s"),
    }
    details = {
        "passes": len(pass_walls),
        "pass_walls_s": pass_walls,
        "job_samples": sum(len(samples) for samples in per_job.values()),
        "jobs_timed": len(best),
        "job_tail_percentile": percentile,
        "uncalibrated": {
            "jobs_per_s": len(raw_best) / sum(raw_best) if raw_best else 0.0,
            "job_p50_ms": statistics.median(raw_best) * 1000 if raw_best else 0.0,
            "job_tail_ms": tail(raw_best)[1] * 1000 if raw_best else 0.0,
            "setup_s": statistics.median(wall for _, wall in setup),
        },
        # [seconds from the first pass to the middle of the process, wall seconds]
        "samples": {
            "reference": [[at - begin, wall] for at, wall in zip(calibration.times, calibration.walls)],
            "setup": [[at - begin, wall] for at, wall in setup],
            "jobs": {name: [[at - begin, wall] for at, wall in samples] for name, samples in per_job.items()},
        },
    }
    return metrics, details


def _expire(signum, frame):
    raise JobTimeout()


def traced_run(jobs, args, ledger, workdir, deadline):
    sys.path.insert(0, os.path.join(ROOT, SRC))
    import torickit  # noqa: F401  (loads every module the tracer patches)
    import torickit.cli

    tracer = tracing.Tracer()
    walls = {False: 0.0, True: 0.0}
    timed_out = set()
    signal.signal(signal.SIGALRM, _expire)
    begin = time.perf_counter()
    passes = 0
    longest = 0.0
    while passes < 1 or time.perf_counter() - begin + longest <= args.seconds:
        pass_start = time.perf_counter()
        for number, job in enumerate(jobs):
            # Each job runs untraced and traced, in alternating order, so
            # drift in machine speed cancels out of the overhead ratio.
            for traced in (number % 2 == 1, number % 2 == 0):
                remaining = deadline - time.perf_counter()
                if job["name"] in timed_out or remaining <= 0:
                    reason = "not run: timed out earlier" if remaining > 0 else "not run: run deadline"
                    ledger.record(job, -1, b"", reason)
                    continue
                if traced:
                    tracer.current_job += 1
                    tracer.install()
                buffer = io.StringIO()
                reason, code = None, -1
                signal.setitimer(signal.ITIMER_REAL, min(JOB_TIMEOUT_S, remaining + 5))
                start = time.perf_counter()
                try:
                    with redirect_stdout(buffer):
                        code = torickit.cli.main(job["argv"])
                except JobTimeout:
                    timed_out.add(job["name"])
                    reason = "timeout"
                except Exception as exc:  # a crash fails the job, the run goes on
                    reason = f"crash: {exc!r}"[:200]
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    walls[traced] += time.perf_counter() - start
                    tracer.uninstall()
                ledger.record(job, code, buffer.getvalue().encode(), reason)
        passes += 1
        longest = max(longest, time.perf_counter() - pass_start)
        if time.perf_counter() > deadline:
            break

    overhead = walls[True] / walls[False] if walls[False] else 0.0
    metrics = tracing.layer_metrics(tracer, passes, len(jobs), overhead)
    tracer.write_spans(os.path.join(workdir, "spans.tsv"))
    details = {
        "passes": passes,
        "untraced_wall_s": walls[False],
        "traced_wall_s": walls[True],
        "spans": len(tracer.fn),
        "trace_overhead_ratio": overhead,
    }
    return metrics, details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, SRC, "torickit", "cli.py")):
        print("perfbench: run from the root of a torickit checkout; src/torickit is missing", file=sys.stderr)
        return 2

    workdir = os.path.join(OUT, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "gen.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--out", workdir],
        env=dict(os.environ, PYTHONPATH=SRC),
        check=True,
        timeout=60,
    )
    with open(os.path.join(workdir, "jobs.json"), encoding="utf-8") as handle:
        jobs = json.load(handle)["jobs"]

    code = code_digest()
    ledger = Ledger(os.path.join(OUT, "digests", f"{code[:16]}-{args.workload}-{args.seed}.json"))
    run = traced_run if args.trace else timed_run
    metrics, details = run(jobs, args, ledger, workdir, deadline)
    ledger.compare_with_earlier_runs()
    tamper = ledger.tamper_check()

    failed = len(ledger.failures)
    correct = failed == 0 and bool(tamper) and all(tamper.values())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "code_sha256": code,
        "jobs_per_pass": len(jobs),
        "attempted": ledger.attempted,
        "failed": failed,
        "failed_ratio": failed / max(1, ledger.attempted),
        "failures": ledger.failures,
        "tamper_caught": tamper,
        "wall_s": time.perf_counter() - started,
        **details,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    with open(os.path.join(workdir, f"record-trace{args.trace}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for failure in ledger.failures[:20]:
        print(f"FAILED {failure['job']}: {failure['reason']}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
