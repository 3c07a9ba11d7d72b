"""Benchmark entry point: one workload, measured end to end or traced layer by layer.

    python3 perfbench/run.py --workload analyze_chsh_ns --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Every command runs in a fresh child process with one
BLAS/OpenMP thread and a fixed ``PYTHONHASHSEED``, so at most two processes
(this one, waiting, and the child) are alive.  Inputs are written and the
page cache warmed before timing starts.

With ``--trace 0`` the run times one untimed warm-up, then the one-block
command ``SETUP_REPS`` times (``setup_s``), then repeats the full command until
``--seconds`` have passed and at least ``MIN_REPS`` repeats have run.  Each
end-to-end metric is the median over those repeats; CPU time and peak RSS come
from the child's own rusage.  With ``--trace 1`` it alternates untraced and
traced full commands for ``--seconds`` and reports the per-layer metrics of
the traced ones (median over repeats) and the tracing overhead.  Outputs are
checked after timing ends.  The last line of standard output is the result
as one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import traced
from workloads import WORKLOADS

SETUP_REPS = 9
MIN_REPS = 3
# A run must end within 180 s; no child runs past this point.
DEADLINE_S = 165.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    stdout: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Runs one child command at a time and reads its wall time and rusage."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.samples: list[Sample] = []

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline

    def run(self, entry: str, args: list[str], spans: Path | None = None) -> Sample:
        if spans is not None:
            argv = [sys.executable, str(BENCH_DIR / "traced.py"), "--spans", str(spans), entry, "--", *args]
        elif entry == "cli":
            argv = [sys.executable, "-m", "bellcert.cli", *args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "validity_driver.py"), *args]
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        sample = Sample(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            code=proc.returncode,
            stdout=out_path.read_text(encoding="utf-8"),
        )
        if sample.code != 0:
            print(f"{argv[1:3]} exited {sample.code}: {err_path.read_text(encoding='utf-8')[-2000:]}", file=sys.stderr)
        self.samples.append(sample)
        return sample


def check_outputs(workload, runs: list[Sample]) -> bool:
    """Every successful full run printed the same thing, and the last one checks out."""
    ok_runs = [s for s in runs if s.code == 0]
    if not ok_runs:
        return False
    if any(s.stdout != ok_runs[0].stdout for s in ok_runs):
        print("check failed: repeats printed different results", file=sys.stderr)
        return False
    if runs[-1].code != 0:
        print("check skipped: the last run failed", file=sys.stderr)
        return False
    try:
        workload.check(runs[-1].stdout)
    except (checks.CheckFailed, LookupError, ValueError, OSError) as exc:
        print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return False
    return True


def _walls(samples: list[Sample]) -> list[float]:
    return [round(s.wall_s, 3) for s in samples]


def measure(workload, runner: Runner, seconds: float) -> tuple[bool, dict[str, float]]:
    runner.run(*workload.command(setup=True))
    setup = [runner.run(*workload.command(setup=True)) for _ in range(SETUP_REPS)]
    timed: list[Sample] = []
    start = time.monotonic()
    while (len(timed) < MIN_REPS or time.monotonic() - start < seconds) and not runner.expired():
        workload.clear()
        timed.append(runner.run(*workload.command(setup=False)))
    print(f"setup walls {_walls(setup)}; timed walls {_walls(timed)}", file=sys.stderr)
    correct = check_outputs(workload, timed) and len({s.stdout for s in setup}) == 1
    metrics = {
        "wall_s": statistics.median(s.wall_s for s in timed),
        "cpu_s": statistics.median(s.cpu_s for s in timed),
        "setup_s": statistics.median(s.wall_s for s in setup),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in timed),
    }
    return correct, metrics


def trace(workload, runner: Runner, seconds: float) -> tuple[bool, dict[str, float]]:
    runner.run(*workload.command(setup=True))
    plain: list[Sample] = []
    traced_runs: list[Sample] = []
    full: list[Sample] = []
    per_run: list[dict[str, float]] = []
    start = time.monotonic()
    while (not traced_runs or time.monotonic() - start < seconds) and not runner.expired():
        spans_file = runner.work / f"spans_{len(traced_runs)}.json"
        # alternate which side runs first, so a drift in host speed hits both alike
        order = (False, True) if len(traced_runs) % 2 == 0 else (True, False)
        for with_spans in order:
            workload.clear()
            sample = runner.run(*workload.command(setup=False), spans=spans_file if with_spans else None)
            (traced_runs if with_spans else plain).append(sample)
            full.append(sample)
        if traced_runs[-1].code == 0:
            record = json.loads(spans_file.read_text(encoding="utf-8"))
            per_run.append(traced.layer_metrics(record["spans"], record["missing"]))
    print(f"untraced walls {_walls(plain)}; traced walls {_walls(traced_runs)}", file=sys.stderr)
    correct = check_outputs(workload, full)
    metrics = {name: 0.0 for name in traced.METRIC_UNITS}
    for name in metrics:
        values = [m[name] for m in per_run if name in m]
        if not values:
            continue
        if traced.METRIC_UNITS[name] == "s":
            metrics[name] = statistics.median(values)
        elif len(set(values)) == 1:
            metrics[name] = values[0]
        else:
            print(f"check failed: count {name} differs between traced runs: {values}", file=sys.stderr)
            correct = False
    metrics["trace.overhead_s"] = statistics.median(s.wall_s for s in traced_runs) - statistics.median(
        s.wall_s for s in plain
    )
    return correct and bool(per_run), metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "bellcert" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}; run from a bellcert checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        runner = Runner(work, deadline)
        correct, values = (trace if args.trace else measure)(workload, runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    units = traced.METRIC_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": correct,
        "attempted": len(runner.samples),
        "failed": sum(1 for s in runner.samples if s.code != 0),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
