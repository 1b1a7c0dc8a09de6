"""sgpd benchmark: time-to-verdict on three desk workloads.

    python3 perfbench/run.py --workload markov-tight --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``, nothing is installed.  Set-up (a fresh import of ``sgpd`` plus
generating and writing the inputs) is repeated SETUP_REPEATS times and its
median reported.  Then whole passes over the workload's jobs run, each
started only if it is expected to end within ``--seconds`` (at least one
runs); every job of every pass is checked.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and it reports the
per-layer metrics.  Lines before it are a human-readable summary.  Inputs
live in ``.perfbench_work/<pid>/``, which is removed on exit.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
COVERAGE_FLOOR = 0.9

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_sgpd():
    """Import sgpd afresh from the checkout's src/ (dropping any copy
    already imported) and return its cli module."""
    for name in [n for n in sys.modules if n == "sgpd" or n.startswith("sgpd.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    sgpd = importlib.import_module("sgpd")
    if Path(sgpd.__file__).resolve().parent != SRC / "sgpd":
        fail_setup(f"imported sgpd from {sgpd.__file__}, not from {SRC}")
    return importlib.import_module("sgpd.cli")


def set_up(workload: str, seed: int, reduced: bool):
    """Repeat set-up into one work directory; later repeats overwrite the
    files of earlier ones.  Set-up time swings with the file system's write
    latency, so its median over the repeats is reported.  Returns (median
    set-up seconds, Workload, work directory, cli module)."""
    if not (SRC / "sgpd" / "__init__.py").is_file():
        fail_setup(f"no program source at {SRC / 'sgpd'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    times = []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            cli = import_sgpd()
            built = wl.WORKLOADS[workload](work, seed, reduced)
            times.append(perf_counter() - t0)
    except BaseException:
        remove_work(work)
        raise
    return statistics.median(times), built, work, cli


def remove_work(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    if not any(work.parent.iterdir()):
        work.parent.rmdir()


def run_job(job: wl.Job, cli):
    """Run one job; returns (seconds, exit code, digest, error or None)."""
    try:
        t0 = perf_counter()
        if job.call is not None:
            code, out = job.call()
        else:
            code, out = cli.run(job.argv)
        seconds = perf_counter() - t0
        digest = hashlib.sha256(out.encode())
        for path in job.outputs:
            digest.update(Path(path).read_bytes())
    except Exception:  # a traceback or a missing output file is a failed job
        return 0.0, -1, "", traceback.format_exc(limit=3)
    error = None
    if code not in (0, 1):
        error = f"exit code {code}"
    else:
        try:
            error = job.check(code, out)
        except (ValueError, KeyError, IndexError) as exc:
            error = f"unreadable output: {exc!r}"
    return seconds, code, digest.hexdigest()[:16], error


def run_pass(workload: wl.Workload, cli, tracer: Tracer | None = None):
    """One closed-loop pass over every job.  Returns (wall seconds,
    [(job, seconds, code, digest, error)])."""
    gc.collect()
    results = []
    t0 = perf_counter()
    for job in workload.jobs:
        if tracer is not None:
            tracer.start_job(job.kind)
        results.append((job, *run_job(job, cli)))
        if tracer is not None:
            tracer.end_job()
    return perf_counter() - t0, results


def load_pins(workload: wl.Workload, seed: int, reduced: bool) -> dict:
    if reduced or not (seed == wl.DEFAULT_SEED or workload.pins_any_seed):
        return {}
    pins = json.loads((HERE / "pins.json").read_text())
    return pins[workload.name]


class Verdicts:
    """Counts attempted and failed jobs.  A job fails on a wrong exit
    code, a failed output check, a traceback, a digest other than its pin,
    or a digest that differs from the same job's first pass."""

    def __init__(self, pins: dict):
        self.pins = pins
        self.first: dict[str, tuple[int, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, results) -> None:
        for job, _, code, digest, error in results:
            self.attempted += 1
            seen = self.first.setdefault(job.name, (code, digest))
            pin = self.pins.get(job.name)
            if error is None and pin is not None and [code, digest] != pin:
                error = f"exit {code} digest {digest}, pinned {pin[0]} {pin[1]}"
            if error is None and seen != (code, digest):
                error = f"exit {code} digest {digest} differs from the first pass {seen}"
            if error is not None:
                self.failed += 1
                if len(self.errors) < 10:
                    self.errors.append(f"{job.name}: {error}")


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(setup_s, walls, per_job) -> dict:
    """Job percentiles are taken over the workload's job mix, each job
    represented by its median over the passes."""
    job_medians = sorted(statistics.median(secs) for secs in per_job.values())
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "job_p50_ms": (1000 * nearest_rank(job_medians, 0.50), "ms"),
        "job_p95_ms": (1000 * nearest_rank(job_medians, 0.95), "ms"),
    }


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            reduced: bool = False):
    """Set up, run passes for `seconds`, check every job.  Returns
    (metrics {name: (value, unit)}, attempted, failed, correct, summary lines)."""
    setup_s, workload, work, cli = set_up(workload_name, seed, reduced)
    verdicts = Verdicts(load_pins(workload, seed, reduced))
    lines = [f"workload {workload_name} seed {seed}: {len(workload.jobs)} jobs per pass, "
             f"set-up {setup_s:.3f} s (median of {SETUP_REPEATS})"]
    walls, traced_walls, tracers = [], [], []
    per_job: dict[str, list[float]] = {}
    cwd = os.getcwd()
    os.chdir(work)
    try:
        # start another pass (or untraced+traced pair) only while it fits
        # in `seconds`, judging by the last one; at least one always runs
        start = perf_counter()
        while True:
            t0 = perf_counter()
            wall, results = run_pass(workload, cli)
            verdicts.record(results)
            walls.append(wall)
            for job, sec, *_ in results:
                per_job.setdefault(job.name, []).append(sec)
            if trace:
                tracer = Tracer()
                with tracer:
                    wall, results = run_pass(workload, cli, tracer)
                verdicts.record(results)  # also compares traced digests to untraced
                traced_walls.append(wall)
                tracers.append(tracer)
            now = perf_counter()
            if now - start + (now - t0) > seconds:
                break
    finally:
        os.chdir(cwd)
        remove_work(work)

    lines.append(f"{len(walls)} untraced passes, wall s: "
                 + " ".join(f"{w:.3f}" for w in walls))
    beyond = len(per_job) - math.ceil(0.95 * len(per_job))
    lines.append(f"job percentiles over {len(per_job)} jobs ({beyond} beyond p95), "
                 "each its median over passes")
    if len(per_job) <= 8:
        for name, secs in per_job.items():
            lines.append(f"  job.{name}: median {statistics.median(secs):.4f} s over {len(secs)}")
    correct = verdicts.failed == 0
    if trace:
        metrics = per_layer(tracers, traced_walls, walls, lines)
        coverage = metrics["trace.coverage"][0]
        if coverage < COVERAGE_FLOOR:
            lines.append(f"trace coverage {coverage:.3f} is below {COVERAGE_FLOOR}")
            correct = False
    else:
        metrics = end_to_end(setup_s, walls, per_job)
    ratio = verdicts.failed / verdicts.attempted
    lines.append(f"attempted {verdicts.attempted}, failed {verdicts.failed}, "
                 f"failed_ratio {ratio:.4f}")
    lines.extend(f"  FAIL {e}" for e in verdicts.errors)
    return metrics, verdicts.attempted, verdicts.failed, correct, lines


def per_layer(tracers, traced_walls, walls, lines) -> dict:
    """Per-layer metrics of each traced pass; the median over passes."""
    passes = []
    for tracer, wall in zip(tracers, traced_walls):
        values = tracer.metrics()
        values["trace.coverage"] = (
            tracer.layer_self_total() / (wall - tracer.count_s), "ratio")
        passes.append(values)
    metrics = {
        name: (statistics.median(p[name][0] for p in passes), unit)
        for name, (_, unit) in passes[0].items()
    }
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(walls), "ratio")
    tracer = tracers[0]
    if len(tracer.by_kind) <= 8:  # one line per job kind
        for kind, aggs in tracer.by_kind.items():
            lines.append(f"  trace {kind}: " + "; ".join(
                f"{name} calls={a.calls} self={a.self_s:.4f}s"
                + "".join(f" {k}={v}" for k, v in a.counts.items())
                for name, a in sorted(aggs.items(), key=lambda kv: -kv[1].self_s)))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    metrics, attempted, failed, correct, lines = measure(
        args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
