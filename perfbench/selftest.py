"""Fast self-test of the benchmark itself (not of sgpd):

    python3 perfbench/selftest.py

Runs each workload once on reduced inputs, untraced and traced, and checks
that every metric BENCHMARK.json names is emitted with its unit, that no
job failed, and that the traced run covers its wall time.  Then checks
that run.py refuses to run, with a non-zero exit and no result line, in a
directory holding only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads as wl


def check_workload(name: str, spec: dict) -> list[str]:
    problems = []
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        metrics, attempted, failed, correct, lines = run.measure(
            name, wl.DEFAULT_SEED, seconds=0, trace=trace, reduced=True)
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {n: unit for n, (_, unit) in metrics.items()}
        if got != want:
            problems.append(f"{name} {key}: emitted {sorted(got.items() - want.items())}, "
                            f"missing {sorted(want.items() - got.items())}")
        if failed or not correct or attempted == 0:
            problems.append(f"{name} trace={int(trace)}: failed_ratio "
                            f"{failed}/{attempted}, correct={correct}\n" + "\n".join(lines))
    return problems


def check_refuses_without_program() -> list[str]:
    bare = run.ROOT / ".perfbench_work" / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", next(iter(wl.WORKLOADS)),
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        run.remove_work(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"run.py without the program: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    problems = [] if names == list(wl.WORKLOADS) else [f"workloads {names} != {list(wl.WORKLOADS)}"]
    for name in names:
        problems += check_workload(name, spec)
    problems += check_refuses_without_program()
    print("\n".join(problems) or f"selftest ok: {', '.join(names)}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
