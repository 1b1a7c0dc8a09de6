"""Re-record pins.json: each job's exit code and output digest at the
default seed.  Run it only when a change is meant to alter program output,
and review the diff of pins.json like any other output change.

    python3 perfbench/pin.py

A job whose output check fails is not pinned; the script exits 1 instead.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads as wl


def record(name: str) -> dict:
    _, workload, work, cli = run.set_up(name, wl.DEFAULT_SEED, reduced=False)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        _, results = run.run_pass(workload, cli)
    finally:
        os.chdir(cwd)
        run.remove_work(work)
    errors = [f"{job.name}: {err}" for job, _, _, _, err in results if err]
    if errors:
        sys.exit("not pinned, checks failed:\n" + "\n".join(errors))
    return {job.name: [code, digest] for job, _, code, digest, _ in results}


def main() -> int:
    pins = {name: record(name) for name in wl.WORKLOADS}
    lines = []
    for name, jobs in pins.items():
        body = ",\n".join(f"    {json.dumps(j)}: {json.dumps(p)}" for j, p in jobs.items())
        lines.append(f"  {json.dumps(name)}: {{\n{body}\n  }}")
    (run.HERE / "pins.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"pinned {sum(map(len, pins.values()))} jobs in {run.HERE / 'pins.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
