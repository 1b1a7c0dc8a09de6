"""Scale ladder, run on demand and never by the gated benchmark runs.

    python3 perfbench/ladder.py > ladder.json

Cells: the golden-mean matrix and the all-ones 3x3 matrix truncated at
lengths 3-6, and the two-loop 2-graph at degrees (2,2)-(4,4).  Each cell
runs two verbs on its table, each in its own child process under the
per-cell cap of CAP seconds: ``rep check`` with a dim-2 zero
representation (axioms only) and ``covers --max-size 16`` on the whole
carrier.  A verb that
hits the cap is recorded as "timeout" and one that runs out of the child's
memory limit as "memory"; neither is ever dropped.  The child's time
includes building and writing its table (``build_s`` reports that part).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import run
import workloads as wl

MATRICES = {"golden": wl.GOLDEN, "ones3": ((1, 1, 1),) * 3}
CELLS = (
    [f"{m}-{n}" for m in MATRICES for n in range(3, 7)]
    + [f"twoloop-{d}{d}" for d in range(2, 5)]
)
VERBS = {
    "rep": ["--json", "rep", "check", "cell.sgpd", "cell.rep"],
    "covers": ["--json", "covers", "cell.sgpd", "--max-size", "16"],
}
CAP = 60.0  # seconds per cell and verb
MEMORY_LIMIT = 2 << 30  # bytes of address space per child


def child(cell: str, verb: str, work: str) -> dict:
    """Build the cell's table in the work directory and run one verb."""
    from sgpd import cli, formats
    from sgpd.kgraph import build_kgraph
    from sgpd.markov import Matrix01, build_markov

    os.chdir(work)
    t0 = perf_counter()
    family, size = cell.split("-")
    if family == "twoloop":
        skeleton = formats.parse_kgr(wl.TWO_LOOP_KGR)
        table = build_kgraph(skeleton, (int(size[0]), int(size[1]))).table
    else:
        table = build_markov(Matrix01.from_rows(MATRICES[family]), int(size)).table
    Path("cell.sgpd").write_text(formats.render_sgpd(table))
    Path("cell.rep").write_text(wl.zero_rep(table.elements, 2))
    build_s = perf_counter() - t0
    t0 = perf_counter()
    code, out = cli.run(VERBS[verb])
    verb_s = perf_counter() - t0
    machine = json.loads(out) if out.startswith("{") else {"text": out.strip()}
    return {
        "elements": len(table.elements),
        "composable": len(table.composable),
        "artifact_pairs": len(table.artifact_pairs),
        "build_s": build_s,
        "verb_s": verb_s,
        "exit": code,
        # the verdict fields; covers' full target and covering lists are left out
        "machine": {k: v for k, v in machine.items()
                    if k != "target" and not k.startswith("covering-")},
    }


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_cell(cell: str, verb: str) -> dict:
    work = run.ROOT / ".perfbench_work" / f"ladder-{os.getpid()}"
    work.mkdir(parents=True)
    argv = [sys.executable, __file__, "--child", cell, verb, str(work)]
    t0 = perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=CAP,
                              preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
        return {"cell": cell, "verb": verb, "status": "timeout", "cap_s": CAP}
    finally:
        run.remove_work(work)
    wall = perf_counter() - t0
    if proc.returncode != 0:
        status = "memory" if "MemoryError" in proc.stderr else "error"
        return {"cell": cell, "verb": verb, "status": status, "wall_s": wall,
                "stderr": proc.stderr[-500:]}
    return {"cell": cell, "verb": verb, "status": "done", "wall_s": wall,
            **json.loads(proc.stdout)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sgpd scale ladder")
    parser.add_argument("--child", nargs=3, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    if args.child:
        print(json.dumps(child(*args.child)))
        return 0
    rows = []
    for cell in CELLS:
        for verb in VERBS:
            rows.append(run_cell(cell, verb))
            print(f"{cell} {verb}: {rows[-1]['status']} "
                  f"{rows[-1].get('wall_s', CAP):.2f} s", file=sys.stderr)
    print(json.dumps({"cap_s": CAP, "cells": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
