"""Workload definitions: input generation and the job list of each workload.

Every job is a closed-loop call from one client: the harness runs the jobs
of a pass one after another in one thread, each starting when the previous
one has returned its verdict.  All jobs but one call a CLI verb in process
through ``sgpd.cli.run``; ``crosscheck-44`` calls the library's
``cross_check``, which has no verb.  Inputs are written as files into a
work directory during set-up, so the program sees only files and argv.

``sgpd`` is imported inside the functions, never at module level, so that
set-up can time a fresh import of the package.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Pins in pins.json were recorded with DEFAULT_SEED.  HELD_OUT_SEED is never
# used while a change is written; it only confirms a claim afterwards.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

GOLDEN = ((1, 1), (1, 0))  # the paper's golden-mean matrix
FULL2 = ((1, 1), (1, 1))  # the full 2-shift
TWO_LOOP_KGR = "k: 2\nobjects: v\nedge: b 1 v v\nedge: r 2 v v\nsquare: b r = r b\n"
PERM3 = ((0, 0, 1), (1, 0, 0), (0, 1, 0))  # cyclic permutation of order 3
SMALL_REPEATS = 4


@dataclass
class Job:
    """One verdict: CLI ``argv`` or a library ``call``.  ``check`` inspects
    (exit code, stdout) and returns an error message or None; ``outputs``
    are files whose bytes join the digest; ``kind`` (default: the name)
    groups jobs in the trace summary."""

    name: str
    check: Callable[[int, str], str | None]
    argv: list[str] | None = None
    call: Callable[[], tuple[int, str]] | None = None
    outputs: tuple[str, ...] = ()
    kind: str = ""

    def __post_init__(self):
        self.kind = self.kind or self.name


@dataclass
class Workload:
    name: str
    jobs: list[Job] = field(default_factory=list)
    # markov-tight's inputs do not depend on the seed, and no output of
    # kgraph-unitary prints a matrix entry, so their pins hold for any seed
    pins_any_seed: bool = False


# ----------------------------------------------------------------- checks


def _machine(out: str) -> dict:
    return json.loads(out.splitlines()[0])


def expect(code: int = 0, **fields) -> Callable[[int, str], str | None]:
    """Exit code and machine-section fields (compared as strings)."""

    def check(got_code: int, out: str) -> str | None:
        if got_code != code:
            return f"exit {got_code}, expected {code}"
        if fields:
            machine = _machine(out)
            for key, want in fields.items():
                key = key.replace("_", "-")
                if str(machine.get(key)) != str(want):
                    return f"{key} = {machine.get(key)!r}, expected {want!r}"
        return None

    return check


def expect_text(code: int, prefix: str) -> Callable[[int, str], str | None]:
    """Exit code and the opening lines of a text (non --json) output."""

    def check(got_code: int, out: str) -> str | None:
        if got_code != code:
            return f"exit {got_code}, expected {code}"
        if not out.startswith(prefix):
            return f"output starts {out[:40]!r}, expected {prefix!r}"
        return None

    return check


def _all(*checks):
    def check(code, out):
        for c in checks:
            err = c(code, out)
            if err:
                return err
        return None

    return check


def _count_lines(prefix: str, want: int):
    def check(code, out):
        got = sum(line.startswith(prefix) for line in out.splitlines())
        return None if got == want else f"{got} lines start {prefix!r}, expected {want}"

    return check


def _contains(text: str):
    def check(code, out):
        return None if text in out else f"output lacks {text!r}"

    return check


# ------------------------------------------------------------ generators


def _render_mat01(rows) -> str:
    return f"{len(rows)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


def zero_rep(elements, dim: int) -> str:
    zero = "[" + ", ".join(["[" + ", ".join(["0"] * dim) + "]"] * dim) + "]"
    return f"dim: {dim}\n" + "".join(f"{e} = {zero}\n" for e in sorted(elements))


def dag_table(rng: random.Random, max_elements: int = 14) -> tuple[list[str], str]:
    """Paths of a random DAG under concatenation, with some vertex
    identities: strictly associative by construction.  Returns the
    elements and the .sgpd text."""
    while True:
        n = rng.randint(2, 5)
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(possible)
        edges = sorted(possible[: rng.randint(1, min(6, len(possible)))])
        names = {e: f"a{i}" for i, e in enumerate(edges)}
        # a path is an edge tuple in composition order: p[i] starts where
        # p[i+1] ends, so the path runs from start(p[-1]) to end(p[0])
        paths = [(e,) for e in edges]
        frontier = list(paths)
        while frontier:
            frontier = [p + (e,) for p in frontier for e in edges if p[-1][0] == e[1]]
            paths.extend(frontier)
        ids = [v for v in range(n) if rng.random() < 0.4]
        if len(paths) + len(ids) <= max_elements:
            break
    tok = {p: "p" + "_".join(names[e] for e in p) for p in paths}
    ends = {tok[p]: (p[-1][0], p[0][1], p) for p in paths}
    ends.update({f"id{v}": (v, v, None) for v in ids})
    lines = ["elements: " + " ".join(sorted(ends))]
    for a, (sa, _, pa) in sorted(ends.items()):
        for b, (_, eb, pb) in sorted(ends.items()):
            if sa != eb:
                continue
            if pa is None:
                prod = b
            elif pb is None:
                prod = a
            else:
                prod = tok[pa + pb]
            lines.append(f"compose: {a} {b} -> {prod}")
    return sorted(ends), "\n".join(lines) + "\n"


def graphable_rows(rows) -> bool:
    """Edge-matrix test, written independently of the program: nonzero
    rows that share a 1-column must be identical."""
    for r1 in rows:
        for r2 in rows:
            if r1 != r2 and any(x and y for x, y in zip(r1, r2)):
                return False
    return True


def _markov_table(rows, max_len: int) -> tuple[object, str]:
    from sgpd import formats
    from sgpd.markov import Matrix01, build_markov

    table = build_markov(Matrix01.from_rows(rows), max_len).table
    return table, formats.render_sgpd(table)


# ------------------------------------------------------------- workloads


def markov_tight(work: Path, seed: int, reduced: bool) -> Workload:
    """The paper's golden-mean matrix at length 4 and the full 2-shift at
    length 5, with dim-2 zero representations.  Fixed by name; the seed
    does not change them."""
    golden_len, full_len = (3, 3) if reduced else (4, 5)
    golden, golden_text = _markov_table(GOLDEN, golden_len)
    full, full_text = _markov_table(FULL2, full_len)
    (work / "golden.sgpd").write_text(golden_text)
    (work / "golden.rep").write_text(zero_rep(golden.elements, 2))
    (work / "full.sgpd").write_text(full_text)
    (work / "full.rep").write_text(zero_rep(full.elements, 2))
    g, f = f"golden{golden_len}", f"full{full_len}"
    tight = {"families_checked": 3080, "coverings_checked": 3930} if not reduced else {}
    covers = {"minimal_coverings": 676} if not reduced else {}
    jobs = [
        Job(f"rep-tight-{g}",
            expect(0, axioms="pass", tight="pass", **tight),
            ["--json", "rep", "check", "golden.sgpd", "golden.rep", "--tight", "--max-fg", "2"]),
        Job(f"rep-axioms-{f}", expect(0, axioms="pass"),
            ["--json", "rep", "check", "full.sgpd", "full.rep"]),
        Job(f"covers-{f}", expect(0, **covers),
            ["--json", "covers", "full.sgpd", "--max-size", "16"]),
    ]
    return Workload("markov-tight", jobs, pins_any_seed=True)


def _perm_power(k: int) -> str:
    """PERM3 to the k-th power, as a matrix literal."""
    n = len(PERM3)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(k % n):
        power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*PERM3)] for row in power]
    return "[" + ", ".join("[" + ", ".join(map(str, r)) + "]" for r in power) + "]"


def kgraph_unitary(work: Path, seed: int, reduced: bool) -> Workload:
    """The two-loop 2-graph (fixture d) truncated at (4,4), with the 3x3
    unitary representation b -> P^x, r -> P^y for a cyclic permutation P;
    the seed picks (x, y) from {1,2}^2.  The powers commute, so the
    commuting square holds and every morphism b^i r^j maps to P^(xi+yj)."""
    from sgpd import formats
    from sgpd.kgraph import build_kgraph

    deg = 2 if reduced else 4
    x, y = random.Random(seed).choice([(1, 1), (1, 2), (2, 1), (2, 2)])
    (work / "twoloop.kgr").write_text(TWO_LOOP_KGR)
    kg = build_kgraph(formats.parse_kgr(TWO_LOOP_KGR), (deg, deg))
    (work / "twoloop.sgpd").write_text(formats.render_sgpd(kg.table))
    lines = [f"dim: {len(PERM3)}"]
    for token, word in sorted(kg.normal_form.items()):
        power = sum(x if e == "b" else y for e in word)
        lines.append(f"{token} = {_perm_power(power)}")
    (work / "unitary.rep").write_text("\n".join(lines) + "\n")

    def crosscheck() -> tuple[int, str]:
        # attribute lookups at call time, so the tracer's wrappers are used
        from sgpd import formats, kgraph, relations, reps

        kg = kgraph.build_kgraph(
            formats.parse_kgr(Path("twoloop.kgr").read_text()), (deg, deg)
        )
        dim, assign = formats.parse_rep(Path("unitary.rep").read_text())
        rep = reps.Representation(kg.table, dim, assign)
        generic = relations.emit_generic(kg.table, tight=False)
        kp = relations.emit_kumjian_pask(kg)
        report = relations.cross_check(generic, kp, rep)
        text = generic.render() + kp.render() + (
            f"checked: {report.a_checked} {report.b_checked}\n"
            f"violations: {len(report.a_violations)} {len(report.b_violations)}\n"
        )
        return (0 if report else 1), text

    d = f"{deg}{deg}"
    full = not reduced  # the exact sizes below hold for the full (4,4) truncation
    small = [
        Job(f"kgraph-check-{d}",
            expect(0, rfns="pass", slice_partitions="pass", **({"morphisms": 25} if full else {})),
            ["--json", "kgraph", "check", "twoloop.kgr", "--maxdeg", f"{deg},{deg}"]),
        Job(f"relations-kp-{d}",
            _all(expect_text(0, "verb: relations\nstyle: kumjian-pask\n"),
                 *([_count_lines("rel: ", 293)] if full else [])),
            ["relations", "--style", "kp", "--kgr", "twoloop.kgr", "--maxdeg", f"{deg},{deg}"]),
    ]
    heavy = [
        Job(f"rep-tight-perm{d}",
            expect(0, axioms="pass", tight="pass"),
            ["--json", "rep", "check", "twoloop.sgpd", "unitary.rep", "--tight", "--max-fg", "1"]),
        Job(f"crosscheck-{d}",
            _all(expect_text(0, "style: toeplitz\n"),
                 _contains("violations: 0 0\n"),
                 *([_contains("checked: 1700 293\n")] if full else [])),
            call=crosscheck),
    ]
    # On a shared CPU a 0.1 s call's time swings by a quarter from call to
    # call, so the small jobs run SMALL_REPEATS times per pass: their
    # medians, which set job_p50_ms, then rest on that many more samples.
    return Workload("kgraph-unitary", small * SMALL_REPEATS + heavy, pins_any_seed=True)


def desk_batch(work: Path, seed: int, reduced: bool) -> Workload:
    """Many small jobs: seeded random DAG-path tables (at most 14 elements)
    and 2-3 letter 0-1 matrices, each queried by a few verbs.

    The mix of table sizes and matrix sizes is the same for every seed
    (the sizes come from a fixed generator; the seed only chooses each
    table's structure and each matrix's entries), so job percentiles do not
    swing with how many large tables a seed happens to draw."""
    rng = random.Random(seed)
    n_tables, n_matrices = (12, 6) if reduced else (240, 120)
    fixed = random.Random("desk-batch sizes")
    sizes = [len(dag_table(fixed)[0]) for _ in range(n_tables)]
    wanted = Counter(sizes)
    drawn: dict[int, list] = {n: [] for n in wanted}
    while any(len(drawn[n]) < k for n, k in wanted.items()):
        elements, text = dag_table(rng)
        drawn.get(len(elements), []).append((elements, text))
    jobs: list[Job] = []
    for i, size in enumerate(sizes):
        elements, text = drawn[size].pop()
        t, r = f"t{i:03d}.sgpd", f"t{i:03d}.rep"
        (work / t).write_text(text)
        (work / r).write_text(zero_rep(elements, 1))
        jobs += [
            Job(f"t{i:03d}.validate", expect(0, result="pass"),
                ["--json", "validate", t], kind="validate"),
            Job(f"t{i:03d}.analyze", expect(0, associative="yes"),
                ["--json", "analyze", t], kind="analyze"),
            Job(f"t{i:03d}.despring", expect(0),
                ["--json", "despring", t, "-o", f"t{i:03d}.ext.sgpd"],
                outputs=(f"t{i:03d}.ext.sgpd",), kind="despring"),
            Job(f"t{i:03d}.covers", expect(0),
                ["--json", "covers", t, "--max-size", "14"], kind="covers"),
            Job(f"t{i:03d}.rep", expect(0, axioms="pass"),
                ["--json", "rep", "check", t, r], kind="rep-axioms"),
        ]
    for i in range(n_matrices):
        size = 2 + i % 2
        rows = tuple(tuple(rng.randint(0, 1) for _ in range(size)) for _ in range(size))
        m = f"m{i:03d}.mat01"
        (work / m).write_text(_render_mat01(rows))
        ok = graphable_rows(rows)
        jobs += [
            Job(f"m{i:03d}.markov", expect(0 if ok else 1, graphable="yes" if ok else "no"),
                ["--json", "markov", "--matrix", m, "--maxlen", "4", "--graphable",
                 "--out", f"m{i:03d}.sgpd"],
                outputs=(f"m{i:03d}.sgpd",), kind="markov"),
            Job(f"m{i:03d}.ck", expect_text(0, "verb: relations\nstyle: cuntz-krieger\n"),
                ["relations", "--style", "ck", "--matrix", m], kind="relations-ck"),
        ]
    return Workload("desk-batch", jobs)


# workload name -> input generator returning the Workload
WORKLOADS = {
    "markov-tight": markov_tight,
    "kgraph-unitary": kgraph_unitary,
    "desk-batch": desk_batch,
}
