"""Shared fixtures: the four small named structures used throughout the
suite, plus random-table generators.

fix_c: path category of a single loop, truncated at length 3.
fix_d: one vertex, one blue and one red loop with the commuting square,
       truncated at degree (2,2).
fix_e: a single element with nothing composable (one spring).
fix_f: a non-monic structure, fg = fh = m with g != h.

Two families of representations with atoms, which pass the axioms: the
n-cycle cell (tight) and the cycle-plus-sink cell (not tight at the sink).

Random valid tables come from paths of random DAGs (strictly associative,
springs where a path starts at a source vertex) and from random Markov
truncations (valid with artifact metadata).
"""

from __future__ import annotations

import random
from functools import reduce
from operator import matmul

import pytest

from sgpd.core import SemigroupoidTable
from sgpd.kgraph import Edge, KGraph, KGraphSkeleton, build_kgraph
from sgpd.markov import Matrix01, MarkovTruncation, build_markov
from sgpd.matrices import RatMat
from sgpd.reps import Representation


@pytest.fixture(scope="session")
def fix_c() -> KGraph:
    skeleton = KGraphSkeleton(1, ("v",), (Edge("e", 1, "v", "v"),), ())
    return build_kgraph(skeleton, (3,))


@pytest.fixture(scope="session")
def fix_d() -> KGraph:
    skeleton = KGraphSkeleton(
        2,
        ("v",),
        (Edge("b", 1, "v", "v"), Edge("r", 2, "v", "v")),
        ((("b", "r"), ("r", "b")),),
    )
    return build_kgraph(skeleton, (2, 2))


@pytest.fixture(scope="session")
def fix_e() -> SemigroupoidTable:
    return SemigroupoidTable.build({"f"}, {})


@pytest.fixture(scope="session")
def fix_f() -> SemigroupoidTable:
    return SemigroupoidTable.build(
        {"f", "g", "h", "m"}, {("f", "g"): "m", ("f", "h"): "m"}
    )


@pytest.fixture(scope="session")
def golden() -> Matrix01:
    return Matrix01.from_rows([[1, 1], [1, 0]])


@pytest.fixture(scope="session")
def loop() -> Matrix01:
    return Matrix01.from_rows([[1]])


@pytest.fixture(scope="session")
def dead_row() -> Matrix01:
    return Matrix01.from_rows([[1, 1], [0, 0]])


@pytest.fixture(scope="session")
def golden3(golden) -> MarkovTruncation:
    return build_markov(golden, 3)


def unitary_rep(kg: KGraph) -> Representation:
    one = RatMat.identity(1)
    return Representation(kg.table, 1, {m: one for m in kg.normal_form})


def zero_edge_rep(kg: KGraph) -> Representation:
    assign = {
        m: RatMat.identity(1) if m in kg.objects else RatMat.zeros(1)
        for m in kg.normal_form
    }
    return Representation(kg.table, 1, assign)


def all_ones_rep(table: SemigroupoidTable) -> Representation:
    one = RatMat.identity(1)
    return Representation(table, 1, {t: one for t in table.elements})


def zero_rep(table: SemigroupoidTable, dim: int = 1) -> Representation:
    return Representation(table, dim, {t: RatMat.zeros(dim) for t in table.elements})


def matrix_units(dim: int, entries) -> RatMat:
    """The dim x dim 0-1 matrix with a 1 at each (row, column) of `entries`."""
    return RatMat.from_rows(
        [[int((r, c) in entries) for c in range(dim)] for r in range(dim)]
    )


def cycle_cell(n: int) -> Representation:
    """The n-letter cycle matrix (letter i followed by letter i + 1 mod n)
    truncated at length n, with S_w = E_{first(w), last(w)+1} in dimension
    n: it passes the axioms, has n atoms and is tight."""
    matrix = Matrix01.from_rows(
        [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]
    )
    trunc = build_markov(matrix, n)
    index = {a: i for i, a in enumerate(matrix.alphabet)}
    units = {}
    assign = {}
    for t, word in trunc.words.items():
        entry = (index[word[0]], (index[word[-1]] + 1) % n)
        if entry not in units:
            units[entry] = matrix_units(n, {entry})
        assign[t] = units[entry]
    return Representation(trunc.table, n, assign)


def cycle_sink_cell(n: int) -> tuple[KGraph, Representation]:
    """The n-cycle 1-graph v0 -> v1 -> ... -> v0 plus one edge f: v0 -> w
    into a new vertex w, truncated at length n, in dimension n + 2: v_i is
    sent to E_ii and w to E_nn + E_{n+1,n+1}, e_i to E_{i+1 mod n, i} and f
    to E_{n,0}, each morphism to the product along its word.  It passes the
    axioms but is not tight at w, whose second dimension no edge covers."""
    objects = tuple(f"v{i}" for i in range(n)) + ("w",)
    edges = tuple(Edge(f"e{i}", 1, f"v{i}", f"v{(i + 1) % n}") for i in range(n))
    edges += (Edge("f", 1, "v0", "w"),)
    kg = build_kgraph(KGraphSkeleton(1, objects, edges, ()), (n,))
    dim = n + 2
    letters = {f"e{i}": matrix_units(dim, {((i + 1) % n, i)}) for i in range(n)}
    letters["f"] = matrix_units(dim, {(n, 0)})
    vertex = {f"v{i}": matrix_units(dim, {(i, i)}) for i in range(n)}
    vertex["w"] = matrix_units(dim, {(n, n), (n + 1, n + 1)})
    assign = {
        t: reduce(matmul, (letters[e] for e in word), vertex[kg.range[t]])
        for t, word in kg.normal_form.items()
    }
    return kg, Representation(kg.table, dim, assign)


def random_dag_table(
    rng: random.Random,
    max_nodes: int = 4,
    max_edges: int = 5,
    max_elements: int = 8,
    force_spring: bool = False,
) -> SemigroupoidTable:
    """Paths of a random DAG under concatenation: strictly associative.

    A path whose start vertex has no incoming edge and no identity in the
    carrier is a spring.  Resamples until the carrier is small enough and,
    if requested, contains a spring.
    """
    for _ in range(200):
        n = rng.randint(2, max_nodes)
        possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(possible)
        edges = possible[: rng.randint(1, min(max_edges, len(possible)))]
        # enumerate directed paths (edge sequences), composition order:
        # path p follows path q when q ends where p starts
        names = {e: f"a{idx}" for idx, e in enumerate(sorted(edges))}
        paths: list[tuple] = [(e,) for e in edges]
        frontier = list(paths)
        while frontier:
            new = []
            for p in frontier:
                for e in edges:
                    if p[-1][0] == e[1]:  # s(last) = r(e): e may follow
                        new.append(p + (e,))
            paths.extend(new)
            frontier = new
        if force_spring:
            with_ids = []
        else:
            with_ids = [v for v in range(n) if rng.random() < 0.4]
        elements: dict[str, tuple] = {}
        for p in paths:
            elements["p" + "_".join(names[e] for e in p)] = p
        identity = {v: f"id{v}" for v in with_ids}
        product: dict[tuple[str, str], str] = {}
        toks = dict(elements)
        for v, tok in identity.items():
            toks[tok] = ("id", v)
        if len(toks) > max_elements or not elements:
            continue

        def start(p):
            return p[-1][0] if p[0] != "id" else p[1]

        def end(p):
            return p[0][1] if p[0] != "id" else p[1]

        for ta, pa in toks.items():
            for tb, pb in toks.items():
                if start(pa) != end(pb):
                    continue
                if pa[0] == "id" and pb[0] == "id":
                    product[(ta, tb)] = ta
                elif pa[0] == "id":
                    product[(ta, tb)] = tb
                elif pb[0] == "id":
                    product[(ta, tb)] = ta
                else:
                    combined = pa + pb
                    tok = "p" + "_".join(names[e] for e in combined)
                    product[(ta, tb)] = tok
        table = SemigroupoidTable.build(toks.keys(), product)
        if force_spring:
            from sgpd.springs import find_springs

            if not find_springs(table).springs:
                continue
        return table
    raise RuntimeError("could not generate a random table")


def random_matrix01(rng: random.Random, size: int) -> Matrix01:
    return Matrix01.from_rows(
        [[rng.randint(0, 1) for _ in range(size)] for _ in range(size)]
    )
