"""Differential tests for the derived indexes: the table's followers and
multiples, and the k-graph's slices and factorisations.

Each index is compared against the scan it replaced, written out here as
the reference: follower sets and division read straight from the
composable and artifact pairs, common multiples by trying every element in
order, and factorisations by grouping the whole product table.  Inputs are
random DAG tables and Markov truncations (derandomized, desk-sized), a
hand-built table whose artifact follower is a spring, and k-graphs.
"""

from __future__ import annotations

import random
from itertools import product as iproduct

from hypothesis import given, settings, strategies as st

from sgpd.core import (
    UNIT,
    SemigroupoidTable,
    common_followers,
    d_set,
    divides,
    intersects,
)
from sgpd.kgraph import Edge, KGraphSkeleton, build_kgraph, degree_check
from sgpd.markov import build_markov
from sgpd.springs import find_springs

from conftest import random_dag_table, random_matrix01

FUZZ = settings(max_examples=25, deadline=None, derandomize=True, database=None)


# ---- references: the scans the indexes replaced


def ref_d_set(table, f, full=False):
    if f is UNIT:
        return frozenset(table.elements)
    members = {g for (x, g) in table.composable if x == f}
    if full:
        members |= {g for (x, g) in table.artifact_pairs if x == f}
    return frozenset(members)


def ref_divides(table, f, g):
    if f == g:
        return True
    return any(table.product[(f, h)] == g for (x, h) in table.composable if x == f)


def ref_common_followers(table, required, forbidden, full):
    result = set(table.elements)
    for f in required:
        result &= ref_d_set(table, f, full)
    for g in forbidden:
        result -= ref_d_set(table, g, full)
    return frozenset(result)


def ref_find_springs(table):
    artifact_heads = {f for (f, _) in table.artifact_pairs}
    springs = frozenset(
        f for f in table.elements if not ref_d_set(table, f) and f not in artifact_heads
    )
    derived = frozenset(
        f
        for f in table.elements
        if f not in artifact_heads
        and f not in springs
        and ref_d_set(table, f)
        and ref_d_set(table, f) <= springs
    )
    return springs, derived


def ref_splits(table, degrees, f, n):
    d = degrees[f]
    tail = tuple(x - y for x, y in zip(d, n))
    return sorted(
        (g, h)
        for (g, h), p in table.product.items()
        if p == f and degrees[g] == n and degrees[h] == tail
    )


def ref_degree_check(table, degrees):
    """(additive, violations) by the parent's literal scan."""
    violations = []
    additive = True
    for (f, g), fg in sorted(table.product.items()):
        if tuple(x + y for x, y in zip(degrees[f], degrees[g])) != degrees[fg]:
            additive = False
            violations.append(("additivity", (f, g, fg, degrees[f], degrees[g], degrees[fg])))
    for f in sorted(table.elements):
        for n in iproduct(*(range(x + 1) for x in degrees[f])):
            pairs = ref_splits(table, degrees, f, n)
            if not pairs:
                violations.append(("no-factorization", (f, n)))
            elif len(pairs) > 1:
                violations.append(("non-unique-factorization", (f, n, tuple(pairs))))
    return additive, violations


# ---- inputs


def spring_artifact_table():
    """a's only composable follower s and its artifact follower t are both
    springs: a is cut by the bound, so it is neither a spring nor dead."""
    return SemigroupoidTable.build(
        {"a", "s", "t", "u"}, {("a", "s"): "u"}, artifact_pairs={("a", "t")}
    )


TABLES = st.one_of(
    st.integers(0, 2**32).map(lambda seed: random_dag_table(random.Random(seed))),
    st.tuples(st.integers(0, 2**32), st.integers(1, 3), st.integers(1, 3)).map(
        lambda t: build_markov(random_matrix01(random.Random(t[0]), t[1]), t[2]).table
    ),
    st.just(spring_artifact_table()),
)


# ---- table indexes


@FUZZ
@given(TABLES)
def test_followers_and_division_match_scans(table):
    elements = sorted(table.elements)
    for full in (False, True):
        assert d_set(table, UNIT, full=full) == ref_d_set(table, UNIT, full)
        for f in elements:
            assert d_set(table, f, full=full) == ref_d_set(table, f, full)
    div = {(f, g): ref_divides(table, f, g) for f in elements for g in elements}
    for f in elements:
        for g in elements:
            assert divides(table, f, g) == div[(f, g)]
            least = next((m for m in elements if div[(f, m)] and div[(g, m)]), None)
            assert intersects(table, f, g) == least


@FUZZ
@given(TABLES, st.data())
def test_common_followers_match_scans(table, data):
    names = st.sampled_from(sorted(table.elements) + [UNIT])
    required = data.draw(st.lists(names, max_size=2))
    forbidden = data.draw(st.lists(names, max_size=2))
    for full in (False, True):
        assert common_followers(table, required, forbidden, full=full) == (
            ref_common_followers(table, required, forbidden, full)
        )


@FUZZ
@given(TABLES)
def test_springs_match_scans(table):
    report = find_springs(table)
    assert (report.springs, report.derived_dead) == ref_find_springs(table)


def test_artifact_follower_spring():
    report = find_springs(spring_artifact_table())
    assert report.springs == {"s", "t", "u"}
    assert report.derived_dead == frozenset()


# ---- k-graph factorisations


def two_vertex_skeleton():
    """A blue 2-cycle between u and v with a red loop at each vertex."""
    return KGraphSkeleton(
        2,
        ("u", "v"),
        (
            Edge("a", 1, "u", "v"),
            Edge("c", 1, "v", "u"),
            Edge("x", 2, "u", "u"),
            Edge("y", 2, "v", "v"),
        ),
        ((("a", "x"), ("y", "a")), (("c", "y"), ("x", "c"))),
    )


def kgraphs(fix_c, fix_d):
    return [
        fix_c,
        build_kgraph(fix_d.skeleton, (3, 3)),
        build_kgraph(two_vertex_skeleton(), (2, 2)),
    ]


def test_factorizations_match_brute_force(fix_c, fix_d):
    for kg in kgraphs(fix_c, fix_d):
        expected = {}
        for f in kg.normal_form:
            for n in iproduct(*(range(x + 1) for x in kg.degree[f])):
                pairs = ref_splits(kg.table, kg.degree, f, n)
                assert len(pairs) == 1, (f, n, pairs)
                expected[(f, n)] = pairs[0]
        assert dict(kg.factorizations) == expected
        report = degree_check(kg.table, kg.degree)
        assert report.additive and not report.violations


def test_slices_match_scan(fix_c, fix_d):
    for kg in kgraphs(fix_c, fix_d):
        keys = [(v, n) for v in sorted(kg.objects)
                for n in iproduct(*(range(x + 1) for x in kg.max_degree))]
        assert list(kg.slices) == keys
        for v, n in keys:
            assert kg.slices[(v, n)] == {
                t for t in kg.normal_form if kg.range[t] == v and kg.degree[t] == n
            }


@FUZZ
@given(st.sampled_from([0, 1, 2]), st.data())
def test_degree_check_matches_scan(fix_c, fix_d, which, data):
    kg = kgraphs(fix_c, fix_d)[which]
    k = kg.skeleton.k
    # perturb the true degrees so that every kind of violation can occur
    degrees = dict(kg.degree)
    for t in data.draw(st.lists(st.sampled_from(sorted(degrees)), max_size=3)):
        degrees[t] = tuple(data.draw(st.lists(st.integers(-1, 3), min_size=k, max_size=k)))
    report = degree_check(kg.table, degrees)
    additive, violations = ref_degree_check(kg.table, degrees)
    assert report.additive == additive
    assert [(v.kind, v.detail) for v in report.violations] == violations


def test_degree_check_negative_head_degree():
    # (f, g) has a head degree outside the box of its product's degree
    table = SemigroupoidTable.build({"f", "g", "m"}, {("f", "g"): "m"})
    report = degree_check(table, {"f": (2,), "g": (-1,), "m": (1,)})
    assert report.additive
    assert [(v.kind, v.detail) for v in report.violations] == [
        ("no-factorization", ("f", (0,))),
        ("no-factorization", ("f", (1,))),
        ("no-factorization", ("f", (2,))),
        ("no-factorization", ("m", (0,))),
        ("no-factorization", ("m", (1,))),
    ]
