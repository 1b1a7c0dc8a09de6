import random
from itertools import product as iproduct
from math import comb

import pytest

import sgpd.kgraph
from sgpd.core import SemigroupoidTable, UnionFind, d_set, intersects, validate_associativity
from sgpd.covers import BoundExceededError
from sgpd.kgraph import (
    BadSplit,
    DegreeOutOfRange,
    Edge,
    InconsistentSquares,
    KGraphSkeleton,
    _box,
    _splits,
    _word_count,
    _validate_squares,
    build_kgraph,
    common_extensions,
    degree_slice,
    factorize,
    rfns_check,
    slice_partition_check,
)

from test_indexes import two_vertex_skeleton


def two_red_skeleton():
    return KGraphSkeleton(
        2,
        ("v",),
        (Edge("b", 1, "v", "v"), Edge("r", 2, "v", "v"), Edge("s", 2, "v", "v")),
        (
            (("b", "r"), ("r", "b")),
            (("b", "s"), ("s", "b")),
        ),
    )


class TestBuild:
    def test_fix_d_count(self, fix_d):
        assert len(fix_d.normal_form) == 9
        assert set(fix_d.normal_form) == {
            "v", "b", "r", "b.b", "b.r", "r.r", "b.b.r", "b.r.r", "b.b.r.r",
        }

    def test_fix_c_chain(self, fix_c):
        assert set(fix_c.normal_form) == {"v", "e", "e.e", "e.e.e"}
        assert validate_associativity(fix_c.table).ok

    def test_table_validates(self, fix_d):
        assert validate_associativity(fix_d.table).ok

    def test_degree_additivity(self, fix_d):
        for (f, g), fg in fix_d.table.product.items():
            assert tuple(
                a + b for a, b in zip(fix_d.degree[f], fix_d.degree[g])
            ) == fix_d.degree[fg]

    def test_unique_factorization_exhaustive(self, fix_d):
        for f in fix_d.normal_form:
            d = fix_d.degree[f]
            for n in iproduct(*(range(x + 1) for x in d)):
                m = tuple(a - b for a, b in zip(d, n))
                pairs = [
                    (g, h)
                    for (g, h), p in fix_d.table.product.items()
                    if p == f and fix_d.degree[g] == tuple(n) and fix_d.degree[h] == m
                ]
                assert len(pairs) == 1

    def test_conflicting_squares_rejected(self):
        skeleton = two_red_skeleton()
        bad = KGraphSkeleton(
            skeleton.k,
            skeleton.objects,
            skeleton.edges,
            ((("b", "r"), ("r", "b")), (("b", "r"), ("s", "b")), (("b", "s"), ("s", "b"))),
        )
        with pytest.raises(InconsistentSquares, match="two squares"):
            build_kgraph(bad, (1, 1))

    def test_missing_square_rejected(self):
        skeleton = two_red_skeleton()
        partial = KGraphSkeleton(
            skeleton.k, skeleton.objects, skeleton.edges, ((("b", "r"), ("r", "b")),)
        )
        with pytest.raises(InconsistentSquares, match="no square"):
            build_kgraph(partial, (1, 1))

    def test_endpoint_mismatch_rejected(self):
        skeleton = KGraphSkeleton(
            2,
            ("u", "v"),
            (
                Edge("b", 1, "u", "v"),
                Edge("b2", 1, "v", "u"),
                Edge("r", 2, "u", "v"),
                Edge("r2", 2, "v", "u"),
            ),
            ((("b", "r2"), ("r", "b")),),  # sources disagree: s(r2)=v, s(b)=u
        )
        with pytest.raises(InconsistentSquares):
            build_kgraph(skeleton, (1, 1))

    def test_normal_form_collision_rejected(self):
        # two reds against one blue where both squares send b.r and b.s to
        # the same swapped path, gluing r to s: the class of b.r then
        # contains two color-sorted words
        skeleton = KGraphSkeleton(
            2,
            ("v",),
            (Edge("b", 1, "v", "v"), Edge("r", 2, "v", "v"), Edge("s", 2, "v", "v")),
            (
                (("b", "r"), ("s", "b")),
                (("b", "s"), ("r", "b")),
                (("r", "b"), ("b", "s")),
            ),
        )
        with pytest.raises(InconsistentSquares):
            build_kgraph(skeleton, (1, 1))


def ref_build_kgraph(skeleton, max_degree):
    """build_kgraph's fields by the direct method: every word's degree is
    recounted letter by letter, and a product is looked up through the
    square-move class representative."""
    swap = _validate_squares(skeleton)

    def degree_of(word):
        deg = [0] * skeleton.k
        for name in word:
            deg[skeleton.edge(name).color - 1] += 1
        return tuple(deg)

    def within(deg):
        return all(x <= y for x, y in zip(deg, max_degree))

    words = {}
    frontier = [((), v, v) for v in skeleton.objects]
    while frontier:
        new_frontier = []
        for word, r, s in frontier:
            for e in skeleton.edges:
                new_word = word + (e.name,)
                if e.dst == s and within(degree_of(new_word)) and new_word not in words:
                    words[new_word] = (r, e.src)
                    new_frontier.append((new_word, r, e.src))
        frontier = new_frontier
    uf = UnionFind(words)
    for word in sorted(words):
        for i in range(len(word) - 1):
            if (word[i], word[i + 1]) in swap:
                uf.union(word, word[:i] + swap[word[i], word[i + 1]] + word[i + 2 :])
    classes = {}
    for w in sorted(words):
        classes.setdefault(uf.find(w), []).append(w)
    zero = (0,) * skeleton.k
    normal_form = {v: () for v in skeleton.objects}
    source = {v: v for v in skeleton.objects}
    range_ = dict(source)
    degree = {v: zero for v in skeleton.objects}
    class_of = {}
    for members in classes.values():
        colors = {w: [skeleton.edge(n).color for n in w] for w in members}
        nfs = [w for w in members if colors[w] == sorted(colors[w])]
        if len(nfs) != 1:
            raise InconsistentSquares(
                f"class of {min(members)} has {len(nfs)} color-sorted members: {sorted(nfs)}"
            )
        endpoints = {words[w] for w in members}
        if len(endpoints) != 1:
            raise InconsistentSquares(f"class of {nfs[0]} mixes endpoints {sorted(endpoints)}")
        token = ".".join(nfs[0])
        normal_form[token] = nfs[0]
        class_of.update((w, token) for w in members)
        range_[token], source[token] = endpoints.pop()
        degree[token] = degree_of(nfs[0])
    product, artifacts = {}, set()
    for f in normal_form:
        for g in normal_form:
            if source[f] == range_[g]:
                total = tuple(a + b for a, b in zip(degree[f], degree[g]))
                combined = normal_form[f] + normal_form[g]
                if not within(total):
                    artifacts.add((f, g))
                else:
                    product[(f, g)] = class_of[uf.find(combined)] if combined else f
    boundary = {
        t for t in normal_form
        if degree[t] != zero and any(d == b for d, b in zip(degree[t], max_degree))
    }
    table = SemigroupoidTable.build(normal_form, product, boundary, artifacts)
    splits = _splits(table, degree)
    factorizations = {}
    for f in normal_form:
        for n in _box(degree[f]):
            assert len(splits.get((f, n), [])) == 1
            factorizations[(f, n)] = splits[(f, n)][0]
    return (normal_form, class_of, source, range_, degree, product, artifacts, boundary,
            factorizations)


def kgraph_fields(kg):
    return (dict(kg.normal_form), dict(kg.class_of), dict(kg.source), dict(kg.range),
            dict(kg.degree), dict(kg.table.product), set(kg.table.artifact_pairs),
            set(kg.table.boundary), dict(kg.factorizations))


def two_loops():
    return KGraphSkeleton(
        2, ("v",), (Edge("b", 1, "v", "v"), Edge("r", 2, "v", "v")), ((("b", "r"), ("r", "b")),)
    )


class TestBox:
    def test_matches_itertools_product(self):
        rng = random.Random(0)
        bounds = [(), (0,), (-1,), (2, -1, 3), (0,) * 5]
        bounds += [tuple(rng.randint(-2, 3) for _ in range(rng.randint(0, 4))) for _ in range(400)]
        for bound in bounds:
            assert list(_box(bound)) == list(iproduct(*(range(b + 1) for b in bound))), bound

    def test_many_components(self):
        # one degree per component, with no recursion over the components
        for k in (1000, 1500):
            assert list(_box((0,) * k)) == [(0,) * k]
        assert list(_box((0,) * 1499 + (2,))) == [(0,) * 1499 + (x,) for x in range(3)]


class TestBuildMatchesDirectMethod:
    @pytest.mark.parametrize("bound", list(iproduct(range(5), range(5))))
    def test_two_loops(self, bound):
        skeleton = two_loops()
        assert kgraph_fields(build_kgraph(skeleton, bound)) == ref_build_kgraph(skeleton, bound)

    @pytest.mark.parametrize("bound", [(0, 0), (1, 2), (2, 2)])
    def test_two_reds(self, bound):
        skeleton = two_red_skeleton()
        assert kgraph_fields(build_kgraph(skeleton, bound)) == ref_build_kgraph(skeleton, bound)

    @pytest.mark.parametrize(
        "edges",
        [
            (Edge("e", 1, "v", "v"),),
            (Edge("e", 1, "u", "v"),),
            (Edge("b1", 1, "v", "v"), Edge("b2", 1, "v", "v")),
        ],
    )
    @pytest.mark.parametrize("bound", range(5))
    def test_rank_one(self, edges, bound):
        objects = tuple(sorted({x for e in edges for x in (e.src, e.dst)}))
        skeleton = KGraphSkeleton(1, objects, edges, ())
        assert kgraph_fields(build_kgraph(skeleton, (bound,))) == ref_build_kgraph(
            skeleton, (bound,)
        )

    def test_fixtures(self, fix_c, fix_d):
        for kg in (fix_c, fix_d):
            assert kgraph_fields(kg) == ref_build_kgraph(kg.skeleton, kg.max_degree)

    def test_inconsistent_squares_messages(self):
        two_red = two_red_skeleton()
        skeletons = [
            KGraphSkeleton(2, ("v",), two_red.edges, (
                (("b", "r"), ("s", "b")), (("b", "s"), ("r", "b")), (("r", "b"), ("b", "s")),
            )),
            KGraphSkeleton(2, ("v",), two_red.edges, ((("b", "r"), ("r", "b")),)),
        ]
        for skeleton in skeletons:
            for bound in [(1, 1), (2, 1)]:
                with pytest.raises(InconsistentSquares) as want:
                    ref_build_kgraph(skeleton, bound)
                with pytest.raises(InconsistentSquares) as got:
                    build_kgraph(skeleton, bound)
                assert str(got.value) == str(want.value)


class TestFactorize:
    def test_mixed_square(self, fix_d):
        assert factorize(fix_d, "b.r", (1, 0), (0, 1)) == ("b", "r")

    def test_identity_splits(self, fix_d):
        assert factorize(fix_d, "b.r", (1, 1), (0, 0)) == ("b.r", "v")
        assert factorize(fix_d, "b.r", (0, 0), (1, 1)) == ("v", "b.r")

    def test_bad_split(self, fix_d):
        with pytest.raises(BadSplit):
            factorize(fix_d, "b.r", (1, 1), (1, 0))


class TestSlices:
    def test_mixed_degree_slice(self, fix_d):
        assert degree_slice(fix_d, "v", (1, 1)).members == {"b.r"}

    def test_zero_slice_is_object(self, fix_d):
        assert degree_slice(fix_d, "v", (0, 0)).members == {"v"}

    def test_chain_slice(self, fix_c):
        assert degree_slice(fix_c, "v", (2,)).members == {"e.e"}

    def test_out_of_range(self, fix_d):
        with pytest.raises(DegreeOutOfRange):
            degree_slice(fix_d, "v", (3, 0))

    def test_wrong_length_degree(self, fix_d):
        # a 2-graph degree has two components, neither fewer nor more
        for n in [(1,), (1, 0, 5)]:
            with pytest.raises(DegreeOutOfRange):
                degree_slice(fix_d, "v", n)

    def test_empty_slice_is_not_stored(self):
        # u <- v <- w: no morphism into u has degree 3, so that slice is
        # empty and `slices` keeps no key for it
        skeleton = KGraphSkeleton(
            1, ("u", "v", "w"), (Edge("a", 1, "v", "u"), Edge("b", 1, "w", "v")), ()
        )
        kg = build_kgraph(skeleton, (4,))
        assert degree_slice(kg, "u", (3,)).members == frozenset()
        assert ("u", (3,)) not in kg.slices
        assert all(kg.slices.values())


class TestRfns:
    def test_fixtures_pass(self, fix_c, fix_d):
        assert rfns_check(fix_c) is True
        assert rfns_check(fix_d) is True

    def test_vertex_without_incoming_edge(self):
        skeleton = KGraphSkeleton(
            1, ("u", "v"), (Edge("e", 1, "u", "v"),), ()
        )
        kg = build_kgraph(skeleton, (1,))
        verdict = rfns_check(kg)
        assert not verdict
        assert (verdict.vertex, verdict.n) == ("u", (1,))


class TestSlicePartition:
    def test_fix_d_all_degrees(self, fix_d):
        for n in iproduct(range(3), range(3)):
            assert slice_partition_check(fix_d, "v", n) is True

    def test_fix_c(self, fix_c):
        for n in range(4):
            assert slice_partition_check(fix_c, "v", (n,)) is True

    def test_broken_structure_witnessed(self, fix_c):
        # valid builds always pass, so fake an aliased degree map: with
        # e.e wrongly labelled degree 1 the slice {e, e.e} is no longer an
        # antichain and the witness names the intersecting pair
        import dataclasses

        degree = dict(fix_c.degree)
        degree["e.e"] = (1,)
        broken = dataclasses.replace(fix_c, degree=degree)
        verdict = slice_partition_check(broken, "v", (1,))
        assert not verdict
        assert verdict.kind == "intersecting-pair"
        assert verdict.detail[:2] == ("e", "e.e")

    def test_wrong_length_degree(self, fix_d):
        with pytest.raises(DegreeOutOfRange):
            slice_partition_check(fix_d, "v", (1,))


class TestCommonExtensions:
    def test_square_pair(self, fix_d):
        assert common_extensions(fix_d, "b", "r", (1, 1)) == [("r", "b")]

    def test_self_extension_is_source(self, fix_d):
        assert common_extensions(fix_d, "b", "b", (1, 0)) == [("v", "v")]

    def test_parallel_edges_disjoint(self):
        skeleton = KGraphSkeleton(
            1, ("v",), (Edge("b1", 1, "v", "v"), Edge("b2", 1, "v", "v")), ()
        )
        kg = build_kgraph(skeleton, (1,))
        assert common_extensions(kg, "b1", "b2", (1,)) == []

    def test_out_of_range(self, fix_d):
        with pytest.raises(DegreeOutOfRange):
            common_extensions(fix_d, "b", "r", (3, 3))
        with pytest.raises(DegreeOutOfRange):
            common_extensions(fix_d, "b.b", "r", (1, 1))

    def test_wrong_length_degree(self, fix_d):
        with pytest.raises(DegreeOutOfRange):
            common_extensions(fix_d, "b", "b", (1,))

    def test_agrees_with_intersects_at_join_degree(self, fix_d):
        for f in fix_d.normal_form:
            for g in fix_d.normal_form:
                join = tuple(
                    max(a, b) for a, b in zip(fix_d.degree[f], fix_d.degree[g])
                )
                exts = common_extensions(fix_d, f, g, join)
                assert bool(exts) == (intersects(fix_d.table, f, g) is not None)


class TestCategoryShape:
    def test_objects_leave_no_springs(self, fix_c, fix_d):
        for kg in (fix_c, fix_d):
            for f in kg.normal_form:
                assert kg.source[f] in d_set(kg.table, f)

    def test_boundary_flags(self, fix_d):
        assert fix_d.table.boundary == {"b.b", "r.r", "b.b.r", "b.r.r", "b.b.r.r"}


class TestWordCap:
    @pytest.mark.parametrize("bound", list(iproduct(range(5), range(5))))
    def test_count_equals_enumeration(self, bound):
        # class_of maps every edge word of the truncation to its morphism
        for skeleton in (two_loops(), two_vertex_skeleton()):
            kg = build_kgraph(skeleton, bound)
            assert _word_count(skeleton, bound) == len(kg.class_of)
        if bound in [(0, 0), (1, 2), (2, 2)]:
            kg = build_kgraph(two_red_skeleton(), bound)
            assert _word_count(two_red_skeleton(), bound) == len(kg.class_of)

    def test_two_loops_count_in_closed_form(self):
        # words of degree (i, j) are the C(i + j, i) interleavings
        for n in range(9):
            assert _word_count(two_loops(), (n, n)) == comb(2 * n + 2, n + 1) - 2

    def test_count_passes_cap_without_enumerating(self):
        loop = KGraphSkeleton(1, ("v",), (Edge("e", 1, "v", "v"),), ())
        huge = 10**9
        for skeleton, bound in [(two_loops(), (10, 10)), (two_loops(), (huge, huge)),
                                (loop, (huge,))]:
            assert _word_count(skeleton, bound) > sgpd.kgraph.WORD_CAP
            with pytest.raises(BoundExceededError, match="edge words within degree"):
                build_kgraph(skeleton, bound)

    def test_count_stops_when_no_word_extends(self):
        edges = (Edge("e", 1, "u", "v"), Edge("f", 1, "v", "w"))
        path = KGraphSkeleton(1, ("u", "v", "w"), edges, ())
        assert _word_count(path, (10**9,)) == 3
        assert len(build_kgraph(path, (10**9,)).class_of) == 3

    def test_cap_is_inclusive(self, monkeypatch):
        skeleton = two_loops()  # 250 words within (4, 4)
        monkeypatch.setattr(sgpd.kgraph, "WORD_CAP", 250)
        assert len(build_kgraph(skeleton, (4, 4)).class_of) == 250
        monkeypatch.setattr(sgpd.kgraph, "WORD_CAP", 249)
        message = r"more than 249 edge words within degree \(4, 4\)"
        with pytest.raises(BoundExceededError, match=message):
            build_kgraph(skeleton, (4, 4))

    def test_benchmark_and_ladder_cells_are_under_the_cap(self):
        # the two-loop 2-graph at (8, 8) still builds; (9, 9) has 184,754 words
        assert _word_count(two_loops(), (8, 8)) == 48_618 <= sgpd.kgraph.WORD_CAP
        assert _word_count(two_loops(), (9, 9)) > sgpd.kgraph.WORD_CAP
