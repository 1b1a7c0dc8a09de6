import random
from functools import reduce
from itertools import product as iproduct

import pytest

import sgpd.kgraph
from sgpd.core import SemigroupoidTable, UnionFind, d_set, intersects, validate_associativity
from sgpd.covers import BoundExceededError
from sgpd.kgraph import (
    BadSplit,
    DegreeOutOfRange,
    Edge,
    InconsistentSquares,
    KGraph,
    KGraphSkeleton,
    _box,
    _check_cubes,
    _morphism_count,
    _splits,
    _validate_squares,
    build_kgraph,
    common_extensions,
    degree_check,
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

    def test_token_collision_rejected(self):
        # the word a.b and the edge named "a.b" would share a token
        edges = tuple(Edge(name, 1, "v", "v") for name in ("a", "b", "a.b"))
        skeleton = KGraphSkeleton(1, ("v",), edges, ())
        assert len(build_kgraph(skeleton, (1,)).normal_form) == 4
        with pytest.raises(InconsistentSquares, match="^morphism tokens collide$"):
            build_kgraph(skeleton, (2,))


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
    fields = (normal_form, source, range_, degree, product, artifacts, boundary, factorizations)
    return fields, class_of


def kgraph_fields(kg):
    return (dict(kg.normal_form), dict(kg.source), dict(kg.range), dict(kg.degree),
            dict(kg.table.product), set(kg.table.artifact_pairs), set(kg.table.boundary),
            dict(kg.factorizations))


def assert_direct_method(kg):
    """kg has ref_build_kgraph's fields, folding each of its edge words
    through the product gives the morphism whose class holds the word, and
    its table passes the associativity check and the degree walk (additive,
    one factorisation at every split) that build_kgraph leaves to the cube
    check."""
    fields, class_of = ref_build_kgraph(kg.skeleton, kg.max_degree)
    assert kgraph_fields(kg) == fields
    assert validate_associativity(kg.table).ok
    report = degree_check(kg.table, kg.degree)
    assert report.additive and not report.violations
    product = kg.table.product
    for word, token in class_of.items():
        assert reduce(lambda f, e: product[f, e], word) == token


def two_loops():
    return KGraphSkeleton(
        2, ("v",), (Edge("b", 1, "v", "v"), Edge("r", 2, "v", "v")), ((("b", "r"), ("r", "b")),)
    )


def three_colours():
    """A 3-graph on one vertex: b swaps a and a2 past it, c commutes with
    everything, and both ways round each cube agree."""
    return KGraphSkeleton(
        3,
        ("v",),
        (Edge("a", 1, "v", "v"), Edge("a2", 1, "v", "v"), Edge("b", 2, "v", "v"),
         Edge("c", 3, "v", "v")),
        (
            (("a", "b"), ("b", "a2")), (("a2", "b"), ("b", "a")),
            (("a", "c"), ("c", "a")), (("a2", "c"), ("c", "a2")), (("b", "c"), ("c", "b")),
        ),
    )


def broken_cube():
    """A complete square set on one vertex in three colours whose cubes do
    not close: a.b.c moves to a2.b2.c, so its class has two color-sorted
    members once every colour has room for one edge."""
    return KGraphSkeleton(
        3,
        ("v",),
        (Edge("a", 1, "v", "v"), Edge("a2", 1, "v", "v"), Edge("b", 2, "v", "v"),
         Edge("b2", 2, "v", "v"), Edge("c", 3, "v", "v")),
        (
            (("a", "b"), ("b", "a")), (("a", "b2"), ("b", "a2")),
            (("a2", "b"), ("b2", "a")), (("a2", "b2"), ("b2", "a2")),
            (("a", "c"), ("c", "a")), (("a2", "c"), ("c", "a2")),
            (("b", "c"), ("c", "b2")), (("b2", "c"), ("c", "b")),
        ),
    )


def random_rank_two(rng):
    """1-2 vertices and 1-3 blue edges with random endpoints.  The red edges
    copy the blue ones' endpoints, or are one loop at each vertex, or both,
    so the two adjacency matrices commute.  For each pair of endpoints a
    random bijection pairs the colour-(1, 2) paths with the colour-(2, 1)
    paths; one skeleton in four then loses a square."""
    objects = ("u", "v")[: rng.randint(1, 2)]
    blue = [Edge(f"b{i}", 1, rng.choice(objects), rng.choice(objects))
            for i in range(rng.randint(1, 3))]
    shape = rng.randrange(3)
    red = [Edge(f"r{i}", 2, e.src, e.dst) for i, e in enumerate(blue) if shape != 1]
    red += [Edge(f"r{v}", 2, v, v) for v in objects if shape != 0]
    edges = blue + red
    squares = []
    for r in objects:
        for s in objects:
            paths = {
                colors: [
                    (x.name, y.name) for x in edges for y in edges
                    if (x.color, y.color) == colors and x.src == y.dst
                    and (x.dst, y.src) == (r, s)
                ]
                for colors in ((1, 2), (2, 1))
            }
            rng.shuffle(paths[2, 1])
            squares += zip(paths[1, 2], paths[2, 1])
    if squares and rng.randrange(4) == 0:
        squares.pop(rng.randrange(len(squares)))
    return KGraphSkeleton(2, objects, tuple(edges), tuple(squares))


def random_rank_three(rng):
    """1-2 vertices and 1-2 colour-1 edges with random endpoints, which
    colours 2 and 3 copy, or one loop of each colour at each vertex, or
    both, so the three adjacency matrices are equal and commute.  For each
    colour pair and pair of endpoints a random bijection pairs the
    rising paths with the falling ones; the squares are complete, and
    whether the cubes close is left to chance."""
    objects = ("u", "v")[: rng.randint(1, 2)]
    ends = [(rng.choice(objects), rng.choice(objects)) for _ in range(rng.randint(1, 2))]
    shape = rng.randrange(3)
    edges = []
    for color, letter in zip((1, 2, 3), "abc"):
        edges += [Edge(f"{letter}{i}", color, s, d) for i, (s, d) in enumerate(ends) if shape != 1]
        edges += [Edge(f"{letter}{v}", color, v, v) for v in objects if shape != 0]
    squares = []
    for low, high in ((1, 2), (1, 3), (2, 3)):
        for r in objects:
            for s in objects:
                paths = {
                    colors: [
                        (x.name, y.name) for x in edges for y in edges
                        if (x.color, y.color) == colors and x.src == y.dst
                        and (x.dst, y.src) == (r, s)
                    ]
                    for colors in ((low, high), (high, low))
                }
                rng.shuffle(paths[high, low])
                squares += zip(paths[low, high], paths[high, low])
    return KGraphSkeleton(3, objects, tuple(edges), tuple(squares))


def matches_direct_method(skeleton, bound):
    """build_kgraph agrees with ref_build_kgraph (assert_direct_method), or
    both raise InconsistentSquares: with the same message when the squares
    themselves are at fault, and on a cube that does not close where the
    direct method finds a class with two colour-sorted words.  True when
    the build succeeds."""
    try:
        ref_build_kgraph(skeleton, bound)
    except InconsistentSquares as exc:
        with pytest.raises(InconsistentSquares) as got:
            build_kgraph(skeleton, bound)
        if str(exc).startswith("class of "):
            assert str(got.value).startswith("cube of ")
        else:
            assert str(got.value) == str(exc)
        return False
    assert_direct_method(build_kgraph(skeleton, bound))
    return True


def ref_sorted_words(skeleton, max_degree):
    """The colour-sorted edge words within `max_degree`, enumerated one by
    one with their colours and degrees recounted."""
    out = []
    frontier = [((), v) for v in skeleton.objects]
    while frontier:
        longer = []
        for word, s in frontier:
            for e in skeleton.edges:
                new_word = word + (e.name,)
                colors = [skeleton.edge(n).color for n in new_word]
                degree = [colors.count(c) for c in range(1, skeleton.k + 1)]
                if (e.dst == s and colors == sorted(colors)
                        and all(d <= b for d, b in zip(degree, max_degree))):
                    longer.append((new_word, e.src))
        out += [w for w, _ in longer]
        frontier = longer
    return out


def one_loop():
    return KGraphSkeleton(1, ("v",), (Edge("e", 1, "v", "v"),), ())


class TestMorphismCap:
    @pytest.mark.parametrize("bound", list(iproduct(range(5), range(5))))
    def test_count_equals_the_morphisms(self, bound):
        for skeleton in (two_loops(), two_vertex_skeleton()):
            kg = build_kgraph(skeleton, bound)
            assert _morphism_count(skeleton, bound) == len(kg.normal_form)

    def test_fixtures(self, fix_c, fix_d):
        for kg in (fix_c, fix_d, build_kgraph(three_colours(), (2, 1, 1))):
            assert _morphism_count(kg.skeleton, kg.max_degree) == len(kg.normal_form)
        for bound in [(1, 1, 1), (2, 2, 2)]:
            # the count reads the words alone, squares or not
            want = 1 + len(ref_sorted_words(broken_cube(), bound))
            assert _morphism_count(broken_cube(), bound) == want

    def test_random_skeletons(self):
        built = 0
        for seed in range(200):
            rng = random.Random(seed)
            if seed % 2:
                skeleton = random_rank_two(rng)
                bound = (rng.randint(0, 3), rng.randint(0, 3))
            else:
                objects = ("u", "v", "w")[: rng.randint(1, 3)]
                edges = tuple(Edge(f"e{i}", 1, rng.choice(objects), rng.choice(objects))
                              for i in range(rng.randint(0, 3)))
                skeleton = KGraphSkeleton(1, objects, edges, ())
                bound = (rng.randint(0, 4),)
            count = _morphism_count(skeleton, bound)
            want = len(skeleton.objects) + len(ref_sorted_words(skeleton, bound))
            if want > sgpd.kgraph.MORPHISM_CAP:
                assert count > sgpd.kgraph.MORPHISM_CAP
                continue
            assert count == want
            try:
                kg = build_kgraph(skeleton, bound)
            except InconsistentSquares:
                continue
            assert count == len(kg.normal_form)
            built += 1
        assert built > 100

    @pytest.mark.parametrize("bound", [1_000, 49_999])
    def test_one_loop_refused(self, bound):
        # refused from the count, before anything is built
        assert _morphism_count(one_loop(), (bound,)) > sgpd.kgraph.MORPHISM_CAP
        message = rf"^more than {sgpd.kgraph.MORPHISM_CAP} morphisms within degree \({bound},\)$"
        with pytest.raises(BoundExceededError, match=message):
            build_kgraph(one_loop(), (bound,))

    def test_count_stops_past_the_cap(self):
        cap = sgpd.kgraph.MORPHISM_CAP
        assert _morphism_count(one_loop(), (cap - 1,)) == cap
        assert _morphism_count(one_loop(), (10**9,)) == cap + 1
        many = KGraphSkeleton(1, tuple(f"v{i}" for i in range(cap + 1)), (), ())
        assert _morphism_count(many, (0,)) == cap + 1

    def test_cap_is_inclusive(self, monkeypatch):
        skeleton = two_loops()  # 25 morphisms within (4, 4)
        monkeypatch.setattr(sgpd.kgraph, "MORPHISM_CAP", 25)
        assert len(build_kgraph(skeleton, (4, 4)).normal_form) == 25
        monkeypatch.setattr(sgpd.kgraph, "MORPHISM_CAP", 24)
        with pytest.raises(BoundExceededError, match=r"more than 24 morphisms within degree \(4, 4\)"):
            build_kgraph(skeleton, (4, 4))

    def test_two_loops_at_8_8_is_under_the_cap(self):
        assert _morphism_count(two_loops(), (8, 8)) == 81 <= sgpd.kgraph.MORPHISM_CAP

    def test_refused_before_the_cubes_are_checked(self):
        # the broken cube with 300 more colour-1 loops, each commuting with
        # b, b2 and c: past the cap at (1, 1, 1), so the count refuses it
        # before the cube check, which would fail on it
        cube = broken_cube()
        extra = [f"x{i}" for i in range(300)]
        skeleton = KGraphSkeleton(
            3,
            cube.objects,
            cube.edges + tuple(Edge(x, 1, "v", "v") for x in extra),
            cube.squares + tuple(((x, y), (y, x)) for x in extra for y in ("b", "b2", "c")),
        )
        assert _morphism_count(skeleton, (1, 1, 1)) > sgpd.kgraph.MORPHISM_CAP
        with pytest.raises(InconsistentSquares, match="^cube of "):
            _check_cubes(skeleton, (1, 1, 1), _validate_squares(skeleton))
        with pytest.raises(BoundExceededError, match=r"morphisms within degree \(1, 1, 1\)$"):
            build_kgraph(skeleton, (1, 1, 1))


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
        assert_direct_method(build_kgraph(two_loops(), bound))

    @pytest.mark.parametrize("bound", [(0, 0), (1, 2), (2, 2)])
    def test_two_reds(self, bound):
        assert_direct_method(build_kgraph(two_red_skeleton(), bound))

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
        assert_direct_method(build_kgraph(skeleton, (bound,)))

    def test_fixtures(self, fix_c, fix_d):
        for kg in (fix_c, fix_d):
            assert_direct_method(kg)

    @pytest.mark.parametrize("bound", [(0, 0, 0), (1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 2)])
    def test_rank_three(self, bound):
        assert matches_direct_method(three_colours(), bound)

    @pytest.mark.parametrize("bound", [(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1), (2, 1, 1)])
    def test_rank_three_broken_cube(self, bound):
        builds = matches_direct_method(broken_cube(), bound)
        assert builds == (0 in bound)

    @pytest.mark.parametrize("bound", [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 2)])
    def test_broken_cube_without_the_cube_check(self, monkeypatch, bound):
        # the cube check is the only guard: skipped, the broken cube builds,
        # unique factorisation passes, and the table is not associative
        monkeypatch.setattr(sgpd.kgraph, "_check_cubes", lambda *args: None)
        kg = build_kgraph(broken_cube(), bound)
        assert not validate_associativity(kg.table).ok

    def test_broken_cube_message(self):
        with pytest.raises(InconsistentSquares) as got:
            build_kgraph(broken_cube(), (1, 1, 1))
        assert str(got.value) == (
            "cube of ('c', 'b', 'a') does not close: moves (0, 1, 0) give "
            "('a2', 'b', 'c') and moves (1, 0, 1) give ('a', 'b2', 'c')"
        )

    def test_random_rank_two_bijections(self):
        outcomes = set()
        for seed in range(200):
            rng = random.Random(seed)
            skeleton = random_rank_two(rng)
            bound = (rng.randint(0, 2), rng.randint(0, 2))
            outcomes.add((len(skeleton.objects), matches_direct_method(skeleton, bound)))
        assert outcomes == {(1, True), (2, True), (1, False), (2, False)}

    def test_random_rank_three_bijections(self):
        outcomes = set()
        for seed in range(200):
            rng = random.Random(seed)
            skeleton = random_rank_three(rng)
            # colour 2 at 0 in about half the draws, which leaves no cube
            bound = (rng.randint(1, 2), rng.randint(0, 1), 1)
            outcomes.add((len(skeleton.objects), matches_direct_method(skeleton, bound)))
        assert outcomes == {(1, True), (2, True), (1, False), (2, False)}

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
                assert not matches_direct_method(skeleton, bound)


class TestFactorize:
    def test_mixed_square(self, fix_d):
        assert factorize(fix_d, "b.r", (1, 0), (0, 1)) == ("b", "r")

    def test_identity_splits(self, fix_d):
        assert factorize(fix_d, "b.r", (1, 1), (0, 0)) == ("b.r", "v")
        assert factorize(fix_d, "b.r", (0, 0), (1, 1)) == ("v", "b.r")

    def test_no_split_is_walked(self, monkeypatch, fix_c, fix_d):
        # the build proves unique factorisation by the cube check, and
        # factorize reads the map off the product: neither walks the splits
        def walked(*args):
            raise AssertionError("the degree splits were walked")

        monkeypatch.setattr(sgpd.kgraph, "_splits", walked)
        c = build_kgraph(fix_c.skeleton, fix_c.max_degree)
        d = build_kgraph(fix_d.skeleton, fix_d.max_degree)
        assert kgraph_fields(c) == kgraph_fields(fix_c)
        assert kgraph_fields(d) == kgraph_fields(fix_d)
        assert len(build_kgraph(two_loops(), (4, 4)).normal_form) == 25
        assert len(build_kgraph(one_loop(), (20,)).normal_form) == 21
        assert factorize(d, "b.r", (1, 0), (0, 1)) == ("b", "r")
        assert factorize(d, "b.r", (1, 1), (0, 0)) == ("b.r", "v")
        assert factorize(d, "b.r", (0, 0), (1, 1)) == ("v", "b.r")
        with pytest.raises(BadSplit):
            factorize(d, "b.r", (1, 1), (1, 0))

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
        degree = dict(fix_c.degree)
        degree["e.e"] = (1,)
        broken = KGraph(
            fix_c.skeleton, fix_c.max_degree, fix_c.table, fix_c.normal_form,
            fix_c.source, fix_c.range, degree,
        )
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
    """The cap on words is MORPHISM_CAP: the build walks the colour-sorted
    edge words alone, one per morphism, and counts them with the objects
    first.  Edge words that are not colour-sorted are neither built nor
    counted, so no bound limits them."""

    @pytest.mark.parametrize("bound", list(iproduct(range(5), range(5))))
    def test_count_equals_enumeration(self, bound):
        # the objects plus the colour-sorted words, enumerated one by one
        for skeleton in (two_loops(), two_vertex_skeleton(), two_red_skeleton()):
            want = len(skeleton.objects) + len(ref_sorted_words(skeleton, bound))
            assert _morphism_count(skeleton, bound) == want

    def test_two_loops_count_in_closed_form(self):
        # one morphism b^i r^j per degree (i, j) up to (n, n)
        for n in range(17):
            assert _morphism_count(two_loops(), (n, n)) == (n + 1) ** 2

    def test_count_passes_cap_without_enumerating(self):
        huge = 10**9
        for skeleton, bound in [(two_loops(), (huge, huge)), (one_loop(), (huge,))]:
            assert _morphism_count(skeleton, bound) > sgpd.kgraph.MORPHISM_CAP
            with pytest.raises(BoundExceededError, match="morphisms within degree"):
                build_kgraph(skeleton, bound)
        # 705,430 edge words but 121 morphisms: built
        assert len(build_kgraph(two_loops(), (10, 10)).normal_form) == 121

    def test_count_stops_when_no_word_extends(self):
        edges = (Edge("e", 1, "u", "v"), Edge("f", 1, "v", "w"))
        path = KGraphSkeleton(1, ("u", "v", "w"), edges, ())
        assert _morphism_count(path, (10**9,)) == 6
        assert len(build_kgraph(path, (10**9,)).normal_form) == 6

    def test_cap_is_inclusive(self, monkeypatch):
        # the two objects count: 2 + 4 edges + 2 mixed words within (1, 1)
        skeleton = two_vertex_skeleton()
        count = len(build_kgraph(skeleton, (1, 1)).normal_form)
        monkeypatch.setattr(sgpd.kgraph, "MORPHISM_CAP", count)
        assert len(build_kgraph(skeleton, (1, 1)).normal_form) == count
        monkeypatch.setattr(sgpd.kgraph, "MORPHISM_CAP", count - 1)
        message = rf"more than {count - 1} morphisms within degree \(1, 1\)"
        with pytest.raises(BoundExceededError, match=message):
            build_kgraph(skeleton, (1, 1))

    def test_benchmark_and_ladder_cells_are_under_the_cap(self):
        # the benchmark's (4, 4) and the largest square bound, (16, 16)
        cap = sgpd.kgraph.MORPHISM_CAP
        assert _morphism_count(two_loops(), (4, 4)) == 25
        assert _morphism_count(two_loops(), (16, 16)) == 289 <= cap
        assert _morphism_count(two_loops(), (17, 17)) > cap
