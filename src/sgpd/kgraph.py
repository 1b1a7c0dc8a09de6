"""Higher-rank graphs as degree-truncated small categories.

A rank-k structure is presented by a skeleton: vertices, coloured edges,
and factorisation squares that identify each two-colour path with its
colour-swapped mate.  Morphisms are square-move classes of composable edge
paths with degree (the per-colour letter count) capped by a vector bound.
Each class holds exactly one colour-sorted word, its normal form, when
every tri-coloured path of length 3 closes its cube: both ways round by
square moves reach the same word (Hazlewood, Raeburn, Sims and Webster,
Proc. Edinb. Math. Soc. 2013, Thm 4.4).  So the truncation is built from
the normal forms alone, once the cubes within the bound are checked.
Degree additivity and unique factorisation are then validated
exhaustively within the truncation rather than assumed.

Composable pairs whose degrees sum past the bound become artifact pairs of
the underlying table, and morphisms sitting on the bound in some colour
are flagged boundary, mirroring the Markov truncation conventions.  The
morphisms are counted before anything is built, and a truncation with
more than MORPHISM_CAP morphisms is refused with ``BoundExceededError``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, Mapping, Sequence

from .core import Record, SemigroupoidTable, SgpdError, Witness
from .covers import BoundExceededError, CoverSpec, IntersectingPair, Uncovered, is_partition

# morphisms (objects included) a truncation may have; build_kgraph counts
# them first and refuses more.  The table, and the checks and presentations
# read from it, grow as their square.  On a 2-CPU host the one-loop 1-graph
# has 300 at degree 299, where `kgraph check` takes about 0.8 s and
# `relations --style kp` about 1.3 s at 190 MB; the two-loop 2-graph has 289
# at (16, 16), about 0.5 s and 0.7 s.  At 441 (the one-loop at degree 440)
# they take about 2.5 s and 5 s at 560 MB, so the cap stays until one on
# the product pairs replaces it.
MORPHISM_CAP = 300


class InconsistentSquares(SgpdError):
    pass


class BadSplit(SgpdError):
    pass


class DegreeOutOfRange(SgpdError):
    pass


class Edge(Record):
    name: str
    color: int
    src: str
    dst: str


Path = tuple[str, ...]  # edge names in composition order; s(w[i]) = r(w[i+1])


class KGraphSkeleton(Record):
    k: int
    objects: tuple[str, ...]
    edges: tuple[Edge, ...]
    squares: tuple[tuple[tuple[str, str], tuple[str, str]], ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("rank must be at least 1")
        names = [e.name for e in self.edges]
        if len(set(names)) != len(names):
            raise ValueError("duplicate edge names")
        if set(names) & set(self.objects):
            raise ValueError("edge names must differ from object names")
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate object names")
        for e in self.edges:
            if not 1 <= e.color <= self.k:
                raise ValueError(f"edge {e.name} has color outside 1..{self.k}")
            if e.src not in self.objects or e.dst not in self.objects:
                raise ValueError(f"edge {e.name} has unknown endpoint")
        for (a, b), (c, d) in self.squares:
            for name in (a, b, c, d):
                self.edge(name)

    @cached_property
    def _edge_by_name(self) -> dict[str, Edge]:
        return {e.name: e for e in self.edges}

    @cached_property
    def edges_into(self) -> dict[str, list[Edge]]:
        """object -> the edges whose range it is, in skeleton order."""
        out: dict[str, list[Edge]] = {v: [] for v in self.objects}
        for e in self.edges:
            out[e.dst].append(e)
        return out

    def edge(self, name: str) -> Edge:
        try:
            return self._edge_by_name[name]
        except KeyError:
            raise ValueError(f"unknown edge {name!r}") from None


def _leq(a: Sequence[int], b: Sequence[int]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _box(bound: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every degree between 0 and `bound` componentwise, lexicographically
    and lazily, however large the bound and however many its components:
    () for the empty bound, nothing when a component is negative."""
    if any(b < 0 for b in bound):
        return
    n = [0] * len(bound)
    while True:
        yield tuple(n)
        i = len(n) - 1
        while i >= 0 and n[i] >= bound[i]:
            n[i] = 0
            i -= 1
        if i < 0:
            return
        n[i] += 1


def _splits(
    table: SemigroupoidTable, degrees: Mapping[str, tuple[int, ...]]
) -> dict[tuple[str, tuple[int, ...]], list[tuple[str, str]]]:
    """(f, n) -> the sorted composable pairs (g, h) with gh = f, d(g) = n and
    d(h) = d(f) - n: the factorisations of f at every split of its degree."""
    out: dict[tuple[str, tuple[int, ...]], list[tuple[str, str]]] = {}
    for (g, h), f in sorted(table.product.items()):
        if degrees[h] == _vec_sub(degrees[f], degrees[g]):
            out.setdefault((f, degrees[g]), []).append((g, h))
    return out


def _split_walk(
    table: SemigroupoidTable, degrees: Mapping[str, tuple[int, ...]]
) -> Iterator[tuple[str, tuple[int, ...], list[tuple[str, str]]]]:
    """(f, n, the factorisations of f at n) for every element f, sorted, and
    every degree n in the box of d(f)."""
    splits = _splits(table, degrees)
    for f in sorted(table.elements):
        for n in _box(degrees[f]):
            yield f, n, splits.get((f, n), [])


def _morphism_count(skeleton: KGraphSkeleton, max_degree: tuple[int, ...]) -> int:
    """The number of morphisms within `max_degree`, or some number above
    MORPHISM_CAP once past it: the objects plus the colour-sorted edge
    words, since each morphism has exactly one colour-sorted word, its
    normal form.  The words are counted length by length over (source,
    degree, last colour) states.  The count stops once no word extends,
    and once it passes the cap; each length adds at least one word, so it
    takes at most MORPHISM_CAP + 1 steps however large the bound is."""
    into = skeleton.edges_into
    ends = {(v, (0,) * skeleton.k, 1): 1 for v in skeleton.objects}  # empty words
    total = len(skeleton.objects)
    while ends and total <= MORPHISM_CAP:
        longer: dict[tuple[str, tuple[int, ...], int], int] = {}
        for (s, deg, least), count in ends.items():
            for e in into[s]:
                c = e.color - 1
                if deg[c] < max_degree[c] and e.color >= least:
                    next_deg = deg[:c] + (deg[c] + 1,) + deg[c + 1 :]
                    state = (e.src, next_deg, e.color)
                    longer[state] = longer.get(state, 0) + count
        ends = longer
        total += sum(ends.values())
    return total


def _validate_squares(skeleton: KGraphSkeleton) -> dict[tuple[str, str], tuple[str, str]]:
    """Check shape, endpoints and bijectivity; return the swap map."""
    swap: dict[tuple[str, str], tuple[str, str]] = {}
    for (a, b), (c, d) in skeleton.squares:
        ea, eb, ec, ed = (skeleton.edge(x) for x in (a, b, c, d))
        if ea.src != eb.dst or ec.src != ed.dst:
            raise InconsistentSquares(f"square side not composable: {(a, b)} = {(c, d)}")
        if ea.color == eb.color or {ea.color, eb.color} != {ec.color, ed.color}:
            raise InconsistentSquares(f"square {(a, b)} = {(c, d)} has bad colors")
        if ec.color != eb.color or ed.color != ea.color:
            raise InconsistentSquares(
                f"square {(a, b)} = {(c, d)} does not swap the color order"
            )
        if ea.dst != ec.dst or eb.src != ed.src:
            raise InconsistentSquares(
                f"square {(a, b)} = {(c, d)} identifies paths with unequal endpoints"
            )
        for side, other in (((a, b), (c, d)), ((c, d), (a, b))):
            if side in swap:
                raise InconsistentSquares(f"path {side} appears in two squares")
            swap[side] = other
    # completeness: every mixed composable 2-path must be covered
    for x in skeleton.edges:
        for y in skeleton.edges:
            if x.src == y.dst and x.color != y.color and (x.name, y.name) not in swap:
                raise InconsistentSquares(
                    f"mixed path ({x.name}, {y.name}) has no square"
                )
    return swap


def _braid(path: Path, swap: Mapping[tuple[str, str], tuple[str, str]], moves) -> Path:
    """`path` after the square move at each position of `moves` in turn."""
    word = list(path)
    for i in moves:
        word[i : i + 2] = swap[word[i], word[i + 1]]
    return tuple(word)


def _check_cubes(
    skeleton: KGraphSkeleton,
    max_degree: tuple[int, ...],
    swap: Mapping[tuple[str, str], tuple[str, str]],
) -> None:
    """Raise InconsistentSquares unless every tri-coloured path within
    `max_degree` closes its cube.  Each such path moves by squares to one
    whose colours fall, x.y.z with colour(x) > colour(y) > colour(z), and
    its two braid routes, moves (0, 1, 0) and (1, 0, 1), must reach the
    same colour-sorted word.  The falling paths and their falling first
    two edges number at most the morphisms, as the first route maps them
    one to one onto colour-sorted words."""
    into = skeleton.edges_into
    for x in skeleton.edges:
        if not max_degree[x.color - 1]:
            continue
        for y in into[x.src]:
            if y.color < x.color and max_degree[y.color - 1]:
                for z in into[y.src]:
                    if z.color < y.color and max_degree[z.color - 1]:
                        path = (x.name, y.name, z.name)
                        one, other = (_braid(path, swap, m) for m in ((0, 1, 0), (1, 0, 1)))
                        if one != other:
                            raise InconsistentSquares(
                                f"cube of {path} does not close: moves (0, 1, 0) give "
                                f"{one} and moves (1, 0, 1) give {other}"
                            )


class KGraph(Record):
    skeleton: KGraphSkeleton
    max_degree: tuple[int, ...]
    table: SemigroupoidTable
    normal_form: Mapping[str, Path]  # token -> color-sorted word, () for objects
    source: Mapping[str, str]
    range: Mapping[str, str]
    degree: Mapping[str, tuple[int, ...]]
    factorizations: Mapping[tuple[str, tuple[int, ...]], tuple[str, str]]

    @property
    def objects(self) -> tuple[str, ...]:
        return self.skeleton.objects

    @cached_property
    def slices(self) -> dict[tuple[str, tuple[int, ...]], frozenset[str]]:
        """(object, degree) -> the morphisms of that range and degree, for
        every nonempty slice, in (object, degree) order: a missing key is
        an empty slice, so the map is bounded by the morphisms."""
        members: dict[tuple[str, tuple[int, ...]], set[str]] = {}
        for t in self.normal_form:
            members.setdefault((self.range[t], self.degree[t]), set()).add(t)
        return {key: frozenset(members[key]) for key in sorted(members)}

    def slice_keys(self) -> Iterator[tuple[str, tuple[int, ...]]]:
        """Every (object, degree) within the bound, in order, lazily."""
        return ((v, n) for v in sorted(self.objects) for n in _box(self.max_degree))

    @cached_property
    def into(self) -> dict[str, tuple[str, ...]]:
        """object -> the morphisms of that range, of every degree."""
        out: dict[str, list[str]] = {v: [] for v in self.objects}
        for t in self.normal_form:
            out[self.range[t]].append(t)
        return {v: tuple(ts) for v, ts in out.items()}


def build_kgraph(
    skeleton: KGraphSkeleton, max_degree: Sequence[int]
) -> KGraph:
    """Materialise all morphisms of degree <= max_degree and validate the
    defining identities (degree additivity, unique factorisation).  The
    morphisms are counted first: past MORPHISM_CAP this raises
    BoundExceededError before building any, and otherwise the build is
    cross-checked against the count.  Then every tri-coloured path within
    the bound must close its cube, so each square-move class holds
    exactly one colour-sorted word.

    The morphisms are those words, walked from their ranges, each named
    by its edge names joined with dots.  Products are built by insertion:
    for g = g'e, fg is (fg')e, and m times an edge e moves e left through
    the squares while the colour before it is greater, one memoised step
    per (m, e).  A pair whose degrees sum past the bound is an artifact
    pair.

    Once the cubes close, the table is associative (Hazlewood, Raeburn,
    Sims and Webster 2013, Thm 4.4), so it is made with the plain
    constructor, not re-validated by ``SemigroupoidTable.build``."""
    max_degree = tuple(int(x) for x in max_degree)
    if len(max_degree) != skeleton.k or any(x < 0 for x in max_degree):
        raise ValueError("max_degree must be a nonnegative vector of length k")
    swap = _validate_squares(skeleton)
    morphisms = _morphism_count(skeleton, max_degree)
    if morphisms > MORPHISM_CAP:
        raise BoundExceededError(
            f"more than {MORPHISM_CAP} morphisms within degree {max_degree}"
        )
    _check_cubes(skeleton, max_degree, swap)

    into = skeleton.edges_into
    zero = (0,) * skeleton.k
    normal_form: dict[str, Path] = {}
    source: dict[str, str] = {}
    range_: dict[str, str] = {}
    degree: dict[str, tuple[int, ...]] = {}
    # every edge word -> (the morphism it extends by one edge, that edge)
    parent: dict[str, tuple[str, str]] = {}
    # (m, e) -> m times the edge e, None past the bound: the walk enters
    # the pairs whose colours are in order, `times` the rest as it meets them
    step: dict[tuple[str, str], str | None] = {}
    # (token, word, range, source, degree, last colour) of each word of
    # the current length; the objects are the empty words
    frontier = [(v, (), v, v, zero, 1) for v in skeleton.objects]
    walked = 0
    while frontier:
        longer = []
        for m, word, r, s, deg, least in frontier:
            walked += 1
            normal_form[m], range_[m], source[m], degree[m] = word, r, s, deg
            for e in into[s]:
                c = e.color - 1
                if e.color < least:
                    continue
                if deg[c] == max_degree[c]:
                    step[m, e.name] = None
                    continue
                nf = word + (e.name,)
                t = step[m, e.name] = ".".join(nf)
                parent[t] = (m, e.name)
                next_deg = deg[:c] + (deg[c] + 1,) + deg[c + 1 :]
                longer.append((t, nf, r, e.src, next_deg, e.color))
        frontier = longer
    if walked != morphisms:
        raise SgpdError(f"morphism census mismatch: walked {walked}, counted {morphisms}")
    if len(normal_form) != walked:
        raise InconsistentSquares("morphism tokens collide")

    def times(m: str, e: str) -> str | None:
        # m = m'x with x after e in colour: me = (m'e')x' for the square x e = e' x'
        try:
            return step[m, e]
        except KeyError:
            prefix, x = parent[m]
            e2, x2 = swap[x, e]
            head = times(prefix, e2)
            t = step[m, e] = None if head is None else step[head, x2]
            return t

    product: dict[tuple[str, str], str] = {}
    artifacts: set[tuple[str, str]] = set()
    tokens = sorted(normal_form)
    ranged: dict[str, list[str]] = {v: [] for v in skeleton.objects}
    for g in tokens:
        ranged[range_[g]].append(g)
    for f in tokens:
        for g in ranged[source[f]]:
            if g in parent:
                # fg = (fg')e for g = g'e; g' is an object or sorts before g
                prefix, e = parent[g]
                head = product.get((f, prefix)) if prefix in parent else f
                fg = None if head is None else times(head, e)
            else:
                fg = f
            if fg is None:
                artifacts.add((f, g))
            else:
                product[(f, g)] = fg
    boundary = frozenset(
        t
        for t in tokens
        if any(d == b for d, b in zip(degree[t], max_degree))
        and degree[t] != zero
    )
    table = SemigroupoidTable(frozenset(tokens), product, boundary, frozenset(artifacts))

    # unique factorisation: every split of every degree has exactly one pair
    factorizations: dict[tuple[str, tuple[int, ...]], tuple[str, str]] = {}
    for f, n, pairs in _split_walk(table, degree):
        if len(pairs) != 1:
            raise InconsistentSquares(
                f"morphism {f} splits at degree {n} into {len(pairs)} pairs: {pairs}"
            )
        factorizations[(f, n)] = pairs[0]

    return KGraph(
        skeleton, max_degree, table, normal_form, source, range_, degree, factorizations
    )


def factorize(kg: KGraph, f: str, n: Sequence[int], m: Sequence[int]) -> tuple[str, str]:
    """The unique (g, h) with gh = f, d(g) = n, d(h) = m."""
    n, m = tuple(n), tuple(m)
    if f not in kg.degree:
        raise SgpdError(f"unknown morphism {f!r}")
    if _vec_add(n, m) != kg.degree[f] or any(x < 0 for x in n + m):
        raise BadSplit(f"{n} + {m} != d({f}) = {kg.degree[f]}")
    return kg.factorizations[(f, n)]


class DegreeSlice(Record):
    vertex: str
    n: tuple[int, ...]
    members: frozenset[str]


def _bounded_degree(kg: KGraph, n: Sequence[int]) -> tuple[int, ...]:
    """n as a tuple, when it is a degree of kg (k components) within the bound."""
    n = tuple(n)
    if len(n) != len(kg.max_degree) or any(x < 0 for x in n) or not _leq(n, kg.max_degree):
        raise DegreeOutOfRange(f"degree {n} outside bound {kg.max_degree}")
    return n


def degree_slice(kg: KGraph, v: str, n: Sequence[int]) -> DegreeSlice:
    """Morphisms of range v and degree exactly n."""
    if v not in kg.objects:
        raise SgpdError(f"unknown object {v!r}")
    n = _bounded_degree(kg, n)
    return DegreeSlice(v, n, kg.slices.get((v, n), frozenset()))


class EmptySlice(Witness):
    vertex: str
    n: tuple[int, ...]


def rfns_check(kg: KGraph):
    """Row-finite and source-free within the truncation: every degree
    slice up to the bound is nonempty (finiteness is automatic here).
    The first empty slice is the witness."""
    for v, n in kg.slice_keys():
        if (v, n) not in kg.slices:
            return EmptySlice(v, n)
    return True


class SliceWitness(Witness):
    kind: str
    detail: tuple


def slice_partition_check(kg: KGraph, v: str, n: Sequence[int]):
    """The degree-n slice at v is a partition of the range-v morphisms,
    checked against the members whose common multiples stay in bounds."""
    slice_ = degree_slice(kg, v, n)
    budget = _vec_sub(kg.max_degree, slice_.n)
    within = frozenset(g for g in kg.into[v] if _leq(kg.degree[g], budget))
    verdict = is_partition(kg.table, CoverSpec(within | slice_.members, slice_.members))
    if isinstance(verdict, IntersectingPair):
        detail = (verdict.a, verdict.b, verdict.common_multiple)
        return SliceWitness("intersecting-pair", detail)
    if isinstance(verdict, Uncovered):
        return SliceWitness("uncovered", (verdict.element,))
    return True


def common_extensions(
    kg: KGraph, f: str, g: str, n: Sequence[int]
) -> list[tuple[str, str]]:
    """All (p, q) with fp = gq of degree exactly n, sorted."""
    for t in (f, g):
        if t not in kg.degree:
            raise SgpdError(f"unknown morphism {t!r}")
    n = _bounded_degree(kg, n)
    if not (_leq(kg.degree[f], n) and _leq(kg.degree[g], n)):
        raise DegreeOutOfRange(f"degree {n} does not dominate d({f}), d({g})")
    out = []
    for p in sorted(kg.slices.get((kg.source[f], _vec_sub(n, kg.degree[f])), ())):
        fp = kg.table.product[(f, p)]
        for q in sorted(kg.slices.get((kg.source[g], _vec_sub(n, kg.degree[g])), ())):
            if kg.table.product[(g, q)] == fp:
                out.append((p, q))
    return out


class DegreeViolation(Record):
    kind: str  # "additivity", "no-factorization", "non-unique-factorization"
    detail: tuple


class DegreeReport(Record):
    additive: bool
    violations: tuple[DegreeViolation, ...]

    def __bool__(self) -> bool:
        return not self.violations


def degree_check(
    table: SemigroupoidTable, degrees: Mapping[str, Sequence[int]]
) -> DegreeReport:
    """Validate an arbitrary table + degree map against the rank-k clauses,
    literally: additivity on composable pairs and, for every componentwise
    split of every degree, existence of exactly one factorisation.  The
    report never infers around a failure (zero splits of unit-free
    structures genuinely fail existence and are listed as such)."""
    degrees = {f: tuple(v) for f, v in degrees.items()}
    if set(degrees) != set(table.elements):
        raise SgpdError("degree map must cover the carrier exactly")
    violations = []
    additive = True
    for (f, g), fg in sorted(table.product.items()):
        if _vec_add(degrees[f], degrees[g]) != degrees[fg]:
            additive = False
            violations.append(
                DegreeViolation("additivity", (f, g, fg, degrees[f], degrees[g], degrees[fg]))
            )
    for f, n, pairs in _split_walk(table, degrees):
        if not pairs:
            violations.append(DegreeViolation("no-factorization", (f, n)))
        elif len(pairs) > 1:
            violations.append(DegreeViolation("non-unique-factorization", (f, n, tuple(pairs))))
    return DegreeReport(additive, tuple(violations))
