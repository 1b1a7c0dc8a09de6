"""Coverings and partitions of element subsets.

H covers X when every element of X admits a common multiple with some
member of H; a partition is a covering of pairwise disjoint members,
equivalently a maximal pairwise-disjoint subset.  Tightness checks only
need the inclusion-minimal coverings: the join of final projections is
monotone in the covering, so equality on a sub-covering carries to every
super-covering.

The minimal coverings of a target are the minimal hitting sets of its
elements' neighbour families (the pool members each target element
intersects).  They are enumerated with MMCS (Murakami-Uno) after the
families are reduced to the inclusion-minimal distinct ones, which keeps
the hitting sets: Tr(H) = Tr(min H).

Both tightness scopes are stated here once, for the one decider in
``reps``, the emitters in ``relations`` and the CLI.  Selector families
(required, forbidden) are drawn from the non-boundary elements, and the
required part starts with one element: an empty required part asserts a
global nondegeneracy-style identity that a finite truncation cannot
certify.  The per-object families of a category are ((v,), ()) with the
followers of v (its incoming morphisms) as the target.  The coverings of a
target set are pooled from the target minus the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .core import SemigroupoidTable, SgpdError, Witness, d_set, divides, intersects

# search nodes the covering enumeration may visit before it gives up
NODE_CAP = 200_000


class CandidateNotSubset(SgpdError):
    """Covering candidates must be drawn from the target set."""


class NotACovering(SgpdError):
    pass


class BoundExceededError(SgpdError):
    """Work past a bound: a minimal covering larger than the requested
    size exists, the covering search passed NODE_CAP, a Markov truncation
    would have more than `markov.WORD_CAP` words, a k-graph truncation
    more than `kgraph.WORD_CAP` edge words, or a Cuntz-Krieger presentation
    more than `relations.EL13_CAP` el13 relations.  These three caps are
    checked on a count, before anything is built."""

    def __init__(self, message, oversized=None):
        super().__init__(message)
        self.oversized = oversized


@dataclass(frozen=True)
class CoverSpec:
    target: frozenset[str]
    candidate: frozenset[str]

    def __post_init__(self):
        if not self.candidate <= self.target:
            raise CandidateNotSubset(
                f"candidates {sorted(self.candidate - self.target)} outside target"
            )


@dataclass(frozen=True)
class Uncovered(Witness):
    element: str


@dataclass(frozen=True)
class IntersectingPair(Witness):
    a: str
    b: str
    common_multiple: str


def is_covering(table: SemigroupoidTable, spec: CoverSpec):
    """True, or the least element of the target meeting no candidate."""
    for f in sorted(spec.target):
        if not any(intersects(table, f, h) for h in spec.candidate):
            return Uncovered(f)
    return True


def is_partition(table: SemigroupoidTable, spec: CoverSpec):
    """Covering + pairwise disjointness; the witness is whichever fails first."""
    members = sorted(spec.candidate)
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            m = intersects(table, a, b)
            if m is not None:
                return IntersectingPair(a, b, m)
    return is_covering(table, spec)


def check_maximality(table: SemigroupoidTable, target, antichain) -> bool:
    """No element of the target can join `antichain` and stay pairwise
    disjoint: partitions are exactly the maximal antichains."""
    target = frozenset(target)
    antichain = frozenset(antichain)
    if not antichain <= target:
        raise CandidateNotSubset("antichain not inside target")
    verdict = is_partition(table, CoverSpec(target, antichain))
    if isinstance(verdict, IntersectingPair):
        raise NotACovering(f"antichain members {verdict.a}, {verdict.b} intersect")
    return verdict is True


def prune_covering(table: SemigroupoidTable, spec: CoverSpec) -> CoverSpec:
    """Drop every member divisible by another member (of an equivalent
    pair, the greater name), leaving a division-free covering.

    Whether a removes b depends only on the pair, and every pair that
    survives one pass was tested while both were kept, so a second pass
    would remove nothing.  Anything intersecting a multiple intersects the
    divisor, so the result still covers; this is re-verified anyway.
    """
    if is_covering(table, spec) is not True:
        raise NotACovering("prune_covering needs a covering to start from")
    kept = sorted(spec.candidate)
    for a in list(kept):
        for b in list(kept):
            if a == b or b not in kept or a not in kept:
                continue
            if divides(table, a, b) and (not divides(table, b, a) or a < b):
                kept.remove(b)
    pruned = CoverSpec(spec.target, frozenset(kept))
    if is_covering(table, pruned) is not True:
        raise NotACovering("pruning broke the covering; table is inconsistent")
    return pruned


def _minimal_hitting_sets(families: list[frozenset[str]]):
    """All inclusion-minimal sets hitting every family, sorted.

    MMCS (Murakami-Uno, *Efficient algorithms for dualizing large-scale
    hypergraphs*, 2014) on int bitsets.  The families are first reduced to
    the inclusion-minimal distinct ones, which leaves the minimal hitting
    sets unchanged: Tr(H) = Tr(min H).  The search branches on the
    uncovered family with the fewest candidates; each chosen element keeps
    its critical families (those only it hits), and a child that would
    leave a chosen element with none is skipped, so every leaf is minimal
    and each minimal set is reached exactly once.
    """
    pool = sorted(set().union(*families))
    bit = {h: 1 << i for i, h in enumerate(pool)}
    masks = sorted(
        {sum(bit[h] for h in fam) for fam in families},
        key=lambda m: (m.bit_count(), m),
    )
    edges: list[int] = []
    for m in masks:
        if not any(e & m == e for e in edges):
            edges.append(m)
    # element i -> the edges it hits, as a bitset over edge indices
    hits = [
        sum(1 << j for j, e in enumerate(edges) if e >> i & 1) for i in range(len(pool))
    ]
    results: list[tuple[int, ...]] = []
    chosen: list[int] = []
    nodes = 0

    def rec(cand: int, uncov: int, crit: list[int]):
        nonlocal nodes
        nodes += 1
        if nodes > NODE_CAP:
            raise BoundExceededError("covering enumeration exceeded the search cap")
        if not uncov:
            results.append(tuple(sorted(chosen)))
            return
        branch, fewest = 0, len(pool) + 1
        rest = uncov
        while rest:
            low = rest & -rest
            options = edges[low.bit_length() - 1] & cand
            count = options.bit_count()
            if count == 0:
                return
            if count < fewest:
                branch, fewest = options, count
            rest ^= low
        # each option returns to CAND after its own branch, so a set is
        # reached only under its last member in the branch family
        cand &= ~branch
        while branch:
            low = branch & -branch
            v = low.bit_length() - 1
            hv = hits[v]
            kept = [c & ~hv for c in crit]
            if all(kept):
                chosen.append(v)
                rec(cand, uncov & ~hv, kept + [uncov & hv])
                chosen.pop()
            cand |= low
            branch ^= low

    rec((1 << len(pool)) - 1, (1 << len(edges)) - 1, [])
    return [frozenset(pool[i] for i in s) for s in sorted(results)]


def minimal_coverings(
    table: SemigroupoidTable,
    target: Iterable[str],
    max_size: int = 6,
    pool: Iterable[str] | None = None,
) -> list[CoverSpec]:
    """All inclusion-minimal coverings of the target with members from
    `pool` (default: the target itself), deterministically ordered.

    Raises BoundExceededError when a minimal covering has more than
    `max_size` members: an incomplete list would silently weaken any
    tightness check built on it.  Returns [] when no covering exists.
    """
    target = frozenset(target)
    pool = target if pool is None else frozenset(pool) & target
    if not target:
        return [CoverSpec(frozenset(), frozenset())]
    neighbours = []
    for t in sorted(target):
        fam = frozenset(h for h in pool if intersects(table, t, h) is not None)
        if not fam:
            return []  # t cannot be covered from this pool
        neighbours.append(fam)
    hitting = _minimal_hitting_sets(neighbours)
    oversized = [s for s in hitting if len(s) > max_size]
    if oversized:
        raise BoundExceededError(
            f"minimal covering of size {len(oversized[0])} exceeds max_size={max_size}",
            oversized=sorted(oversized[0]),
        )
    return [CoverSpec(target, s) for s in hitting]


def target_coverings(
    table: SemigroupoidTable, target: frozenset[str], max_size: int
) -> list[CoverSpec]:
    """The minimal coverings of a target, pooled from its non-boundary part."""
    return minimal_coverings(table, target, max_size, pool=target - table.boundary)


def selector_families(
    table: SemigroupoidTable, max_fg: int, max_cover: int
) -> Iterator[tuple[tuple[str, ...], tuple[str, ...], list[CoverSpec]]]:
    """(required, forbidden, coverings) for every selector family with up to
    `max_fg` required (at least one) and forbidden non-boundary elements,
    each part sorted; the coverings are those of the family's full common
    followers, computed once per distinct target."""
    active = sorted(table.elements - table.boundary)
    sizes = range(1, min(max_fg, len(active)) + 1)
    subsets = [c for size in sizes for c in combinations(active, size)]
    # a target is the meet of the required parts' full followers minus the
    # union of the forbidden parts'; both are taken once per subset
    full = table.full_followers
    meets = [frozenset.intersection(*(full[f] for f in s)) for s in subsets]
    unions = [frozenset()] + [frozenset().union(*(full[f] for f in s)) for s in subsets]
    coverings: dict[frozenset[str], list[CoverSpec]] = {}
    for required, meet in zip(subsets, meets):
        for forbidden, union in zip([()] + subsets, unions):
            target = meet - union
            if target not in coverings:
                coverings[target] = target_coverings(table, target, max_cover)
            yield required, forbidden, coverings[target]


def object_families(
    table: SemigroupoidTable, objects: Iterable[str], max_cover: int
) -> Iterator[tuple[tuple[str, ...], tuple[str, ...], list[CoverSpec]]]:
    """((v,), (), coverings) for every object v, in sorted order: the
    per-object families, whose coverings are those of the followers of v."""
    for v in sorted(objects):
        yield (v,), (), target_coverings(table, d_set(table, v), max_cover)
