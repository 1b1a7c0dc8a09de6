"""Coverings and partitions of element subsets.

H covers X when every element of X admits a common multiple with some
member of H; a partition is a covering of pairwise disjoint members,
equivalently a maximal pairwise-disjoint subset.  Tightness checks only
need the inclusion-minimal coverings: the join of final projections is
monotone in the covering, so equality on a sub-covering carries to every
super-covering.

The tightness scope is stated here once, for the checkers in ``reps``, the
emitters in ``relations`` and the CLI.  Selector families (required,
forbidden) are drawn from the non-boundary elements, and the required part
starts with one element: an empty required part asserts a global
nondegeneracy-style identity that a finite truncation cannot certify.  The
coverings of a target set are pooled from the target minus the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .core import SemigroupoidTable, SgpdError, common_followers, divides, intersects

# search nodes the covering enumeration may visit before it gives up
NODE_CAP = 200_000


class CandidateNotSubset(SgpdError):
    """Covering candidates must be drawn from the target set."""


class NotACovering(SgpdError):
    pass


class BoundExceededError(SgpdError):
    """A minimal covering larger than the requested bound exists."""

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
class Uncovered:
    element: str

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class IntersectingPair:
    a: str
    b: str
    common_multiple: str

    def __bool__(self) -> bool:
        return False


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
    disjoint.  Partitions are exactly the maximal antichains, which the
    test suite cross-checks against is_partition."""
    target = frozenset(target)
    antichain = frozenset(antichain)
    if not antichain <= target:
        raise CandidateNotSubset("antichain not inside target")
    members = sorted(antichain)
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if intersects(table, a, b) is not None:
                raise NotACovering(f"antichain members {a}, {b} intersect")
    for f in sorted(target - antichain):
        if all(intersects(table, f, h) is None for h in antichain):
            return False
    return True


def prune_covering(table: SemigroupoidTable, spec: CoverSpec) -> CoverSpec:
    """Drop members divisible by another member until division-free.

    Anything intersecting a multiple intersects the divisor (division is
    transitive), so the result still covers; this is re-verified anyway.
    """
    if is_covering(table, spec) is not True:
        raise NotACovering("prune_covering needs a covering to start from")
    kept = sorted(spec.candidate)
    changed = True
    while changed:
        changed = False
        for a in list(kept):
            for b in list(kept):
                if a == b or b not in kept or a not in kept:
                    continue
                if divides(table, a, b) and (not divides(table, b, a) or a < b):
                    kept.remove(b)
                    changed = True
    pruned = CoverSpec(spec.target, frozenset(kept))
    if is_covering(table, pruned) is not True:
        raise NotACovering("pruning broke the covering; table is inconsistent")
    return pruned


def _minimal_hitting_sets(families: list[frozenset[str]]):
    """All inclusion-minimal sets hitting every family, enumerated by
    branching on the first unhit family with earlier siblings banned."""
    results: list[frozenset[str]] = []
    nodes = 0

    def rec(chosen: frozenset[str], banned: frozenset[str]):
        nonlocal nodes
        nodes += 1
        if nodes > NODE_CAP:
            raise BoundExceededError("covering enumeration exceeded the search cap")
        unhit = [fam for fam in families if not fam & chosen]
        if not unhit:
            results.append(chosen)
            return
        fam = min(unhit, key=lambda s: (len(s - banned), sorted(s)))
        options = sorted(fam - banned)
        if not options:
            return
        local_ban = set(banned)
        for h in options:
            rec(chosen | {h}, frozenset(local_ban))
            local_ban.add(h)

    rec(frozenset(), frozenset())
    # the sibling bans make sets unique but not necessarily minimal
    minimal = [
        s for s in results if not any(t < s for t in results)
    ]
    return sorted(set(minimal), key=lambda s: tuple(sorted(s)))


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
    subsets = [c for size in range(1, max_fg + 1) for c in combinations(active, size)]
    coverings: dict[frozenset[str], list[CoverSpec]] = {}
    for required in subsets:
        for forbidden in [()] + subsets:
            target = common_followers(table, required, forbidden, full=True)
            if target not in coverings:
                coverings[target] = target_coverings(table, target, max_cover)
            yield required, forbidden, coverings[target]
