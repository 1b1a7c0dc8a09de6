"""Finite-dimensional representations by exact-rational partial isometries.

An assignment f -> S_f of square rational matrices is checked against the
representation axioms (partial isometries, the product rule, commuting
initial/final projections, orthogonality on disjoint pairs, domination on
composable pairs) and against tightness: for each selector family the join
of final projections over every minimal covering of the selected set must
equal the corresponding product of initial projections and complements.
The axioms are listed once, by ``axiom_clauses``, which the presentation
emitter in ``relations`` maps over as well.

All verdicts are exact; there are no tolerances.  The adjoint is the
transpose (real entries).

Truncation conventions: artifact pairs are exempt from the zero clauses
(their products exist beyond the bound).  The selector families and the
covering pool are scoped as the ``covers`` module states; the families
left out are exactly the ones the category criterion recovers under the
nondegeneracy surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
from operator import matmul
from typing import Iterator, Mapping

from .core import SemigroupoidTable, SgpdError, UNIT, d_set, intersects, is_monic
from .covers import CoverSpec, is_partition, selector_families, target_coverings
from .kgraph import KGraph
from .matrices import RatMat, hstack, join, rank
from .springs import find_springs


class DimensionMismatch(SgpdError):
    pass


class PreconditionUnmet(SgpdError):
    pass


class NotACategory(SgpdError):
    pass


class DegenerateRepresentation(SgpdError):
    """The nondegeneracy surrogate failed; the per-object criterion does
    not imply full tightness for this representation."""


@dataclass(frozen=True)
class Representation:
    """An assignment of dim x dim matrices to the elements of a table.

    `assign` is treated as immutable: the initial and final projection of
    every assigned matrix is computed once, on first use, and `initial`
    and `final` look them up.
    """

    table: SemigroupoidTable
    dim: int
    assign: Mapping[str, RatMat]

    def __post_init__(self):
        missing = self.table.elements - set(self.assign)
        if missing:
            raise DimensionMismatch(f"no matrix for {sorted(missing)}")
        for f in sorted(self.table.elements):
            if self.assign[f].shape != (self.dim, self.dim):
                raise DimensionMismatch(
                    f"matrix for {f} has shape {self.assign[f].shape}, "
                    f"expected {(self.dim, self.dim)}"
                )

    def mat(self, x) -> RatMat:
        if x is UNIT:
            return RatMat.identity(self.dim)
        return self.assign[x]

    @cached_property
    def _initials(self) -> dict[str, RatMat]:
        return {f: s.T @ s for f, s in self.assign.items()}

    @cached_property
    def _finals(self) -> dict[str, RatMat]:
        return {f: s @ s.T for f, s in self.assign.items()}

    def initial(self, x) -> RatMat:
        if x is UNIT:
            return RatMat.identity(self.dim)
        return self._initials[x]

    def final(self, x) -> RatMat:
        if x is UNIT:
            return RatMat.identity(self.dim)
        return self._finals[x]


@dataclass(frozen=True)
class AxiomFailure:
    tag: str
    elements: tuple[str, ...]
    got: RatMat
    want: RatMat


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    failure: AxiomFailure | None = None

    def __bool__(self) -> bool:
        return self.ok


# A clause side is None (zero) or a product of symbols: ("S", f) is S_f,
# ("S*", f) its adjoint, ("Q", f) and ("P", f) its initial and final
# projections.
Side = tuple[tuple[str, str], ...] | None


def axiom_clauses(
    table: SemigroupoidTable,
) -> Iterator[tuple[str, str, tuple[str, ...], Side, Side]]:
    """(check tag, relation family, elements, lhs, rhs) for every axiom
    clause lhs = rhs of the table, in checking order.

    The zero clauses (product-zero, annihilation) skip artifact pairs.
    """
    elements = sorted(table.elements)
    for f in elements:
        s = ("S", f)
        yield "partial-isometry", "pisom", (f,), (s, ("S*", f), s), (s,)
    for f in elements:
        for g in elements:
            lhs = (("S", f), ("S", g))
            if (f, g) in table.composable:
                yield "product", "product", (f, g), lhs, (("S", table.product[(f, g)]),)
            elif (f, g) not in table.artifact_pairs:
                yield "product-zero", "product-zero", (f, g), lhs, None
    projections = [("Q", f) for f in elements] + [("P", f) for f in elements]
    for i, a in enumerate(projections):
        for b in projections[i + 1 :]:
            yield f"commute-{a[0]}{b[0]}", "commute", (a[1], b[1]), (a, b), (b, a)
    for i, f in enumerate(elements):
        for g in elements[i + 1 :]:
            if intersects(table, f, g) is None:
                yield "disjoint", "disjoint", (f, g), (("P", f), ("P", g)), None
    for (f, g) in sorted(table.composable):
        yield "domination", "domination", (f, g), (("Q", f), ("P", g)), (("P", g),)
    for f in elements:
        for g in elements:
            if (f, g) not in table.composable and (f, g) not in table.artifact_pairs:
                yield "annihilation", "annihilation", (f, g), (("Q", f), ("P", g)), None


def check_axioms(rep: Representation) -> AxiomReport:
    """All representation axioms, exactly, in the order of axiom_clauses;
    the report carries the first failure.

    The annihilation clause is additionally re-derived from the product
    rule as an internal cross-check.
    """
    zero = RatMat.zeros(rep.dim)
    mats = {}
    for f in rep.table.elements:
        s = rep.mat(f)
        mats["S", f] = s
        mats["S*", f] = s.T
        mats["Q", f] = rep.initial(f)
        mats["P", f] = rep.final(f)

    def value(side):
        return zero if side is None else reduce(matmul, (mats[x] for x in side))

    def fail(tag, els, got, want):
        return AxiomReport(False, AxiomFailure(tag, els, got, want))

    for tag, _, els, lhs, rhs in axiom_clauses(rep.table):
        got, want = value(lhs), value(rhs)
        if got != want:
            return fail(tag, els, got, want)
        if tag == "annihilation":
            f, g = els
            derived = mats["S*", f] @ (mats["S", f] @ mats["S", g]) @ mats["S*", g]
            if derived != got:
                return fail("annihilation-derived", els, derived, got)
    return AxiomReport(True)


@dataclass(frozen=True)
class TightFailure:
    required: tuple[str, ...]
    forbidden: tuple[str, ...]
    covering: tuple[str, ...]
    lhs: RatMat
    rhs: RatMat


@dataclass(frozen=True)
class TightnessReport:
    tight: bool
    failures: tuple[TightFailure, ...]
    families_checked: int
    coverings_checked: int

    def __bool__(self) -> bool:
        return self.tight


def check_tight(
    rep: Representation, max_fg: int = 2, max_cover: int = 6
) -> TightnessReport:
    """Tightness over all selector families with up to max_fg required and
    forbidden elements; every minimal covering of each selected set is
    checked.  All failing families are collected (deterministically
    ordered), not just the first.  The join of each distinct covering, with
    its partition self-check, is computed once per call."""
    table = rep.table
    identity = RatMat.identity(rep.dim)
    complements = {g: identity - rep.initial(g) for g in table.elements}
    joins: dict[CoverSpec, tuple[tuple[str, ...], RatMat]] = {}
    failures = []
    families = 0
    coverings_checked = 0
    for required, forbidden, coverings in selector_families(table, max_fg, max_cover):
        families += 1
        factors = [rep.initial(f) for f in required] + [complements[g] for g in forbidden]
        rhs = reduce(matmul, factors)
        for spec in coverings:
            coverings_checked += 1
            if spec not in joins:
                joins[spec] = _covering_join(rep, spec)
            covering, lhs = joins[spec]
            if lhs != rhs:
                failures.append(TightFailure(required, forbidden, covering, lhs, rhs))
    return TightnessReport(not failures, tuple(failures), families, coverings_checked)


def _covering_join(rep: Representation, spec: CoverSpec) -> tuple[tuple[str, ...], RatMat]:
    """(sorted covering, join of its final projections).  On a partition the
    join must equal the plain sum, which re-checks orthogonality."""
    covering = tuple(sorted(spec.candidate))
    finals = [rep.final(h) for h in covering]
    lhs = join(finals, rep.dim)
    if is_partition(rep.table, spec) is True:
        if sum(finals, RatMat.zeros(rep.dim)) != lhs:
            raise PreconditionUnmet(
                "join and sum disagree on a partition; final "
                "projections are not orthogonal (axioms violated?)"
            )
    return covering, lhs


@dataclass(frozen=True)
class NonzeroSpring:
    element: str
    kind: str  # "spring" or "derived-dead"

    def __bool__(self) -> bool:
        return False


def spring_vanishing_check(rep: Representation):
    """Tight representations annihilate springs, and also the elements
    whose followers are all springs; scan for offenders directly."""
    report = find_springs(rep.table)
    for f in sorted(report.springs):
        if not rep.mat(f).is_zero():
            return NonzeroSpring(f, "spring")
    for f in sorted(report.derived_dead):
        if not rep.mat(f).is_zero():
            return NonzeroSpring(f, "derived-dead")
    return True


@dataclass(frozen=True)
class CollapseWitness:
    f: str
    g: str
    h: str
    reason: str

    def __bool__(self) -> bool:
        return False


def monic_collapse_check(rep: Representation):
    """Wherever fg = fh with g != h, the assigned matrices must already
    agree, via the recovery identity S_g = S_f* S_(fg)."""
    table = rep.table
    for f in sorted(table.elements):
        by_product: dict[str, list[str]] = {}
        for g in sorted(d_set(table, f)):
            by_product.setdefault(table.product[(f, g)], []).append(g)
        for fg, gs in sorted(by_product.items()):
            for g, h in combinations(gs, 2):
                if rep.mat(g) != rep.mat(h):
                    return CollapseWitness(f, g, h, "S_g != S_h")
                recovered = rep.mat(f).T @ rep.mat(fg)
                if rep.mat(g) != recovered:
                    return CollapseWitness(f, g, h, "S_g != S_f* S_fg")
    return True


def sole_idempotent_check(
    rep: Representation, f: str, e: str, max_fg: int = 2, max_cover: int = 6
) -> bool:
    """When the followers of f are exactly one idempotent e and the
    representation is tight, S_e is a projection equal to the initial
    projection of f.  Preconditions are enforced, tightness included."""
    table = rep.table
    if d_set(table, f, full=True) != frozenset({e}):
        raise PreconditionUnmet(f"followers of {f} are not exactly {{{e}}}")
    if table.product.get((e, e)) != e:
        raise PreconditionUnmet(f"{e} is not idempotent")
    if not check_tight(rep, max_fg, max_cover):
        raise PreconditionUnmet("representation is not tight")
    se = rep.mat(e)
    return se == se @ se and se == se.T and se == rep.initial(f)


@dataclass(frozen=True)
class CategoryFactsWitness:
    clause: str
    elements: tuple[str, ...]

    def __bool__(self) -> bool:
        return False


def _require_same_table(rep: Representation, kg: KGraph):
    if rep.table.elements != kg.table.elements or dict(rep.table.product) != dict(
        kg.table.product
    ):
        raise NotACategory("representation table does not match the category")


def category_facts_check(rep: Representation, kg: KGraph):
    """Object matrices are projections equal to their own initial and
    final projections; distinct objects are orthogonal; every morphism's
    initial projection is the final projection of its source object."""
    _require_same_table(rep, kg)
    zero = RatMat.zeros(rep.dim)
    for v in sorted(kg.objects):
        sv = rep.mat(v)
        if not (sv.is_projection() and sv == rep.final(v) and sv == rep.initial(v)):
            return CategoryFactsWitness("object-projection", (v,))
    for u, v in combinations(sorted(kg.objects), 2):
        if rep.final(u) @ rep.final(v) != zero:
            return CategoryFactsWitness("objects-orthogonal", (u, v))
    for f in sorted(kg.normal_form):
        if rep.initial(f) != rep.final(kg.source[f]):
            return CategoryFactsWitness("initial-is-source-final", (f,))
    return True


@dataclass(frozen=True)
class CategoryTightnessReport:
    tight: bool
    failures: tuple[TightFailure, ...]
    coverings_checked: int

    def __bool__(self) -> bool:
        return self.tight


def category_tightness(
    rep: Representation, kg: KGraph, max_cover: int = 6
) -> CategoryTightnessReport:
    """The per-object covering criterion: for every object v and every
    minimal covering H of its incoming morphisms, the join of final
    projections equals the final projection of v.  Under the nondegeneracy
    surrogate (the stacked columns of all matrices and their transposes
    span the space) this criterion is equivalent to full tightness."""
    _require_same_table(rep, kg)
    stacked = hstack(
        [rep.mat(f) for f in sorted(kg.normal_form)]
        + [rep.mat(f).T for f in sorted(kg.normal_form)]
    )
    if rank(stacked) != rep.dim:
        raise DegenerateRepresentation(
            f"combined ranges span rank {rank(stacked)} < dim {rep.dim}"
        )
    failures = []
    coverings_checked = 0
    table = rep.table
    for v in sorted(kg.objects):
        for spec in target_coverings(table, d_set(table, v), max_cover):
            coverings_checked += 1
            covering = tuple(sorted(spec.candidate))
            lhs = join((rep.final(h) for h in covering), rep.dim)
            rhs = rep.final(v)
            if lhs != rhs:
                failures.append(TightFailure((v,), (), covering, lhs, rhs))
    return CategoryTightnessReport(not failures, tuple(failures), coverings_checked)
