"""Finite-dimensional representations by exact-rational partial isometries.

An assignment f -> S_f of square rational matrices is checked against the
representation axioms (partial isometries, the product rule, commuting
initial/final projections, orthogonality on disjoint pairs, domination on
composable pairs) and against tightness: for each selector family the join
of final projections over every minimal covering of the selected set must
equal the corresponding product of initial projections and complements.
The per-object criterion on a k-graph is the same relation with P_v on the
right, and one decider runs both.  The axioms are listed once, by
``axiom_clauses``, which the presentation emitter in ``relations`` maps
over as well.

All verdicts are exact; there are no tolerances.  The adjoint is the
transpose (real entries).  Each representation computes its symbols S_f,
S_f*, Q_f = S_f* S_f and P_f = S_f S_f* once, into one map that every
check reads.

Projection atoms: when every initial and final projection Q_f, P_f is a
projection and they pairwise commute, they generate a finite Boolean
algebra whose atoms (at most ``dim`` of them) are found once per
representation.  Each Q_f and P_f is then a bitmask over the atoms, so a
meet is ``&``, a complement ``full & ~m`` and a join ``|``.  The masks of
the projection symbols, the meet of a product and the matrix of a mask (the
sum of the atoms under it) live on ``ProjectionAtoms``, the only route by
which ``check_axioms``, ``check_tight`` and ``category_tightness`` decide
or build a projection; the presentation evaluator in ``relations`` reads
the masks too.  With atoms, ``check_axioms`` multiplies out only the
product clauses and decides the rest on masks; without, it checks the S
clauses on matrices and reports the first failing commute clause.
Tightness requires the atoms: both checks raise ``NoProjectionAtoms``
(naming the first non-projection or non-commuting pair) when there are
none, which never happens after the axioms pass, and both return a
``TightnessReport``.

Truncation conventions: artifact pairs are exempt from the zero clauses
(their products exist beyond the bound).  The selector families, the
per-object families and the covering pool are scoped as the ``covers``
module states; the selector families left out are exactly the ones the
category criterion recovers under the nondegeneracy surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, combinations
from operator import matmul
from typing import Iterable, Iterator, Mapping

from .core import SemigroupoidTable, SgpdError, Witness, d_set
from .covers import CoverSpec, is_partition, object_families, selector_families
from .kgraph import KGraph
from .matrices import RatMat
from .springs import find_springs


class DimensionMismatch(SgpdError):
    pass


class PreconditionUnmet(SgpdError):
    pass


class NoProjectionAtoms(PreconditionUnmet):
    """The initial and final projections generate no Boolean algebra: one
    of them is not a projection, or two of them do not commute."""


class NotACategory(SgpdError):
    pass


class DegenerateRepresentation(SgpdError):
    """The nondegeneracy surrogate failed; the per-object criterion does
    not imply full tightness for this representation."""


@dataclass(frozen=True)
class Representation:
    """An assignment of dim x dim matrices to the elements of a table.

    `assign` is treated as immutable: each S_f, its adjoint and its initial
    and final projections are computed once, on first use, into one symbol
    map (`_symbols`) that `initial`, `final` and the checks read; elements
    with equal matrices share one adjoint and one pair of projections.  So are
    the projection atoms (`_atoms`).
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

    def mat(self, x: str) -> RatMat:
        return self.assign[x]

    @cached_property
    def _symbols(self) -> dict[tuple[str, str], RatMat]:
        out = {}
        derived: dict[RatMat, tuple[RatMat, RatMat, RatMat]] = {}
        for f, s in self.assign.items():
            d = derived.get(s)
            if d is None:
                t = s.T
                d = derived[s] = (t, t @ s, s @ t)
            out["S", f] = s
            out["S*", f], out["Q", f], out["P", f] = d
        return out

    @cached_property
    def _atoms(self) -> ProjectionAtoms | None:
        return projection_atoms(self)

    def initial(self, x: str) -> RatMat:
        return self._symbols["Q", x]

    def final(self, x: str) -> RatMat:
        return self._symbols["P", x]


@dataclass(frozen=True)
class ProjectionAtoms:
    """The initial and final projections of a representation as bitmasks
    over the atoms of the Boolean algebra they generate: bit i is set when
    atom i (the matrix `atoms[i]`) lies under the projection.  `full`
    (every atom) is the identity."""

    initial: Mapping[str, int]
    final: Mapping[str, int]
    full: int
    atoms: tuple[RatMat, ...]
    dim: int

    @cached_property
    def masks(self) -> dict[tuple[str, str], int]:
        """The mask of each projection symbol: ("Q", f) is Q_f, ("P", f) is P_f."""
        out = {("Q", f): m for f, m in self.initial.items()}
        out.update((("P", f), m) for f, m in self.final.items())
        return out

    def meet(self, masks: Iterable[int]) -> int:
        """The mask of a product of these projections: the AND of their
        masks (they commute), and `full` for the empty product."""
        out = self.full
        for m in masks:
            out &= m
        return out

    def matrix(self, mask: int) -> RatMat:
        """The projection with this mask: the sum of the atoms under it
        (exact, since the atoms are pairwise orthogonal)."""
        under = (a for i, a in enumerate(self.atoms) if mask >> i & 1)
        return sum(under, RatMat.zeros(self.dim))


def _projections(elements: list[str]) -> list[tuple[str, str]]:
    """The symbol of every Q_f, then every P_f, in the order of the commute
    clauses."""
    return [("Q", f) for f in elements] + [("P", f) for f in elements]


def projection_atoms(rep: Representation) -> ProjectionAtoms | None:
    """The atoms of the initial and final projections, or None when one of
    them is not a projection or two of them do not commute.

    Starting from the identity, each distinct value p splits every atom A
    into Ap and A - Ap, keeping the nonzero parts; Ap == pA is required,
    since commuting with the current atoms is commuting with every earlier
    value.  Each atom carries the set of values it lies under, as a bitmask
    over the values, from which the projection masks are read."""
    elements = sorted(rep.table.elements)
    values: dict[RatMat, int] = {}
    index = {
        x: values.setdefault(rep._symbols[x], len(values)) for x in _projections(elements)
    }
    identity = RatMat.identity(rep.dim)
    atoms = [] if identity.is_zero() else [(identity, 0)]
    for p, i in values.items():
        if not p.is_projection():
            return None
        split = []
        for a, under in atoms:
            ap = a @ p
            if ap != p @ a:
                return None
            rest = a - ap
            if not ap.is_zero():
                split.append((ap, under | 1 << i))
            if not rest.is_zero():
                split.append((rest, under))
        atoms = split
    masks = [
        sum(1 << j for j, (_, under) in enumerate(atoms) if under >> i & 1)
        for i in range(len(values))
    ]
    initial = {f: masks[index["Q", f]] for f in elements}
    final = {f: masks[index["P", f]] for f in elements}
    matrices = tuple(a for a, _ in atoms)
    return ProjectionAtoms(initial, final, (1 << len(atoms)) - 1, matrices, rep.dim)


def _required_atoms(rep: Representation) -> ProjectionAtoms:
    """The projection atoms, which tightness is decided on; NoProjectionAtoms
    names the first Q_f or P_f that is not a projection, or else the first
    pair that does not commute, when there are none."""
    atoms = rep._atoms
    if atoms is not None:
        return atoms
    symbols = rep._symbols
    for kind, f in _projections(sorted(rep.table.elements)):
        if not symbols[kind, f].is_projection():
            raise NoProjectionAtoms(
                f"{kind}_{f} is not a projection: S_{f} is not a partial isometry"
            )
    a, b = _first_noncommuting(rep)[3]
    raise NoProjectionAtoms(f"{a[0]}_{a[1]} and {b[0]}_{b[1]} do not commute")


def _first_noncommuting(rep: Representation) -> Clause:
    """The first commute clause that fails.  Only for a representation
    whose Q_f and P_f are all projections but have no atoms: then two of
    them do not commute."""
    symbols = rep._symbols
    for clause in _commute_clauses(rep.table):
        a, b = clause[3]
        if symbols[a] @ symbols[b] != symbols[b] @ symbols[a]:
            return clause
    raise AssertionError("projection atoms missing without an obstruction")


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
Clause = tuple[str, str, tuple[str, ...], Side, Side]


def axiom_clauses(table: SemigroupoidTable) -> Iterator[Clause]:
    """(check tag, relation family, elements, lhs, rhs) for every axiom
    clause lhs = rhs of the table, in checking order: the S clauses, the
    commute clauses, the disjoint and domination clauses, then annihilation.

    The zero clauses (product-zero, annihilation) skip artifact pairs.
    """
    families = _s_clauses, _commute_clauses, _projection_clauses, _annihilation_clauses
    return chain.from_iterable(family(table) for family in families)


def _s_clauses(table: SemigroupoidTable) -> Iterator[Clause]:
    """Partial-isometry, product and product-zero clauses."""
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


def _commute_clauses(table: SemigroupoidTable) -> Iterator[Clause]:
    """Every pair of projections commutes, in the order of `_projections`."""
    projections = _projections(sorted(table.elements))
    for i, a in enumerate(projections):
        for b in projections[i + 1 :]:
            yield f"commute-{a[0]}{b[0]}", "commute", (a[1], b[1]), (a, b), (b, a)


def _projection_clauses(table: SemigroupoidTable) -> Iterator[Clause]:
    """Disjoint and domination clauses.  f and g are disjoint when they have
    no common multiple (`core.intersects` is None)."""
    elements = sorted(table.elements)
    multiples = table.multiples
    for i, f in enumerate(elements):
        for g in elements[i + 1 :]:
            if multiples[f].isdisjoint(multiples[g]):
                yield "disjoint", "disjoint", (f, g), (("P", f), ("P", g)), None
    for (f, g) in sorted(table.composable):
        yield "domination", "domination", (f, g), (("Q", f), ("P", g)), (("P", g),)


def _annihilation_clauses(table: SemigroupoidTable) -> Iterator[Clause]:
    """Q_f P_g = 0 on the pairs of the product-zero clauses, in their order."""
    for tag, _, els, _, _ in _s_clauses(table):
        if tag == "product-zero":
            yield "annihilation", "annihilation", els, (("Q", els[0]), ("P", els[1])), None


def check_axioms(rep: Representation) -> AxiomReport:
    """All representation axioms, exactly, in the order of axiom_clauses;
    the report carries the first failure and the matrices of its sides.

    1. The S clauses.  With atoms every Q_f is a projection, so every S_f
       is a partial isometry (for real matrices Q_f^2 = Q_f exactly when
       S_f S_f* S_f = S_f), and product-zero is Q_f P_g = 0 on masks
       (S_f S_g = S_f (Q_f P_g) S_g, Q_f P_g = S_f* (S_f S_g) S_g*): only
       the product clauses are multiplied out.  Without atoms, all of them.
    2. Without atoms, the first failing commute clause: once every S_f is
       a partial isometry, every Q_f and P_f is a projection, so two of
       them do not commute.
    3. With atoms, the disjoint and domination clauses on masks; the
       annihilation clauses restate product-zero and are never drawn.
    """
    zero = RatMat.zeros(rep.dim)
    mats = rep._symbols
    atoms = rep._atoms

    def value(side):
        return zero if side is None else reduce(matmul, (mats[x] for x in side))

    def fail(tag, els, got, want):
        return AxiomReport(False, AxiomFailure(tag, els, got, want))

    for tag, _, els, lhs, rhs in _s_clauses(rep.table):
        if atoms is None or tag == "product":
            holds = value(lhs) == value(rhs)
        else:  # with atoms a partial isometry holds; product-zero is Q_f P_g = 0
            holds = tag == "partial-isometry" or not atoms.initial[els[0]] & atoms.final[els[1]]
        if not holds:
            return fail(tag, els, value(lhs), value(rhs))
    if atoms is None:
        tag, _, els, lhs, rhs = _first_noncommuting(rep)
        return fail(tag, els, value(lhs), value(rhs))
    masks = atoms.masks

    def meet(side):
        return 0 if side is None else atoms.meet([masks[x] for x in side])

    for tag, _, els, lhs, rhs in _projection_clauses(rep.table):
        if meet(lhs) != meet(rhs):
            return fail(tag, els, value(lhs), value(rhs))
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
    checked, and all failing families are collected, in order.  A family's
    product is the meet of its Q masks and Q complements on the atoms
    (NoProjectionAtoms when there are none, never after the axioms pass)."""
    atoms = _required_atoms(rep)
    families = selector_families(rep.table, max_fg, max_cover)
    return _tightness(rep.table, atoms, families, atoms.initial)


def _tightness(
    table: SemigroupoidTable,
    atoms: ProjectionAtoms,
    families: Iterable[tuple[tuple[str, ...], tuple[str, ...], list[CoverSpec]]],
    select: Mapping[str, int],
) -> TightnessReport:
    """The covering relation over (required, forbidden, coverings) families:
    each covering's join of final masks must equal the meet of the required
    part's `select` masks and the forbidden part's complements.  Each
    target's joins are found (with the partition self-check) once per call,
    so a family costs one comparison per distinct join; a failure's matrices
    are the sums of the atoms under its masks."""
    by_target: dict[frozenset[str], tuple[list[int], set[int]]] = {}
    failures = []
    families_checked = 0
    coverings_checked = 0
    for required, forbidden, coverings in families:
        families_checked += 1
        coverings_checked += len(coverings)
        if not coverings:
            continue
        target = coverings[0].target
        if target not in by_target:
            by_target[target] = _join_masks(table, atoms.final, coverings)
        joins, distinct = by_target[target]
        rhs = atoms.full
        for f in required:
            rhs &= select[f]
        for g in forbidden:
            rhs &= ~select[g]
        if distinct != {rhs}:
            product = atoms.matrix(rhs)
            for spec, lhs in zip(coverings, joins):
                if lhs != rhs:
                    covering = tuple(sorted(spec.candidate))
                    failures.append(
                        TightFailure(required, forbidden, covering, atoms.matrix(lhs), product)
                    )
    return TightnessReport(not failures, tuple(failures), families_checked, coverings_checked)


def _join_masks(
    table: SemigroupoidTable, final: Mapping[str, int], coverings: list[CoverSpec]
) -> tuple[list[int], set[int]]:
    """The join mask of each covering of one target, in order, and the set
    of them.  On a partition the join must equal the plain sum of the final
    projections, that is, the members' masks must be pairwise disjoint;
    this re-checks orthogonality, walking the table only for a covering
    whose members' masks overlap."""
    joins = []
    for spec in coverings:
        joined = 0
        overlap = False
        for h in spec.candidate:
            overlap = overlap or bool(joined & final[h])
            joined |= final[h]
        if overlap and is_partition(table, spec) is True:
            raise PreconditionUnmet(
                "join and sum disagree on a partition; final "
                "projections are not orthogonal (axioms violated?)"
            )
        joins.append(joined)
    return joins, set(joins)


@dataclass(frozen=True)
class NonzeroSpring(Witness):
    element: str
    kind: str  # "spring" or "derived-dead"


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
class CollapseWitness(Witness):
    f: str
    g: str
    h: str
    reason: str


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
class CategoryFactsWitness(Witness):
    clause: str
    elements: tuple[str, ...]


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


def category_tightness(
    rep: Representation, kg: KGraph, max_cover: int = 6
) -> TightnessReport:
    """The per-object covering criterion: for every object v and every
    minimal covering H of its incoming morphisms, the join of final
    projections equals the final projection of v.  Under the nondegeneracy
    surrogate (the ranges of all S_f and S_f* span the space) this criterion
    is equivalent to full tightness.

    The decider of check_tight over `covers.object_families`, with P_v on
    the right, so `families_checked` counts the objects; NoProjectionAtoms
    when there are no atoms.  The range of S_f is that of P_f and the range
    of S_f* that of Q_f, and the ranges of commuting projections sum to the
    range of their join: the surrogate holds exactly when the OR of every Q
    and P mask is full, and otherwise the rank spanned is the trace of that
    join."""
    _require_same_table(rep, kg)
    atoms = _required_atoms(rep)
    spanned = 0
    for f in kg.normal_form:
        spanned |= atoms.initial[f] | atoms.final[f]
    if spanned != atoms.full:
        raise DegenerateRepresentation(
            f"combined ranges span rank {atoms.matrix(spanned).trace()} < dim {rep.dim}"
        )
    families = object_families(rep.table, kg.objects, max_cover)
    return _tightness(rep.table, atoms, families, atoms.final)
