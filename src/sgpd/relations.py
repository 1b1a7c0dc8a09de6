"""Finite C*-relation presentations and their desk-scale cross-checks.

Relations are equations between terms built from generator symbols, their
adjoints, the unit, zero, products, sums, and joins of commuting
projection terms.  Three presentation styles are emitted:

* generic: the representation axioms of a finite table (the clauses of
  ``reps.axiom_clauses``), optionally with the tightness relations for
  every minimal covering of every selector family, scoped as the
  ``covers`` module states (leaving those off gives the Toeplitz
  presentation);
* Cuntz-Krieger: letter generators of a 0-1 matrix with the TCK families
  plus the finite-alphabet specialisation of the Exel-Laca sum relation
  (with a finite alphabet the finite-support side condition is vacuous);
* Kumjian-Pask: the four k-graph families plus covering relations derived
  from minimal coverings at each object.

Presentations carry no analytic content: cross-checking evaluates every
relation of two presentations under one concrete representation and
reports violations on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

from .core import SemigroupoidTable, SgpdError, d_set
from .covers import selector_families, target_coverings
from .kgraph import KGraph, rfns_check
from .markov import Matrix01, follow_weight
from .matrices import RatMat, join
from .reps import Representation, Side, axiom_clauses


class IncompatibleGenerators(SgpdError):
    pass


class SourcesPresent(SgpdError):
    pass


class Term:
    pass


@dataclass(frozen=True)
class Gen(Term):
    name: str


@dataclass(frozen=True)
class Adj(Term):
    name: str


@dataclass(frozen=True)
class One(Term):
    pass


@dataclass(frozen=True)
class Zero(Term):
    pass


@dataclass(frozen=True)
class Mul(Term):
    factors: tuple[Term, ...]


@dataclass(frozen=True)
class Add(Term):
    terms: tuple[Term, ...]


@dataclass(frozen=True)
class Compl(Term):
    term: Term

    def __post_init__(self):
        if not certified_projection(self.term):
            raise ValueError("complement of an uncertified projection term")


@dataclass(frozen=True)
class Join(Term):
    terms: tuple[Term, ...]

    def __post_init__(self):
        for t in self.terms:
            if not certified_projection(t):
                raise ValueError("join over an uncertified projection term")


def q_term(f: str) -> Term:
    return Mul((Adj(f), Gen(f)))


def p_term(f: str) -> Term:
    return Mul((Gen(f), Adj(f)))


def certified_projection(term: Term) -> bool:
    """Structurally a projection: unit, zero, an initial or final shape
    t*·t / t·t*, or complements, products and joins of such."""
    if isinstance(term, (One, Zero, )):
        return True
    if isinstance(term, Compl):
        return True  # validated on construction
    if isinstance(term, Join):
        return True
    if isinstance(term, Mul):
        if len(term.factors) == 2:
            a, b = term.factors
            if isinstance(a, Adj) and isinstance(b, Gen) and a.name == b.name:
                return True
            if isinstance(a, Gen) and isinstance(b, Adj) and a.name == b.name:
                return True
        return all(certified_projection(t) for t in term.factors)
    return False


def render_term(term: Term) -> str:
    if isinstance(term, Gen):
        return f"(gen {term.name})"
    if isinstance(term, Adj):
        return f"(adj {term.name})"
    if isinstance(term, One):
        return "one"
    if isinstance(term, Zero):
        return "zero"
    if isinstance(term, Mul):
        return "(mul " + " ".join(render_term(t) for t in term.factors) + ")"
    if isinstance(term, Add):
        if not term.terms:
            return "zero"
        return "(sum " + " ".join(render_term(t) for t in term.terms) + ")"
    if isinstance(term, Join):
        if not term.terms:
            return "zero"
        return "(join " + " ".join(render_term(t) for t in term.terms) + ")"
    if isinstance(term, Compl):
        return "(compl " + render_term(term.term) + ")"
    raise TypeError(f"unknown term {term!r}")


def eval_term(term: Term, lookup: Mapping[str, RatMat], dim: int) -> RatMat:
    if isinstance(term, Gen):
        if term.name not in lookup:
            raise IncompatibleGenerators(f"no matrix for generator {term.name!r}")
        return lookup[term.name]
    if isinstance(term, Adj):
        if term.name not in lookup:
            raise IncompatibleGenerators(f"no matrix for generator {term.name!r}")
        return lookup[term.name].T
    if isinstance(term, One):
        return RatMat.identity(dim)
    if isinstance(term, Zero):
        return RatMat.zeros(dim)
    if isinstance(term, Mul):
        out = RatMat.identity(dim)
        for t in term.factors:
            out = out @ eval_term(t, lookup, dim)
        return out
    if isinstance(term, Add):
        out = RatMat.zeros(dim)
        for t in term.terms:
            out = out + eval_term(t, lookup, dim)
        return out
    if isinstance(term, Join):
        return join((eval_term(t, lookup, dim) for t in term.terms), dim)
    if isinstance(term, Compl):
        return RatMat.identity(dim) - eval_term(term.term, lookup, dim)
    raise TypeError(f"unknown term {term!r}")


@dataclass(frozen=True)
class Relation:
    family: str
    lhs: Term
    rhs: Term
    note: str = ""

    def render(self) -> str:
        return f"rel: {self.family}: {render_term(self.lhs)} = {render_term(self.rhs)}"


@dataclass(frozen=True)
class Presentation:
    style: str
    generators: tuple[str, ...]
    relations: tuple[Relation, ...]

    def render(self) -> str:
        lines = [f"style: {self.style}", "generators: " + " ".join(self.generators)]
        lines.extend(r.render() for r in self.relations)
        return "\n".join(lines) + "\n"


def _finish(style: str, generators, relations) -> Presentation:
    seen = set()
    ordered = []
    for r in sorted(relations, key=lambda r: (r.family, render_term(r.lhs), render_term(r.rhs))):
        key = (r.family, render_term(r.lhs), render_term(r.rhs))
        if key not in seen:
            seen.add(key)
            ordered.append(r)
    return Presentation(style, tuple(sorted(generators)), tuple(ordered))


_SYMBOL_TERM = {"S": Gen, "S*": Adj, "Q": q_term, "P": p_term}


def _term(side: Side) -> Term:
    """The term of an axiom clause side; a single symbol stays bare."""
    if side is None:
        return Zero()
    terms = tuple(_SYMBOL_TERM[kind](f) for kind, f in side)
    return terms[0] if len(terms) == 1 else Mul(terms)


def emit_generic(
    table: SemigroupoidTable,
    tight: bool = True,
    max_fg: int = 2,
    max_cover: int = 6,
) -> Presentation:
    """Representation axioms of the table; with tight=True also one
    covering relation per minimal covering of each selector family, the
    same clauses and family scope the checkers enforce.  tight=False is the
    Toeplitz presentation."""
    rels = [
        Relation(family, _term(lhs), _term(rhs))
        for _, family, _, lhs, rhs in axiom_clauses(table)
    ]
    if tight:
        for required, forbidden, coverings in selector_families(table, max_fg, max_cover):
            factors = [q_term(f) for f in required] + [Compl(q_term(g)) for g in forbidden]
            rhs = Mul(tuple(factors))
            note = "required=" + ",".join(required) + " forbidden=" + ",".join(forbidden)
            for spec in coverings:
                lhs = Join(tuple(p_term(h) for h in sorted(spec.candidate)))
                rels.append(Relation("tight", lhs, rhs, note))
    return _finish("tight" if tight else "toeplitz", table.elements, rels)


def _subsets(items):
    items = sorted(items)
    for size in range(len(items) + 1):
        yield from (frozenset(c) for c in combinations(items, size))


def emit_cuntz_krieger(matrix: Matrix01) -> Presentation:
    """Letter-generator presentation: TCK families plus the sum relation
    tying each selector product of initial projections to the final
    projections of the letters it admits."""
    letters = list(matrix.alphabet)
    rels: list[Relation] = []
    for i in letters:
        rels.append(Relation("tck1", Mul((Gen(i), Adj(i), Gen(i))), Gen(i)))
    for i, a in enumerate(letters):
        for b in letters[i + 1 :]:
            rels.append(
                Relation("tck1", Mul((q_term(a), q_term(b))), Mul((q_term(b), q_term(a))))
            )
            rels.append(
                Relation("tck1", Mul((p_term(a), p_term(b))), Mul((p_term(b), p_term(a))))
            )
    for a in letters:
        for b in letters:
            rels.append(
                Relation("tck1", Mul((q_term(a), p_term(b))), Mul((p_term(b), q_term(a))))
            )
    for a in letters:
        for b in letters:
            if a != b:
                rels.append(Relation("tck2", Mul((Adj(a), Gen(b))), Zero()))
    for a in letters:
        for b in letters:
            lhs = Mul((q_term(a), p_term(b)))
            rhs = p_term(b) if matrix.entry(a, b) == 1 else Zero()
            rels.append(Relation("tck3", lhs, rhs))
    for required in _subsets(letters):
        for forbidden in _subsets(letters):
            lhs_factors: list[Term] = [q_term(x) for x in sorted(required)]
            lhs_factors.extend(Compl(q_term(y)) for y in sorted(forbidden))
            lhs = Mul(tuple(lhs_factors)) if lhs_factors else One()
            admitted = [
                j
                for j in letters
                if follow_weight(matrix, sorted(required), sorted(forbidden), j)
            ]
            rhs = Add(tuple(p_term(j) for j in admitted))
            note = (
                "required="
                + ",".join(sorted(required))
                + " forbidden="
                + ",".join(sorted(forbidden))
            )
            rels.append(Relation("el13", lhs, rhs, note))
    return _finish("cuntz-krieger", letters, rels)


def emit_kumjian_pask(kg: KGraph, max_cover: int = 6) -> Presentation:
    """The four k-graph relation families over all morphism generators,
    plus covering relations per object derived from minimal coverings."""
    if rfns_check(kg) is not True:
        raise SourcesPresent("degree slices are not all nonempty")
    rels: list[Relation] = []
    objects = sorted(kg.objects)
    morphisms = sorted(kg.normal_form)
    for v in objects:
        rels.append(Relation("kp1", Gen(v), Adj(v)))
        rels.append(Relation("kp1", Mul((Gen(v), Gen(v))), Gen(v)))
    for u, v in combinations(objects, 2):
        rels.append(Relation("kp1", Mul((Gen(u), Gen(v))), Zero()))
        rels.append(Relation("kp1", Mul((Gen(v), Gen(u))), Zero()))
    for (f, g) in sorted(kg.table.composable):
        rels.append(
            Relation("kp2", Mul((Gen(f), Gen(g))), Gen(kg.table.product[(f, g)]))
        )
    for f in morphisms:
        rels.append(Relation("kp3", Mul((Adj(f), Gen(f))), Gen(kg.source[f])))
    for (v, n), members in kg.slices.items():
        terms = Add(tuple(p_term(f) for f in sorted(members)))
        rels.append(Relation("kp4", Gen(v), terms, note=f"object={v} degree={n}"))
    for v in objects:
        for spec in target_coverings(kg.table, d_set(kg.table, v), max_cover):
            rels.append(
                Relation(
                    "kp-cover",
                    Gen(v),
                    Join(tuple(p_term(h) for h in sorted(spec.candidate))),
                    note=f"object={v}",
                )
            )
    return _finish("kumjian-pask", morphisms, rels)


@dataclass(frozen=True)
class CrossCheckReport:
    a_style: str
    b_style: str
    a_violations: tuple[Relation, ...]
    b_violations: tuple[Relation, ...]
    a_checked: int = 0
    b_checked: int = 0

    @property
    def a_satisfied(self) -> bool:
        return not self.a_violations

    @property
    def b_satisfied(self) -> bool:
        return not self.b_violations

    @property
    def agree(self) -> bool:
        return self.a_satisfied == self.b_satisfied

    def __bool__(self) -> bool:
        return self.a_satisfied and self.b_satisfied


def evaluate(
    pres: Presentation,
    rep: Representation,
    rename: Mapping[str, str] | None = None,
) -> tuple[Relation, ...]:
    """Violated relations of a presentation under a representation; the
    rename map sends presentation generators to table elements."""
    rename = rename or {}
    lookup: dict[str, RatMat] = {}
    for g in pres.generators:
        token = rename.get(g, g)
        if token not in rep.assign:
            raise IncompatibleGenerators(
                f"generator {g!r} (as {token!r}) has no matrix in the representation"
            )
        lookup[g] = rep.assign[token]
    bad = []
    for r in pres.relations:
        if eval_term(r.lhs, lookup, rep.dim) != eval_term(r.rhs, lookup, rep.dim):
            bad.append(r)
    return tuple(bad)


def cross_check(
    pres_a: Presentation,
    pres_b: Presentation,
    rep: Representation,
    rename_a: Mapping[str, str] | None = None,
    rename_b: Mapping[str, str] | None = None,
) -> CrossCheckReport:
    """Evaluate both presentations under one representation and report
    violations on each side; mutual satisfaction in both directions is the
    desk-scale shadow of the isomorphism theorems."""
    a_bad = evaluate(pres_a, rep, rename_a)
    b_bad = evaluate(pres_b, rep, rename_b)
    return CrossCheckReport(
        pres_a.style,
        pres_b.style,
        a_bad,
        b_bad,
        len(pres_a.relations),
        len(pres_b.relations),
    )
