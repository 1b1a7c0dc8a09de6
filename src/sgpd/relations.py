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
reports violations on both sides.  When the representation has projection
atoms (see ``reps``), a relation whose two sides are built from Q_f, P_f,
one and zero by products, joins and complements is decided on atom masks
(`atom_mask`); every other relation is evaluated on matrices.

Each emitter call keeps one map from the clause symbols S_f, S_f*, Q_f and
P_f to their terms, so each of those terms is built once per call and
shared by every relation that uses it; nothing is cached across calls.
Every term computes its hash once, when it is built, so the memo that
evaluates a presentation finds a shared sub-term in O(1); and it stores
its text the first time it is rendered, so each term is rendered once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import matmul, or_
from typing import Mapping

from .core import SemigroupoidTable, SgpdError
from .covers import BoundExceededError, object_families, selector_families
from .kgraph import KGraph, rfns_check
from .markov import Matrix01, follow_weight
from .matrices import RatMat, join
from .reps import ProjectionAtoms, Representation, Side, axiom_clauses

# el13 relations (4^n for n letters) the Cuntz-Krieger emitter may emit;
# 8 letters take seconds, 10 take minutes
EL13_CAP = 4**8


class IncompatibleGenerators(SgpdError):
    pass


class SourcesPresent(SgpdError):
    pass


class Term:
    """A term of a relation: a frozen dataclass (see `_term`) that computes
    its hash from its class and fields once, when they are set, so hashing
    it never re-hashes its sub-terms.  `render_term` stores the term's text
    on it the first time it renders it; the hash and equality never read
    the text."""

    _text = None

    def __post_init__(self):
        # only the dataclass fields are in vars(self) at this point
        object.__setattr__(self, "_hash", hash((self.__class__, *vars(self).values())))

    def __hash__(self) -> int:
        return self._hash


def _term(cls):
    """A frozen dataclass Term keeping the hash computed by Term, which
    the dataclass decorator would otherwise replace with one over the
    fields."""
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = Term.__hash__
    return cls


@_term
class Gen(Term):
    name: str


@_term
class Adj(Term):
    name: str


@_term
class One(Term):
    pass


@_term
class Zero(Term):
    pass


@_term
class Mul(Term):
    factors: tuple[Term, ...]


@_term
class Add(Term):
    terms: tuple[Term, ...]


@_term
class Compl(Term):
    term: Term

    def __post_init__(self):
        if not certified_projection(self.term):
            raise ValueError("complement of an uncertified projection term")
        super().__post_init__()


@_term
class Join(Term):
    terms: tuple[Term, ...]

    def __post_init__(self):
        for t in self.terms:
            if not certified_projection(t):
                raise ValueError("join over an uncertified projection term")
        super().__post_init__()


class _Symbols(dict):
    """The terms of the clause symbols of one emitter call, each built once:
    ("S", f) is (gen f), ("S*", f) is (adj f), and ("Q", f) and ("P", f) are
    the initial and final projection products of those two."""

    def __missing__(self, key: tuple[str, str]) -> Term:
        kind, f = key
        if kind == "S":
            term = Gen(f)
        elif kind == "S*":
            term = Adj(f)
        else:
            s, t = self["S", f], self["S*", f]
            term = Mul((t, s)) if kind == "Q" else Mul((s, t))
        self[key] = term
        return term


def q_term(f: str) -> Term:
    return _Symbols()["Q", f]


def p_term(f: str) -> Term:
    return _Symbols()["P", f]


def _projection_symbol(term: Term) -> tuple[str, str] | None:
    """("Q", f) for the initial shape (mul (adj f) (gen f)), ("P", f) for
    the final shape (mul (gen f) (adj f)), and None for any other term."""
    if isinstance(term, Mul) and len(term.factors) == 2:
        a, b = term.factors
        if isinstance(a, Adj) and isinstance(b, Gen) and a.name == b.name:
            return "Q", a.name
        if isinstance(a, Gen) and isinstance(b, Adj) and a.name == b.name:
            return "P", a.name
    return None


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
        if _projection_symbol(term) is not None:
            return True
        return all(certified_projection(t) for t in term.factors)
    return False


def render_term(term: Term) -> str:
    """The text of a term, rendered once: it is stored on the term, so a
    sub-term shared by many relations is rendered once per presentation."""
    text = term._text
    if text is not None:
        return text
    if isinstance(term, Mul):
        text = "(mul " + " ".join([render_term(t) for t in term.factors]) + ")"
    elif isinstance(term, Gen):
        text = f"(gen {term.name})"
    elif isinstance(term, Adj):
        text = f"(adj {term.name})"
    elif isinstance(term, One):
        text = "one"
    elif isinstance(term, Zero):
        text = "zero"
    elif isinstance(term, (Add, Join)) and not term.terms:
        text = "zero"
    elif isinstance(term, Add):
        text = "(sum " + " ".join([render_term(t) for t in term.terms]) + ")"
    elif isinstance(term, Join):
        text = "(join " + " ".join([render_term(t) for t in term.terms]) + ")"
    elif isinstance(term, Compl):
        text = "(compl " + render_term(term.term) + ")"
    else:
        raise TypeError(f"unknown term {term!r}")
    object.__setattr__(term, "_text", text)
    return text


def eval_term(
    term: Term,
    lookup: Mapping[str, RatMat],
    dim: int,
    memo: dict[Term, RatMat] | None = None,
) -> RatMat:
    """The matrix of a term, with generators read from `lookup`.  `memo`
    holds the values of terms already evaluated under the same lookup and
    dim; each sub-term is evaluated once per memo."""
    if memo is None:
        memo = {}
    value = memo.get(term)
    if value is not None:
        return value
    if isinstance(term, (Gen, Adj)):
        if term.name not in lookup:
            raise IncompatibleGenerators(f"no matrix for generator {term.name!r}")
        value = lookup[term.name] if isinstance(term, Gen) else lookup[term.name].T
    elif isinstance(term, One):
        value = RatMat.identity(dim)
    elif isinstance(term, Zero):
        value = RatMat.zeros(dim)
    elif isinstance(term, Mul):
        factors = [eval_term(t, lookup, dim, memo) for t in term.factors]
        value = reduce(matmul, factors) if factors else RatMat.identity(dim)
    elif isinstance(term, Add):
        value = RatMat.zeros(dim)
        for t in term.terms:
            value = value + eval_term(t, lookup, dim, memo)
    elif isinstance(term, Join):
        value = join((eval_term(t, lookup, dim, memo) for t in term.terms), dim)
    elif isinstance(term, Compl):
        value = RatMat.identity(dim) - eval_term(term.term, lookup, dim, memo)
    else:
        raise TypeError(f"unknown term {term!r}")
    memo[term] = value
    return value


_UNWALKED = object()


def atom_mask(
    term: Term,
    symbols: Mapping[tuple[str, str], int],
    atoms: ProjectionAtoms,
    memo: dict[Term, int | None],
) -> int | None:
    """The atom mask of a term built from Q_f, P_f, one and zero by
    products, joins and complements, or None for any other term (one with
    a generator, an adjoint or a sum outside those shapes, or a symbol
    missing from `symbols`).  `symbols` maps each ("Q", f) and ("P", f) to
    the mask of its matrix; `memo` holds the masks of terms already walked.

    Exact: the atoms are nonzero, pairwise orthogonal and sum to the
    identity, so distinct masks are distinct matrices; and commuting
    projections multiply by AND (`ProjectionAtoms.meet`), join by OR and
    complement by `full & ~m`."""
    mask = memo.get(term, _UNWALKED)
    if mask is not _UNWALKED:
        return mask
    mask = None
    if isinstance(term, Mul):
        parts = [atom_mask(t, symbols, atoms, memo) for t in term.factors]
        if None not in parts:
            mask = atoms.meet(parts)
        else:
            symbol = _projection_symbol(term)
            if symbol is not None:
                mask = symbols.get(symbol)
    elif isinstance(term, One):
        mask = atoms.full
    elif isinstance(term, Zero):
        mask = 0
    elif isinstance(term, Join):
        parts = [atom_mask(t, symbols, atoms, memo) for t in term.terms]
        if None not in parts:
            mask = reduce(or_, parts, 0)
    elif isinstance(term, Compl):
        inner = atom_mask(term.term, symbols, atoms, memo)
        if inner is not None:
            mask = atoms.full & ~inner
    memo[term] = mask
    return mask


@dataclass(frozen=True)
class Relation:
    family: str
    lhs: Term
    rhs: Term
    note: str = ""

    def __post_init__(self):
        # (family, rendered lhs, rendered rhs): the order and identity of
        # relations in a presentation, rendered once per relation
        object.__setattr__(
            self, "key", (self.family, render_term(self.lhs), render_term(self.rhs))
        )

    def render(self) -> str:
        family, lhs, rhs = self.key
        return f"rel: {family}: {lhs} = {rhs}"


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
    """The first relation of each key, ordered by key."""
    first: dict[tuple[str, str, str], Relation] = {}
    for r in relations:
        first.setdefault(r.key, r)
    ordered = tuple(first[key] for key in sorted(first))
    return Presentation(style, tuple(sorted(generators)), ordered)


def _side(side: Side, sym: _Symbols) -> Term:
    """The term of an axiom clause side; a single symbol stays bare."""
    if side is None:
        return Zero()
    terms = tuple([sym[s] for s in side])
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
    sym = _Symbols()
    rels = [
        Relation(family, _side(lhs, sym), _side(rhs, sym))
        for _, family, _, lhs, rhs in axiom_clauses(table)
    ]
    if tight:
        for required, forbidden, coverings in selector_families(table, max_fg, max_cover):
            factors = [sym["Q", f] for f in required]
            factors += [Compl(sym["Q", g]) for g in forbidden]
            rhs = Mul(tuple(factors))
            note = "required=" + ",".join(required) + " forbidden=" + ",".join(forbidden)
            for spec in coverings:
                lhs = Join(tuple(sym["P", h] for h in sorted(spec.candidate)))
                rels.append(Relation("tight", lhs, rhs, note))
    return _finish("tight" if tight else "toeplitz", table.elements, rels)


def _subsets(items):
    items = sorted(items)
    for size in range(len(items) + 1):
        yield from (frozenset(c) for c in combinations(items, size))


def emit_cuntz_krieger(matrix: Matrix01) -> Presentation:
    """Letter-generator presentation: TCK families plus the sum relation
    tying each selector product of initial projections to the final
    projections of the letters it admits.  Its 4^n el13 relations are
    counted first: past EL13_CAP this raises BoundExceededError before
    emitting any relation."""
    letters = list(matrix.alphabet)
    if 4 ** len(letters) > EL13_CAP:
        raise BoundExceededError(
            f"more than {EL13_CAP} el13 relations for {len(letters)} letters"
        )
    sym = _Symbols()
    rels: list[Relation] = []
    for i in letters:
        s = sym["S", i]
        rels.append(Relation("tck1", Mul((s, sym["S*", i], s)), s))
    for i, a in enumerate(letters):
        for b in letters[i + 1 :]:
            for kind in ("Q", "P"):
                x, y = sym[kind, a], sym[kind, b]
                rels.append(Relation("tck1", Mul((x, y)), Mul((y, x))))
    for a in letters:
        for b in letters:
            q, p = sym["Q", a], sym["P", b]
            rels.append(Relation("tck1", Mul((q, p)), Mul((p, q))))
    for a in letters:
        for b in letters:
            if a != b:
                rels.append(Relation("tck2", Mul((sym["S*", a], sym["S", b])), Zero()))
    for a in letters:
        for b in letters:
            lhs = Mul((sym["Q", a], sym["P", b]))
            rhs = sym["P", b] if matrix.entry(a, b) == 1 else Zero()
            rels.append(Relation("tck3", lhs, rhs))
    for required in _subsets(letters):
        for forbidden in _subsets(letters):
            lhs_factors: list[Term] = [sym["Q", x] for x in sorted(required)]
            lhs_factors.extend(Compl(sym["Q", y]) for y in sorted(forbidden))
            lhs = Mul(tuple(lhs_factors)) if lhs_factors else One()
            admitted = [
                j
                for j in letters
                if follow_weight(matrix, sorted(required), sorted(forbidden), j)
            ]
            rhs = Add(tuple(sym["P", j] for j in admitted))
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
    sym = _Symbols()
    rels: list[Relation] = []
    objects = sorted(kg.objects)
    morphisms = sorted(kg.normal_form)
    for v in objects:
        rels.append(Relation("kp1", sym["S", v], sym["S*", v]))
        rels.append(Relation("kp1", Mul((sym["S", v], sym["S", v])), sym["S", v]))
    for u, v in combinations(objects, 2):
        rels.append(Relation("kp1", Mul((sym["S", u], sym["S", v])), Zero()))
        rels.append(Relation("kp1", Mul((sym["S", v], sym["S", u])), Zero()))
    for (f, g) in sorted(kg.table.composable):
        lhs = Mul((sym["S", f], sym["S", g]))
        rels.append(Relation("kp2", lhs, sym["S", kg.table.product[(f, g)]]))
    for f in morphisms:
        rels.append(Relation("kp3", sym["Q", f], sym["S", kg.source[f]]))
    for (v, n), members in kg.slices.items():
        terms = Add(tuple(sym["P", f] for f in sorted(members)))
        rels.append(Relation("kp4", sym["S", v], terms, note=f"object={v} degree={n}"))
    for (v,), _, coverings in object_families(kg.table, objects, max_cover):
        for spec in coverings:
            joined = Join(tuple(sym["P", h] for h in sorted(spec.candidate)))
            rels.append(Relation("kp-cover", sym["S", v], joined, note=f"object={v}"))
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
    rename map sends presentation generators to table elements.

    When the representation has projection atoms (`reps.ProjectionAtoms`),
    a relation whose two sides both have an `atom_mask` is decided on the
    masks; every other relation, and every relation of a representation
    without atoms, is decided on matrices.  Sub-terms shared between
    relations are walked and evaluated once per call."""
    rename = rename or {}
    lookup: dict[str, RatMat] = {}
    for g in pres.generators:
        token = rename.get(g, g)
        if token not in rep.assign:
            raise IncompatibleGenerators(
                f"generator {g!r} (as {token!r}) has no matrix in the representation"
            )
        lookup[g] = rep.assign[token]
    atoms = rep._atoms
    symbols: dict[tuple[str, str], int] = {}
    if atoms is not None:
        for g in pres.generators:
            for kind in ("Q", "P"):
                mask = atoms.masks.get((kind, rename.get(g, g)))
                if mask is not None:
                    symbols[kind, g] = mask
    masks: dict[Term, int | None] = {}
    memo: dict[Term, RatMat] = {}
    bad = []
    for r in pres.relations:
        lhs = rhs = None
        if atoms is not None:
            lhs = atom_mask(r.lhs, symbols, atoms, masks)
            rhs = None if lhs is None else atom_mask(r.rhs, symbols, atoms, masks)
        if lhs is None or rhs is None:
            lhs, rhs = (eval_term(t, lookup, rep.dim, memo) for t in (r.lhs, r.rhs))
        if lhs != rhs:
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
