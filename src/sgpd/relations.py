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
P_f, and from the axiom clause sides, to their terms, so each of those
terms is built once per call and shared by every relation that uses it;
nothing is cached across calls.  Every term sets its text (from its
children's stored texts) and its hash (of its class and text) once, when
it is built: each term is rendered once, and the memo that evaluates a
presentation finds a shared sub-term in O(1).  One `evaluate` call also
keeps a product table, so each distinct pair of factor matrices is
multiplied once.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import or_
from typing import Mapping

from .core import Frozen, Record, SemigroupoidTable, SgpdError
from .covers import BoundExceededError, object_families, selector_families
from .kgraph import KGraph, rfns_check
from .markov import Matrix01, follower_letters
from .matrices import RatMat, join
from .reps import ProjectionAtoms, Representation, axiom_clauses

# el13 relations (4^n for n letters) the Cuntz-Krieger emitter may emit;
# 8 letters take seconds, 10 take minutes
EL13_CAP = 4**8


class IncompatibleGenerators(SgpdError):
    pass


class SourcesPresent(SgpdError):
    pass


_set = object.__setattr__


class Term(Frozen):
    """A term of a relation: an immutable value with at most one field,
    named by `_field`.  `__init__` sets the field, the text and the hash
    once.  The text is built from the children's stored texts, so a
    sub-term shared by many relations is rendered once, and the hash is of
    the class and the text, so hashing never walks the sub-terms.  Equality
    is structural: the same class and equal fields (the text alone is not
    enough, since an empty sum, an empty join and zero all read "zero").
    Terms are slotted and take their immutability from `core.Frozen`, as
    the records of `core.Record` do, and `repr` reads like a record's:
    ``Mul(factors=(...))``."""

    __slots__ = ("_text", "_hash")
    _field = ""

    def _seal(self, text: str) -> None:
        _set(self, "_text", text)
        _set(self, "_hash", hash((self.__class__, text)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        field = self._field
        return self._hash == other._hash and (
            not field or getattr(self, field) == getattr(other, field)
        )

    def __repr__(self) -> str:
        field = self._field
        inner = f"{field}={getattr(self, field)!r}" if field else ""
        return f"{type(self).__name__}({inner})"


class Gen(Term):
    __slots__ = ("name",)
    _field = "name"

    def __init__(self, name: str):
        _set(self, "name", name)
        self._seal(f"(gen {name})")


class Adj(Term):
    __slots__ = ("name",)
    _field = "name"

    def __init__(self, name: str):
        _set(self, "name", name)
        self._seal(f"(adj {name})")


class One(Term):
    __slots__ = ()

    def __init__(self):
        self._seal("one")


class Zero(Term):
    __slots__ = ()

    def __init__(self):
        self._seal("zero")


class Mul(Term):
    __slots__ = ("factors",)
    _field = "factors"

    def __init__(self, factors: tuple[Term, ...]):
        factors = tuple(factors)
        _set(self, "factors", factors)
        self._seal("(mul " + " ".join([t._text for t in factors]) + ")")


class Add(Term):
    __slots__ = ("terms",)
    _field = "terms"

    def __init__(self, terms: tuple[Term, ...]):
        terms = tuple(terms)
        _set(self, "terms", terms)
        self._seal("(sum " + " ".join([t._text for t in terms]) + ")" if terms else "zero")


class Compl(Term):
    __slots__ = ("term",)
    _field = "term"

    def __init__(self, term: Term):
        if not certified_projection(term):
            raise ValueError("complement of an uncertified projection term")
        _set(self, "term", term)
        self._seal("(compl " + term._text + ")")


class Join(Term):
    __slots__ = ("terms",)
    _field = "terms"

    def __init__(self, terms: tuple[Term, ...]):
        terms = tuple(terms)
        for t in terms:
            if not certified_projection(t):
                raise ValueError("join over an uncertified projection term")
        _set(self, "terms", terms)
        self._seal("(join " + " ".join([t._text for t in terms]) + ")" if terms else "zero")


class _Symbols(dict):
    """The terms of the clause symbols of one emitter call, each built once:
    ("S", f) is (gen f), ("S*", f) is (adj f), and ("Q", f) and ("P", f) are
    the initial and final projection products of those two.  An axiom
    clause side (a tuple of symbols, or None for zero; see `reps.Side`) is
    built once too: the product of its symbols, a single symbol bare."""

    def __missing__(self, key) -> Term:
        if key is None:
            term = Zero()
        elif isinstance(key[0], tuple):
            terms = tuple([self[s] for s in key])
            term = terms[0] if len(terms) == 1 else Mul(terms)
        else:
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
    """The text of a term, stored on it when it was built."""
    return term._text


class Products(dict):
    """A product table: (A, B) -> A @ B, each distinct pair of matrices
    multiplied once, the first time it is read."""

    def __missing__(self, pair: tuple[RatMat, RatMat]) -> RatMat:
        a, b = pair
        value = self[pair] = a @ b
        return value

    def times(self, a: RatMat, b: RatMat) -> RatMat:
        return self[a, b]


def eval_term(
    term: Term,
    lookup: Mapping[str, RatMat],
    dim: int,
    memo: dict[Term, RatMat] | None = None,
    products: Products | None = None,
) -> RatMat:
    """The matrix of a term, with generators read from `lookup`.  `memo`
    holds the values of terms already evaluated under the same lookup and
    dim, and every product is read from `products`: each sub-term is
    evaluated once per memo, and each distinct pair of factors multiplied
    once per table."""
    if memo is None:
        memo = {}
    if products is None:
        products = Products()
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
        factors = [eval_term(t, lookup, dim, memo, products) for t in term.factors]
        value = reduce(products.times, factors) if factors else RatMat.identity(dim)
    elif isinstance(term, Add):
        value = RatMat.zeros(dim)
        for t in term.terms:
            value = value + eval_term(t, lookup, dim, memo, products)
    elif isinstance(term, Join):
        terms = (eval_term(t, lookup, dim, memo, products) for t in term.terms)
        value = join(terms, dim, products.times)
    elif isinstance(term, Compl):
        value = RatMat.identity(dim) - eval_term(term.term, lookup, dim, memo, products)
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
        parts = _masks(term.factors, symbols, atoms, memo)
        if parts is not None:
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
        parts = _masks(term.terms, symbols, atoms, memo)
        if parts is not None:
            mask = reduce(or_, parts, 0)
    elif isinstance(term, Compl):
        inner = atom_mask(term.term, symbols, atoms, memo)
        if inner is not None:
            mask = atoms.full & ~inner
    memo[term] = mask
    return mask


def _masks(terms, symbols, atoms, memo) -> list[int] | None:
    """The `atom_mask` of each term, read from `memo` before walking, or
    None at the first term that has none."""
    parts = []
    for t in terms:
        mask = memo.get(t, _UNWALKED)
        if mask is _UNWALKED:
            mask = atom_mask(t, symbols, atoms, memo)
        if mask is None:
            return None
        parts.append(mask)
    return parts


class Relation(Frozen):
    """lhs = rhs in one family.  Its key, (family, lhs text, rhs text), is
    the order and identity of relations in a presentation.  Slotted and
    immutable like a term; equality (the same class and equal fields) and
    `repr` read like a `core.Record`'s with the fields family, lhs, rhs and
    note, and the hash is of the key and the note."""

    __slots__ = ("family", "lhs", "rhs", "note", "key")

    def __init__(self, family: str, lhs: Term, rhs: Term, note: str = ""):
        _set(self, "family", family)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "note", note)
        _set(self, "key", (family, lhs._text, rhs._text))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not Relation:
            return NotImplemented
        return (self.key == other.key and self.note == other.note
                and self.lhs == other.lhs and self.rhs == other.rhs)

    def __hash__(self) -> int:
        return hash((self.key, self.note))

    def __repr__(self) -> str:
        return (f"Relation(family={self.family!r}, lhs={self.lhs!r}, "
                f"rhs={self.rhs!r}, note={self.note!r})")

    def render(self) -> str:
        family, lhs, rhs = self.key
        return f"rel: {family}: {lhs} = {rhs}"


class Presentation(Record):
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
        Relation(family, sym[lhs], sym[rhs])
        for _, family, _, lhs, rhs in axiom_clauses(table)
    ]
    if tight:
        for required, forbidden, coverings in selector_families(table, max_fg, max_cover):
            factors = [sym["Q", f] for f in required]
            factors += [Compl(sym["Q", g]) for g in forbidden]
            rhs = Mul(tuple(factors))
            note = _family_note(required, forbidden)
            for spec in coverings:
                lhs = Join(tuple(sym["P", h] for h in sorted(spec.candidate)))
                rels.append(Relation("tight", lhs, rhs, note))
    return _finish("tight" if tight else "toeplitz", table.elements, rels)


def _family_note(required, forbidden) -> str:
    """The note of a selector family's relation."""
    return "required=" + ",".join(required) + " forbidden=" + ",".join(forbidden)


def _subsets(items):
    """Every subset of `items` as a sorted tuple, smallest first."""
    items = sorted(items)
    for size in range(len(items) + 1):
        yield from combinations(items, size)


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
    for a, b in combinations(letters, 2):
        for kind in ("Q", "P"):
            x, y = sym[kind, a], sym[kind, b]
            rels.append(Relation("tck1", Mul((x, y)), Mul((y, x))))
    for a in letters:
        for b in letters:
            q, p = sym["Q", a], sym["P", b]
            rels.append(Relation("tck1", Mul((q, p)), Mul((p, q))))
            if a != b:
                rels.append(Relation("tck2", Mul((sym["S*", a], sym["S", b])), Zero()))
            rhs = p if b in matrix.follows[a] else Zero()
            rels.append(Relation("tck3", Mul((q, p)), rhs))
    for required in _subsets(letters):
        for forbidden in _subsets(letters):
            lhs_factors: list[Term] = [sym["Q", x] for x in required]
            lhs_factors.extend(Compl(sym["Q", y]) for y in forbidden)
            lhs = Mul(tuple(lhs_factors)) if lhs_factors else One()
            admitted = follower_letters(matrix, required, forbidden)
            rhs = Add(tuple(sym["P", j] for j in letters if j in admitted))
            note = _family_note(required, forbidden)
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


class CrossCheckReport(Record):
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
    products = Products()
    bad = []
    for r in pres.relations:
        lhs = rhs = None
        if atoms is not None:
            lhs = atom_mask(r.lhs, symbols, atoms, masks)
            rhs = None if lhs is None else atom_mask(r.rhs, symbols, atoms, masks)
        if lhs is None or rhs is None:
            lhs = eval_term(r.lhs, lookup, rep.dim, memo, products)
            rhs = eval_term(r.rhs, lookup, rep.dim, memo, products)
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
