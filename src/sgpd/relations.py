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

Each presentation keeps its terms in one hash-consed arena (Filliatre and
Conchon, *Type-safe modular hash-consing*, 2006): a node is a plain tuple
of a kind and its children's ids (or a generator name), every distinct
node is stored once, children before parents, and each node's text is
built once from its children's texts.  A relation is a plain record
(family, lhs id, rhs id, note).  The emitters build ids directly; `Term`
and `Relation` objects are views, built only when a caller reads
``Presentation.relations``.  Nodes and records are tuples of strings and
ints, which the cyclic garbage collector stops tracking, so emitting a
large presentation triggers no full collection.

Presentations carry no analytic content: cross-checking evaluates every
relation of two presentations under one concrete representation and
reports violations on both sides.  When the representation has projection
atoms (see ``reps``), one forward pass over the arena gives the atom mask
of every node built from Q_f, P_f, one and zero by products, joins and
complements, and a relation whose two sides both have a mask is decided on
the masks; every other relation is evaluated on matrices, each node at
most once and each distinct pair of factor matrices multiplied once per
call.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property, reduce
from itertools import combinations
from operator import and_, or_
from typing import Callable, Mapping

from .core import Frozen, Record, SemigroupoidTable, SgpdError
from .covers import BoundExceededError, object_families, selector_families
from .kgraph import KGraph, rfns_check
from .markov import Matrix01, follower_letters
from .matrices import RatMat, join
from .reps import ProjectionAtoms, Representation, axiom_clauses

# el13 relations (4^n for n letters) the Cuntz-Krieger emitter may emit;
# on a 2-CPU host 8 letters take about 1 s and 106 MB, and 9 about 4 s and
# 400 MB
EL13_CAP = 4**8


class IncompatibleGenerators(SgpdError):
    pass


class SourcesPresent(SgpdError):
    pass


_set = object.__setattr__


def _text(kind: str, parts) -> str:
    """The text of a term of this kind whose name or children read
    `parts`: ``(kind part ...)``, and "one" or "zero" when there are no
    parts, except for the empty product ``(mul )``."""
    if parts or kind == "mul":
        return f"({kind} " + " ".join(parts) + ")"
    return "one" if kind == "one" else "zero"


class Term(Frozen):
    """A term of a relation written by hand, or a view of an arena node:
    an immutable value with at most one field, named by `_field`, whose
    arena node kind is `_kind`.  `__init__` sets the field, the text and
    the hash once.  The text is built from the children's stored texts,
    and the hash is of the class and the text, so hashing never walks the
    sub-terms.  Equality is structural: the same class and equal fields
    (the text alone is not enough, since an empty sum, an empty join and
    zero all read "zero").  Terms are slotted and take their immutability
    from `core.Frozen`, as the records of `core.Record` do, and `repr`
    reads like a record's: ``Mul(factors=(...))``."""

    __slots__ = ("_text", "_hash")
    _field = ""
    _kind = ""

    def _seal(self, parts) -> None:
        text = _text(self._kind, parts)
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
    _field, _kind = "name", "gen"

    def __init__(self, name: str):
        _set(self, "name", name)
        self._seal((name,))


class Adj(Term):
    __slots__ = ("name",)
    _field, _kind = "name", "adj"

    def __init__(self, name: str):
        _set(self, "name", name)
        self._seal((name,))


class One(Term):
    __slots__ = ()
    _kind = "one"

    def __init__(self):
        self._seal(())


class Zero(Term):
    __slots__ = ()
    _kind = "zero"

    def __init__(self):
        self._seal(())


class Mul(Term):
    __slots__ = ("factors",)
    _field, _kind = "factors", "mul"

    def __init__(self, factors: tuple[Term, ...]):
        factors = tuple(factors)
        _set(self, "factors", factors)
        self._seal([t._text for t in factors])


class Add(Term):
    __slots__ = ("terms",)
    _field, _kind = "terms", "sum"

    def __init__(self, terms: tuple[Term, ...]):
        terms = tuple(terms)
        _set(self, "terms", terms)
        self._seal([t._text for t in terms])


class Compl(Term):
    __slots__ = ("term",)
    _field, _kind = "term", "compl"

    def __init__(self, term: Term):
        if not certified_projection(term):
            raise ValueError("complement of an uncertified projection term")
        _set(self, "term", term)
        self._seal((term._text,))


class Join(Term):
    __slots__ = ("terms",)
    _field, _kind = "terms", "join"

    def __init__(self, terms: tuple[Term, ...]):
        terms = tuple(terms)
        for t in terms:
            if not certified_projection(t):
                raise ValueError("join over an uncertified projection term")
        _set(self, "terms", terms)
        self._seal([t._text for t in terms])


# the term class of each arena node kind
_CLASSES = {cls._kind: cls for cls in (Gen, Adj, One, Zero, Mul, Add, Compl, Join)}


def q_term(f: str) -> Term:
    return Mul((Adj(f), Gen(f)))


def p_term(f: str) -> Term:
    return Mul((Gen(f), Adj(f)))


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


class Arena(dict):
    """The hash-consed nodes of one presentation, each mapped to its id.

    A node is ("gen", name), ("adj", name), ("one",), ("zero",), or
    (kind, child id, ...) for the kinds "mul", "sum", "join" and "compl".
    Reading a node that is not yet stored appends it: its id is its index
    in `nodes`, so children have lower ids than their parents, and
    `texts[id]` is its text, built once from its children's texts."""

    def __init__(self):
        super().__init__()
        self.nodes: list[tuple] = []
        self.texts: list[str] = []

    def __missing__(self, node: tuple) -> int:
        kind, texts = node[0], self.texts
        if kind == "gen" or kind == "adj":
            text = f"({kind} {node[1]})"
        elif len(node) == 3:  # the common binary node, as `_text` reads it
            text = f"({kind} {texts[node[1]]} {texts[node[2]]})"
        else:
            text = _text(kind, [texts[c] for c in node[1:]])
        i = self[node] = len(texts)
        self.nodes.append(node)
        texts.append(text)
        return i

    def intern(self, term: Term, memo: dict[Term, int]) -> int:
        """The id of a term's node; `memo` holds the ids of terms already
        interned."""
        i = memo.get(term)
        if i is None:
            kind, field = term._kind, term._field
            value = getattr(term, field) if field else ()
            if isinstance(value, str):
                node = (kind, value)
            elif isinstance(value, Term):
                node = (kind, self.intern(value, memo))
            else:
                node = (kind, *[self.intern(t, memo) for t in value])
            i = memo[term] = self[node]
        return i


class _Symbols(dict):
    """The ids of the clause symbols of one emitter call, each looked up
    once: ("S", f) is (gen f), ("S*", f) is (adj f), and ("Q", f) and
    ("P", f) are the initial and final projection products of those two."""

    def __init__(self, arena: Arena):
        super().__init__()
        self.arena = arena

    def __missing__(self, key: tuple[str, str]) -> int:
        kind, f = key
        arena = self.arena
        if kind == "S":
            i = arena["gen", f]
        elif kind == "S*":
            i = arena["adj", f]
        else:
            s, t = self["S", f], self["S*", f]
            i = arena["mul", t, s] if kind == "Q" else arena["mul", s, t]
        self[key] = i
        return i

    def side(self, side) -> int:
        """The id of an axiom clause side (a tuple of symbols, or None for
        zero; see `reps.Side`): the product of its symbols, a single
        symbol bare."""
        if side is None:
            return self.arena["zero",]
        if len(side) == 1:
            return self[side[0]]
        return self.arena[("mul", *map(self.__getitem__, side))]


class Products(dict):
    """A product table: (A, B) -> A @ B, each distinct pair of matrices
    multiplied once, the first time it is read."""

    def __missing__(self, pair: tuple[RatMat, RatMat]) -> RatMat:
        a, b = pair
        value = self[pair] = a @ b
        return value

    def times(self, a: RatMat, b: RatMat) -> RatMat:
        return self[a, b]


def _matrices(
    nodes, lookup: Mapping[str, RatMat], dim: int, products: Products
) -> Callable[[int], RatMat]:
    """The function from a node id to its matrix, with generators read from
    `lookup`: each node is evaluated at most once, the first time it is
    asked for, and every product is read from `products`."""
    values: list[RatMat | None] = [None] * len(nodes)
    times = products.times

    def value(i: int) -> RatMat:
        out = values[i]
        if out is not None:
            return out
        node = nodes[i]
        kind = node[0]
        if kind == "gen" or kind == "adj":
            name = node[1]
            if name not in lookup:
                raise IncompatibleGenerators(f"no matrix for generator {name!r}")
            out = lookup[name] if kind == "gen" else lookup[name].T
        elif kind == "one":
            out = RatMat.identity(dim)
        elif kind == "zero":
            out = RatMat.zeros(dim)
        elif kind == "compl":
            out = RatMat.identity(dim) - value(node[1])
        else:
            parts = [value(c) for c in node[1:]]
            if kind == "mul":
                out = reduce(times, parts) if parts else RatMat.identity(dim)
            elif kind == "sum":
                out = sum(parts, RatMat.zeros(dim))
            else:
                out = join(parts, dim, times)
        values[i] = out
        return out

    return value


def eval_term(
    term: Term,
    lookup: Mapping[str, RatMat],
    dim: int,
    memo: dict[Term, RatMat] | None = None,
    products: Products | None = None,
) -> RatMat:
    """The matrix of a term, with generators read from `lookup`: the term
    is interned into an arena of its own and evaluated as `evaluate` does.
    `memo` holds the values of terms already evaluated under the same
    lookup and dim, and every product is read from `products`, so each
    distinct pair of factors is multiplied once per table."""
    if memo is not None and term in memo:
        return memo[term]
    arena = Arena()
    i = arena.intern(term, {})
    value = _matrices(arena.nodes, lookup, dim, Products() if products is None else products)(i)
    if memo is not None:
        memo[term] = value
    return value


def _atom_masks(nodes, atoms: ProjectionAtoms, symbols: Mapping) -> list[int | None]:
    """The atom mask of every node, in one pass, children first: for a node
    built from Q_f, P_f, one and zero by products, joins and complements,
    and None for any other (one with a generator, an adjoint or a sum
    outside those shapes, or a symbol missing from `symbols`).  `symbols`
    maps the factor nodes of each Q_f and P_f shape to the mask of its
    matrix.

    Exact: the atoms are nonzero, pairwise orthogonal and sum to the
    identity, so distinct masks are distinct matrices; and commuting
    projections multiply by AND, join by OR and complement by
    `full & ~m`."""
    full = atoms.full
    masks: list[int | None] = []
    for node in nodes:
        kind = node[0]
        mask = None
        if kind == "mul" and len(node) == 3:
            a, b = masks[node[1]], masks[node[2]]
            if a is not None and b is not None:
                mask = a & b
            else:
                mask = symbols.get((nodes[node[1]], nodes[node[2]]))
        elif kind == "mul" or kind == "join":
            parts = [masks[c] for c in node[1:]]
            if None not in parts:
                mask = reduce(and_, parts, full) if kind == "mul" else reduce(or_, parts, 0)
        elif kind == "compl":
            inner = masks[node[1]]
            if inner is not None:
                mask = full & ~inner
        elif kind == "one":
            mask = full
        elif kind == "zero":
            mask = 0
        masks.append(mask)
    return masks


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


class Relations(Frozen, Sequence):
    """The relations of one presentation over its arena: `nodes` and
    `texts` are the arena's (see `Arena`), and `records` holds one
    (family, lhs id, rhs id, note) tuple per relation, in order.

    As a sequence it reads as the `Relation`s it stores, built on demand:
    reading an item builds one view, and iterating builds one view per
    record, with the terms of a node shared by several relations built
    once.  It compares equal to (and hashes as) the tuple of its views."""

    __slots__ = ("nodes", "texts", "records")

    def __init__(self, nodes, texts, records):
        _set(self, "nodes", tuple(nodes))
        _set(self, "texts", tuple(texts))
        _set(self, "records", tuple(records))

    @classmethod
    def intern(cls, relations) -> Relations:
        """Relations written with terms, interned into a new arena."""
        arena, memo = Arena(), {}
        records = [
            (r.family, arena.intern(r.lhs, memo), arena.intern(r.rhs, memo), r.note)
            for r in relations
        ]
        return cls(arena.nodes, arena.texts, records)

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.views(self.records[index])
        return self.views((self.records[index],))[0]

    def __iter__(self):
        memo: dict[int, Term] = {}
        for record in self.records:
            yield self._view(record, memo)

    def views(self, records) -> tuple[Relation, ...]:
        """The `Relation` of each record, sharing the terms of shared nodes."""
        memo: dict[int, Term] = {}
        return tuple([self._view(r, memo) for r in records])

    def _view(self, record, memo: dict[int, Term]) -> Relation:
        family, lhs, rhs, note = record
        return Relation(family, self._term(lhs, memo), self._term(rhs, memo), note)

    def _term(self, i: int, memo: dict[int, Term]) -> Term:
        term = memo.get(i)
        if term is None:
            kind, *parts = self.nodes[i]
            cls = _CLASSES[kind]
            if kind == "gen" or kind == "adj" or not cls._field:
                term = cls(*parts)
            elif kind == "compl":
                term = cls(self._term(parts[0], memo))
            else:
                term = cls(tuple([self._term(c, memo) for c in parts]))
            memo[i] = term
        return term

    def __eq__(self, other) -> bool:
        if isinstance(other, (Relations, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class Presentation(Record):
    """A style, its generators and its relations: the emitters give a
    `Relations`; any other sequence of `Relation`s is interned into an
    arena of its own the first time the presentation is rendered or
    evaluated."""

    style: str
    generators: tuple[str, ...]
    relations: Sequence[Relation]

    @cached_property
    def _interned(self) -> Relations:
        relations = self.relations
        return relations if isinstance(relations, Relations) else Relations.intern(relations)

    def render(self) -> str:
        interned = self._interned
        texts = interned.texts
        lines = [f"style: {self.style}", "generators: " + " ".join(self.generators)]
        lines += [
            f"rel: {family}: {texts[lhs]} = {texts[rhs]}"
            for family, lhs, rhs, _ in interned.records
        ]
        return "\n".join(lines) + "\n"


def _finish(style: str, generators, arena: Arena, records) -> Presentation:
    """The first record of each key (family, lhs text, rhs text), ordered
    by key."""
    texts = arena.texts
    first: dict[tuple[str, str, str], tuple] = {}
    for r in records:
        first.setdefault((r[0], texts[r[1]], texts[r[2]]), r)
    ordered = [first[key] for key in sorted(first)]
    return Presentation(style, tuple(sorted(generators)), Relations(arena.nodes, texts, ordered))


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
    arena = Arena()
    sym = _Symbols(arena)
    side = sym.side
    rels = [
        (family, side(lhs), side(rhs), "")
        for _, family, _, lhs, rhs in axiom_clauses(table)
    ]
    if tight:
        for required, forbidden, coverings in selector_families(table, max_fg, max_cover):
            factors = [sym["Q", f] for f in required]
            factors += [arena["compl", sym["Q", g]] for g in forbidden]
            rhs = arena[("mul", *factors)]
            note = _family_note(required, forbidden)
            for spec in coverings:
                lhs = arena[("join", *[sym["P", h] for h in sorted(spec.candidate)])]
                rels.append(("tight", lhs, rhs, note))
    return _finish("tight" if tight else "toeplitz", table.elements, arena, rels)


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
    arena = Arena()
    sym = _Symbols(arena)
    zero = arena["zero",]
    rels: list[tuple] = []
    for i in letters:
        s = sym["S", i]
        rels.append(("tck1", arena["mul", s, sym["S*", i], s], s, ""))
    for a, b in combinations(letters, 2):
        for kind in ("Q", "P"):
            x, y = sym[kind, a], sym[kind, b]
            rels.append(("tck1", arena["mul", x, y], arena["mul", y, x], ""))
    for a in letters:
        for b in letters:
            q, p = sym["Q", a], sym["P", b]
            qp = arena["mul", q, p]
            rels.append(("tck1", qp, arena["mul", p, q], ""))
            if a != b:
                rels.append(("tck2", arena["mul", sym["S*", a], sym["S", b]], zero, ""))
            rels.append(("tck3", qp, p if b in matrix.follows[a] else zero, ""))
    for required in _subsets(letters):
        for forbidden in _subsets(letters):
            factors = [sym["Q", x] for x in required]
            factors += [arena["compl", sym["Q", y]] for y in forbidden]
            lhs = arena[("mul", *factors)] if factors else arena["one",]
            admitted = follower_letters(matrix, required, forbidden)
            rhs = arena[("sum", *[sym["P", j] for j in letters if j in admitted])]
            rels.append(("el13", lhs, rhs, _family_note(required, forbidden)))
    return _finish("cuntz-krieger", letters, arena, rels)


def emit_kumjian_pask(kg: KGraph, max_cover: int = 6) -> Presentation:
    """The four k-graph relation families over all morphism generators,
    plus covering relations per object derived from minimal coverings."""
    if rfns_check(kg) is not True:
        raise SourcesPresent("degree slices are not all nonempty")
    arena = Arena()
    sym = _Symbols(arena)
    zero = arena["zero",]
    rels: list[tuple] = []
    objects = sorted(kg.objects)
    morphisms = sorted(kg.normal_form)
    for v in objects:
        s = sym["S", v]
        rels.append(("kp1", s, sym["S*", v], ""))
        rels.append(("kp1", arena["mul", s, s], s, ""))
    for u, v in combinations(objects, 2):
        rels.append(("kp1", arena["mul", sym["S", u], sym["S", v]], zero, ""))
        rels.append(("kp1", arena["mul", sym["S", v], sym["S", u]], zero, ""))
    for (f, g) in sorted(kg.table.composable):
        lhs = arena["mul", sym["S", f], sym["S", g]]
        rels.append(("kp2", lhs, sym["S", kg.table.product[(f, g)]], ""))
    for f in morphisms:
        rels.append(("kp3", sym["Q", f], sym["S", kg.source[f]], ""))
    for (v, n), members in kg.slices.items():
        terms = arena[("sum", *[sym["P", f] for f in sorted(members)])]
        rels.append(("kp4", sym["S", v], terms, f"object={v} degree={n}"))
    for (v,), _, coverings in object_families(kg.table, objects, max_cover):
        for spec in coverings:
            joined = arena[("join", *[sym["P", h] for h in sorted(spec.candidate)])]
            rels.append(("kp-cover", sym["S", v], joined, f"object={v}"))
    return _finish("kumjian-pask", morphisms, arena, rels)


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
    a relation whose two sides both have an atom mask is decided on the
    masks; every other relation, and every relation of a representation
    without atoms, is decided on matrices.  Each node of the arena is
    walked and evaluated at most once per call."""
    rename = rename or {}
    lookup: dict[str, RatMat] = {}
    for g in pres.generators:
        token = rename.get(g, g)
        if token not in rep.assign:
            raise IncompatibleGenerators(
                f"generator {g!r} (as {token!r}) has no matrix in the representation"
            )
        lookup[g] = rep.assign[token]
    interned = pres._interned
    nodes = interned.nodes
    atoms = rep._atoms
    masks = None
    if atoms is not None:
        symbols = {}
        for g in pres.generators:
            s, t = ("gen", g), ("adj", g)
            for kind, pair in (("Q", (t, s)), ("P", (s, t))):
                mask = atoms.masks.get((kind, rename.get(g, g)))
                if mask is not None:
                    symbols[pair] = mask
        masks = _atom_masks(nodes, atoms, symbols)
    value = _matrices(nodes, lookup, rep.dim, Products())
    bad = []
    for record in interned.records:
        lhs, rhs = record[1], record[2]
        if masks is not None:
            a, b = masks[lhs], masks[rhs]
            if a is not None and b is not None:
                if a != b:
                    bad.append(record)
                continue
        if value(lhs) != value(rhs):
            bad.append(record)
    return interned.views(bad)


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
