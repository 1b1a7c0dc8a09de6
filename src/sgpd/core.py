"""Finite semigroupoids: composition tables and the primitive relations.

A semigroupoid is a finite carrier set together with a set of composable
pairs and a product map, subject to a three-case associativity axiom: if
(i) (f,g) and (g,h) are composable, or (ii) (f,g) and (fg,h) are, or
(iii) (g,h) and (f,gh) are, then all four of (f,g), (g,h), (fg,h), (f,gh)
are composable and (fg)h = f(gh).

Tables built by truncating an infinite structure (bounded-length words,
bounded-degree morphisms) cannot satisfy the axiom literally: a product may
exceed the bound while its factors do not.  Such tables record the cut
pairs in ``artifact_pairs`` (pairs composable in the full structure whose
product falls outside the carrier) and the elements hugging the bound in
``boundary``.  The validator demands each concluded pair be composable or
artifact; equalities are checked whenever both sides stay in the carrier.
A table with empty artifact metadata is checked against the axiom exactly.

A formal unit ``UNIT`` acts as a two-sided identity in ``compose`` and has
every element in its follower set, but is never a member of the carrier or
of any follower set (adjoining it would itself break associativity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping


class SgpdError(Exception):
    """Base class for all library errors."""


class MalformedTable(SgpdError):
    """The raw table data is inconsistent (unknown elements, bad product)."""


class NotComposable(SgpdError):
    """compose() was called on a pair outside the composable set."""


class UnknownElement(SgpdError):
    """An argument names an element outside the carrier."""


class AssociativityError(SgpdError):
    """Eager validation failed; carries the offending report."""

    def __init__(self, report: "ValidationReport"):
        super().__init__(str(report.violation))
        self.report = report


class _Unit:
    """Formal two-sided identity adjoined outside the carrier."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNIT"


UNIT = _Unit()


class UnionFind:
    """Disjoint sets with path compression; the least item of a class is
    its representative, so classes come out in a deterministic order."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra


@dataclass(frozen=True)
class AssociativityViolation:
    """A triple breaking one of the three axiom cases, re-checkable by hand.

    kind is "missing-pair" (the named pair is neither composable nor
    artifact) or "unequal-products" (both bracketings exist and differ).
    """

    triple: tuple[str, str, str]
    case: str  # "i", "ii" or "iii"
    kind: str
    pair: tuple[str, str] | None = None
    products: tuple[str, str] | None = None


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violation: AssociativityViolation | None = None
    checked_triples: int = 0

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class SemigroupoidTable:
    """Carrier + composable pairs + product map, with truncation metadata.

    ``product`` keys are exactly the composable pairs.  Use ``build`` for
    eagerly validated construction; the raw constructor only checks
    well-formedness so that validators can be pointed at broken tables.

    Tables are immutable after construction: followers and multiples are
    computed once per table, on first use, and every query reads them.
    """

    elements: frozenset[str]
    product: Mapping[tuple[str, str], str]
    boundary: frozenset[str] = frozenset()
    artifact_pairs: frozenset[tuple[str, str]] = frozenset()
    composable: frozenset[tuple[str, str]] = field(init=False)

    def __post_init__(self):
        for (f, g), h in self.product.items():
            if f not in self.elements or g not in self.elements:
                raise MalformedTable(f"composable pair ({f}, {g}) not in carrier")
            if h not in self.elements:
                raise MalformedTable(f"product {f}*{g} = {h} not in carrier")
        if not self.boundary <= self.elements:
            raise MalformedTable("boundary elements outside carrier")
        for f, g in self.artifact_pairs:
            if f not in self.elements or g not in self.elements:
                raise MalformedTable(f"artifact pair ({f}, {g}) not in carrier")
            if (f, g) in self.product:
                raise MalformedTable(f"pair ({f}, {g}) both composable and artifact")
        object.__setattr__(self, "composable", frozenset(self.product))

    @classmethod
    def build(
        cls,
        elements: Iterable[str],
        product: Mapping[tuple[str, str], str],
        boundary: Iterable[str] = (),
        artifact_pairs: Iterable[tuple[str, str]] = (),
    ) -> "SemigroupoidTable":
        """Construct and eagerly validate; raises AssociativityError on failure."""
        table = cls(
            frozenset(elements),
            dict(product),
            frozenset(boundary),
            frozenset(artifact_pairs),
        )
        report = validate_associativity(table)
        if not report:
            raise AssociativityError(report)
        return table

    def require(self, *xs: "str | _Unit") -> None:
        for x in xs:
            if x is not UNIT and x not in self.elements:
                raise UnknownElement(f"unknown element {x!r}")

    def _grouped(self, pairs) -> dict[str, frozenset[str]]:
        out: dict[str, set[str]] = {f: set() for f in self.elements}
        for f, x in pairs:
            out[f].add(x)
        return {f: frozenset(xs) for f, xs in out.items()}

    @cached_property
    def followers(self) -> dict[str, frozenset[str]]:
        """f -> the g with (f, g) composable."""
        return self._grouped(self.composable)

    @cached_property
    def full_followers(self) -> dict[str, frozenset[str]]:
        """f -> the g with (f, g) composable or artifact."""
        return self._grouped(self.composable | self.artifact_pairs)

    @cached_property
    def multiples(self) -> dict[str, frozenset[str]]:
        """f -> f itself and every product fh."""
        products = self._grouped((f, m) for (f, _), m in self.product.items())
        return {f: ms | {f} for f, ms in products.items()}


def validate_associativity(table: SemigroupoidTable) -> ValidationReport:
    """Check the three-case associativity axiom over all applicable triples.

    Concluded pairs may be artifact (cut by a truncation bound); both
    bracketings are compared whenever both stay inside the carrier.
    """
    comp = table.composable
    art = table.artifact_pairs
    prod = table.product
    followers = {e: sorted(gs) for e, gs in table.followers.items()}
    preceders: dict[str, list[str]] = {e: [] for e in table.elements}
    for f, g in sorted(comp):
        preceders[g].append(f)

    checked = 0

    def ok_pair(p):
        return p in comp or p in art

    def fail(triple, case, kind, pair=None, products=None):
        return ValidationReport(
            False, AssociativityViolation(triple, case, kind, pair, products), checked
        )

    # case (i): (f,g), (g,h) composable
    for (f, g) in sorted(comp):
        fg = prod[(f, g)]
        for h in followers[g]:
            checked += 1
            gh = prod[(g, h)]
            for pair in ((fg, h), (f, gh)):
                if not ok_pair(pair):
                    return fail((f, g, h), "i", "missing-pair", pair)
            if (fg, h) in comp and (f, gh) in comp:
                lhs, rhs = prod[(fg, h)], prod[(f, gh)]
                if lhs != rhs:
                    return fail((f, g, h), "i", "unequal-products", products=(lhs, rhs))

    # case (ii): (f,g), (fg,h) composable
    for (f, g) in sorted(comp):
        fg = prod[(f, g)]
        for h in followers[fg]:
            checked += 1
            if not ok_pair((g, h)):
                return fail((f, g, h), "ii", "missing-pair", (g, h))
            if (g, h) in comp:
                gh = prod[(g, h)]
                if not ok_pair((f, gh)):
                    return fail((f, g, h), "ii", "missing-pair", (f, gh))
                if (f, gh) in comp:
                    lhs, rhs = prod[(fg, h)], prod[(f, gh)]
                    if lhs != rhs:
                        return fail(
                            (f, g, h), "ii", "unequal-products", products=(lhs, rhs)
                        )

    # case (iii): (g,h), (f,gh) composable
    for (g, h) in sorted(comp):
        gh = prod[(g, h)]
        for f in preceders[gh]:
            checked += 1
            if not ok_pair((f, g)):
                return fail((f, g, h), "iii", "missing-pair", (f, g))
            if (f, g) in comp:
                fg = prod[(f, g)]
                if not ok_pair((fg, h)):
                    return fail((f, g, h), "iii", "missing-pair", (fg, h))
                if (fg, h) in comp:
                    lhs, rhs = prod[(fg, h)], prod[(f, gh)]
                    if lhs != rhs:
                        return fail(
                            (f, g, h), "iii", "unequal-products", products=(lhs, rhs)
                        )

    return ValidationReport(True, None, checked)


def compose(table: SemigroupoidTable, f, g):
    """Product of a composable pair; UNIT acts as a two-sided identity."""
    if f is UNIT and g is UNIT:
        return UNIT
    if f is UNIT:
        table.require(g)
        return g
    if g is UNIT:
        table.require(f)
        return f
    table.require(f, g)
    if (f, g) not in table.composable:
        if (f, g) in table.artifact_pairs:
            raise NotComposable(f"({f}, {g}) exceeds the truncation bound")
        raise NotComposable(f"({f}, {g}) is not composable")
    return table.product[(f, g)]


def d_set(table: SemigroupoidTable, f, full: bool = False) -> frozenset[str]:
    """Followers of f: the elements g with (f,g) composable.

    For UNIT this is the whole carrier.  With ``full=True`` artifact pairs
    count as composable, giving the follower set of the untruncated
    structure intersected with the carrier.
    """
    if f is UNIT:
        return frozenset(table.elements)
    table.require(f)
    return (table.full_followers if full else table.followers)[f]


def divides(table: SemigroupoidTable, f: str, g: str) -> bool:
    """True iff f = g or fh = g for some h in the carrier."""
    table.require(f, g)
    return g in table.multiples[f]


def equivalent(table: SemigroupoidTable, f: str, g: str) -> bool:
    """Mutual division."""
    return divides(table, f, g) and divides(table, g, f)


def intersects(table: SemigroupoidTable, f: str, g: str) -> str | None:
    """Least common multiple witness, or None when f and g are disjoint.

    Returns the lexicographically least m with f | m and g | m.  On a
    truncation, a None verdict is certified for Markov and k-graph tables
    (their common multiples never need to leave the carrier); for other
    truncated inputs it only means "disjoint within the bound".
    """
    table.require(f, g)
    return min(table.multiples[f] & table.multiples[g], default=None)


@dataclass(frozen=True)
class MonicCounterexample:
    """Distinct g, h with fg = fh; falsy so `if is_monic(...)` reads right."""

    g: str
    h: str
    product: str

    def __bool__(self) -> bool:
        return False


def is_monic(table: SemigroupoidTable, f: str):
    """True, or the lexicographically least counterexample pair (g, h)."""
    table.require(f)
    ds = sorted(d_set(table, f))
    for i, g in enumerate(ds):
        for h in ds[i + 1 :]:
            if table.product[(f, g)] == table.product[(f, h)]:
                return MonicCounterexample(g, h, table.product[(f, g)])
    return True


def common_followers(
    table: SemigroupoidTable,
    required: Iterable,
    forbidden: Iterable = (),
    full: bool = False,
) -> frozenset[str]:
    """Elements composable after everything in `required` and nothing in
    `forbidden`.  Both sets may contain UNIT; empty `required` selects the
    whole carrier, UNIT in `forbidden` empties the result.
    """
    required = list(required)
    forbidden = list(forbidden)
    table.require(*required, *forbidden)
    result = set(table.elements)
    for f in required:
        result &= d_set(table, f, full=full)
    for g in forbidden:
        result -= d_set(table, g, full=full)
    return frozenset(result)
