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

The constructor checks only that a table is well formed.  Builders that
prove associativity by construction call it directly: ``build_markov``,
whose product is concatenation, and ``build_kgraph``, whose cubes are
checked to close.  ``SemigroupoidTable.build`` also validates
associativity, and is for tables that are not proven, such as the
extension ``despring`` builds.  A table read from a file is checked only
when ``validate_associativity`` is asked for.

A formal unit ``UNIT`` acts as a two-sided identity in ``compose`` and has
every element in its follower set, but is never a member of the carrier or
of any follower set (adjoining it would itself break associativity).
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping


_set = object.__setattr__


class Frozen:
    """Immutable instances: setting or deleting any attribute raises
    AttributeError.  Constructors set their fields with
    ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _names(names) -> str:
    """'a', 'a' and 'b', or 'a', 'b', and 'c', as Python's own messages
    list missing arguments."""
    quoted = [repr(n) for n in names]
    if len(quoted) < 3:
        return " and ".join(quoted)
    return ", ".join(quoted[:-1]) + ", and " + quoted[-1]


class Record(Frozen):
    """An immutable record whose class defines no code when it is made.

    The fields are the names annotated in the class body, in order, after
    those of the bases.  A class attribute of the same name is the field's
    default.  `__init__` takes the fields, positionally or by keyword, and
    then calls `__post_init__` when the class has one.  Equality needs the
    same class and equal fields, the hash is of the fields, and `repr`
    reads ``Name(field=value, ...)``.  Instances keep a ``__dict__``, so
    `functools.cached_property` works on them."""

    _fields: tuple[str, ...] = ()  # every field, in order
    _defaults: dict = {}  # field -> default
    _checked = False  # whether the class has a __post_init__

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = list(cls._fields)
        fields += [name for name in cls.__annotations__ if name not in fields]
        defaults = {f: getattr(cls, f) for f in fields if hasattr(cls, f)}
        for before, after in zip(fields, fields[1:]):
            if before in defaults and after not in defaults:
                raise TypeError(f"non-default argument {after!r} follows default argument")
        cls._fields, cls._defaults = tuple(fields), defaults
        cls._checked = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)
        if self._checked:
            self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """The field values of a call, in order, or the TypeError Python
        raises for a function with these parameters and defaults."""
        params, defaults = cls._fields, cls._defaults
        where = f"{cls.__qualname__}.__init__()"
        values = dict(zip(params, args))
        for key in kwargs:
            if key not in params:
                raise TypeError(f"{where} got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{where} got multiple values for argument {key!r}")
        if len(args) > len(params):
            most = len(params) + 1
            least = most - len(defaults)
            takes = f"from {least} to {most}" if defaults else f"{most}"
            given = len(args) + 1
            raise TypeError(
                f"{where} takes {takes} positional argument{'s' * (most != 1)} "
                f"but {given} {'was' if given == 1 else 'were'} given"
            )
        values.update(kwargs)
        missing = [p for p in params if p not in values and p not in defaults]
        if missing:
            raise TypeError(
                f"{where} missing {len(missing)} required positional "
                f"argument{'s' * (len(missing) != 1)}: {_names(missing)}"
            )
        return [values[p] if p in values else defaults[p] for p in params]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"


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


class AssociativityViolation(Record):
    """A triple breaking one of the three axiom cases, re-checkable by hand.

    kind is "missing-pair" (the named pair is neither composable nor
    artifact) or "unequal-products" (both bracketings exist and differ).
    """

    triple: tuple[str, str, str]
    case: str  # "i", "ii" or "iii"
    kind: str
    pair: tuple[str, str] | None = None
    products: tuple[str, str] | None = None


class ValidationReport(Record):
    ok: bool
    violation: AssociativityViolation | None = None
    checked_triples: int = 0

    def __bool__(self) -> bool:
        return self.ok


class SemigroupoidTable(Record):
    """Carrier + composable pairs + product map, with truncation metadata.

    ``product`` keys are exactly the composable pairs.  The constructor
    only checks well-formedness, so that validators can be pointed at
    broken tables and builders that prove associativity by construction
    (the Markov and k-graph truncations) do not check it again.  Use
    ``build`` for a table that is not proven associative.

    Tables are immutable after construction: the composable pairs, product
    rows, followers and multiples are computed once per table, on first
    use, and every query reads them.
    """

    elements: frozenset[str]
    product: Mapping[tuple[str, str], str]
    boundary: frozenset[str] = frozenset()
    artifact_pairs: frozenset[tuple[str, str]] = frozenset()

    def __post_init__(self):
        # each condition is decided on whole sets; the walk that names a
        # witness runs only when one fails (products in table order,
        # artifact pairs in sorted order, so the message is deterministic)
        elements, product, artifacts = self.elements, self.product, self.artifact_pairs
        if not (
            elements.issuperset(chain.from_iterable(product))
            and elements.issuperset(product.values())
        ):
            for (f, g), h in product.items():
                if f not in elements or g not in elements:
                    raise MalformedTable(f"composable pair ({f}, {g}) not in carrier")
                if h not in elements:
                    raise MalformedTable(f"product {f}*{g} = {h} not in carrier")
        if not self.boundary <= elements:
            raise MalformedTable("boundary elements outside carrier")
        if not (
            elements.issuperset(chain.from_iterable(artifacts))
            and product.keys().isdisjoint(artifacts)
        ):
            for f, g in sorted(artifacts):
                if f not in elements or g not in elements:
                    raise MalformedTable(f"artifact pair ({f}, {g}) not in carrier")
                if (f, g) in product:
                    raise MalformedTable(f"pair ({f}, {g}) both composable and artifact")

    @classmethod
    def build(
        cls,
        elements: Iterable[str],
        product: Mapping[tuple[str, str], str],
        boundary: Iterable[str] = (),
        artifact_pairs: Iterable[tuple[str, str]] = (),
    ) -> "SemigroupoidTable":
        """Construct and eagerly validate; raises AssociativityError on
        failure.  For tables that are not proven associative by their
        construction; a builder that proves it calls the constructor."""
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
    def composable(self) -> frozenset[tuple[str, str]]:
        """The composable pairs: the keys of ``product``."""
        return frozenset(self.product)

    @cached_property
    def followers(self) -> dict[str, frozenset[str]]:
        """f -> the g with (f, g) composable."""
        return self._grouped(self.composable)

    @cached_property
    def full_followers(self) -> dict[str, frozenset[str]]:
        """f -> the g with (f, g) composable or artifact."""
        return self._grouped(chain(self.composable, self.artifact_pairs))

    @cached_property
    def rows(self) -> dict[str, dict[str, str]]:
        """f -> the product row of f: g -> fg for every composable (f, g)."""
        out: dict[str, dict[str, str]] = {f: {} for f in self.elements}
        for (f, g), fg in self.product.items():
            out[f][g] = fg
        return out

    @cached_property
    def multiples(self) -> dict[str, frozenset[str]]:
        """f -> f itself and every product fh."""
        products = self._grouped((f, m) for (f, _), m in self.product.items())
        return {f: ms | {f} for f, ms in products.items()}


def validate_associativity(table: SemigroupoidTable) -> ValidationReport:
    """Check the associativity axiom on every triple that triggers it.

    The three cases differ only in their triggers: (i) every composable
    (f,g) with each h after g, (ii) the same pairs with each h after fg,
    (iii) every composable (g,h) with each f before gh, in sorted order.
    One rule checks the conclusion: of the pairs (f,g), (g,h), (fg,h),
    (f,gh), in that order and skipping any whose product factor does not
    exist, the first that is neither composable nor artifact is a
    missing-pair witness; otherwise, when both bracketings are composable,
    (fg)h and f(gh) must be equal.

    Each trigger settles two of the four pairs, and case (i), checked in
    full first, settles the rest: a case (ii) or (iii) triple whose open
    pair (g,h) or (f,g) is composable is also a case (i) triple.  So case
    (i) tests (fg,h), (f,gh) and the products, case (ii) only (g,h) and
    case (iii) only (f,g).  Cases (i) and (ii) go pair by pair over the
    composable (f,g), looking up what they read of f, g and fg once per
    pair and then looping over the product row of g (case i) or of fg
    (case ii); case (iii) loops over the preceders of gh.  Each product
    row is sorted once per call.
    """
    ok = table.full_followers
    rows = {e: dict(sorted(table.rows[e].items())) for e in sorted(table.rows)}
    preceders: dict[str, list[str]] = {e: [] for e in rows}
    for f, row_f in rows.items():
        for g in row_f:
            preceders[g].append(f)

    def failure(checked, triple, case, kind, pair=None, products=None):
        violation = AssociativityViolation(triple, case, kind, pair, products)
        return ValidationReport(False, violation, checked)

    checked = 0
    # case (i)
    for f, row_f in rows.items():
        ok_f = ok[f]
        for g, fg in row_f.items():
            row_fg, ok_fg = rows[fg], ok[fg]
            for h, gh in rows[g].items():
                checked += 1
                if h not in ok_fg:
                    return failure(checked, (f, g, h), "i", "missing-pair", (fg, h))
                if gh not in ok_f:
                    return failure(checked, (f, g, h), "i", "missing-pair", (f, gh))
                lhs, rhs = row_fg.get(h), row_f.get(gh)
                if lhs != rhs and lhs is not None and rhs is not None:
                    return failure(checked, (f, g, h), "i", "unequal-products", None, (lhs, rhs))
    # case (ii)
    for f, row_f in rows.items():
        for g, fg in row_f.items():
            ok_g = ok[g]
            for h in rows[fg]:
                checked += 1
                if h not in ok_g:
                    return failure(checked, (f, g, h), "ii", "missing-pair", (g, h))
    # case (iii)
    for g, row_g in rows.items():
        for h, gh in row_g.items():
            for f in preceders[gh]:
                checked += 1
                if g not in ok[f]:
                    return failure(checked, (f, g, h), "iii", "missing-pair", (f, g))
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


class Witness(Record):
    """Base of the records a check returns instead of True: falsy, so that
    `if check(...)` reads right."""

    def __bool__(self) -> bool:
        return False


class MonicCounterexample(Witness):
    """Distinct g, h with fg = fh."""

    g: str
    h: str
    product: str


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
