"""Spring detection and the spring-less extension.

A spring is an element with an empty follower set; it behaves like a graph
source and is annihilated by every tight representation.  The cure is not
to change the representation theory but the structure: adjoin one fresh
idempotent per equivalence class of springs so every spring gains a right
identity.  The class relation must identify e(g) with e(fg) whenever (f,g)
is composable and g is a spring; beyond that the choice is free, so both
the universal (one class) and the finest closure are offered.

On a truncation, an element whose followers were all cut by the bound is
not a spring; only elements with no artifact pairs count.
"""

from __future__ import annotations


from .core import Record, SemigroupoidTable, UnionFind


class SpringReport(Record):
    springs: frozenset[str]
    derived_dead: frozenset[str]


class SpringExtension(Record):
    base: SemigroupoidTable
    idempotents: dict[str, frozenset[str]]  # fresh token -> springs it serves
    extended: SemigroupoidTable
    mode: str


def find_springs(table: SemigroupoidTable) -> SpringReport:
    """Springs plus the derived-dead elements (nonempty follower sets made
    entirely of springs, which tight representations also kill)."""
    followers, full = table.followers, table.full_followers
    # an element with artifact followers is cut by the bound, never dead
    springs = frozenset(f for f in table.elements if not full[f])
    derived = frozenset(
        f for f, gs in followers.items() if gs and gs == full[f] and gs <= springs
    )
    return SpringReport(springs, derived)


def _fresh_token(base: str, taken: set[str]) -> str:
    token = "e_" + base
    while token in taken:
        token += "_"
    return token


def despring(table: SemigroupoidTable, mode: str = "finest") -> SpringExtension:
    """Adjoin idempotent class units so the result has no springs.

    mode "universal" puts every spring in one class; mode "finest" uses the
    smallest equivalence closed under identifying g with fg for composable
    (f,g) with g a spring.  A spring-free table is returned unchanged.
    """
    if mode not in ("finest", "universal"):
        raise ValueError(f"unknown mode {mode!r}")
    springs = find_springs(table).springs
    if not springs:
        return SpringExtension(table, {}, table, mode)

    uf = UnionFind(sorted(springs))
    if mode == "universal":
        least = min(springs)
        for g in springs:
            uf.union(least, g)
    else:
        for (f, g) in sorted(table.composable):
            if g in springs:
                # fg inherits g's empty follower set, hence is also a spring
                fg = table.product[(f, g)]
                if fg in springs:
                    uf.union(g, fg)

    classes: dict[str, set[str]] = {}
    for g in sorted(springs):
        classes.setdefault(uf.find(g), set()).add(g)

    taken = set(table.elements)
    unit_of: dict[str, str] = {}
    idempotents: dict[str, frozenset[str]] = {}
    for rep_token in sorted(classes):
        members = classes[rep_token]
        token = _fresh_token(min(members), taken)
        taken.add(token)
        idempotents[token] = frozenset(members)
        for g in members:
            unit_of[g] = token

    product = dict(table.product)
    for g in sorted(springs):
        product[(g, unit_of[g])] = g
    for token in idempotents:
        product[(token, token)] = token

    extended = SemigroupoidTable.build(
        table.elements | set(idempotents), product, table.boundary, table.artifact_pairs
    )
    return SpringExtension(table, idempotents, extended, mode)
