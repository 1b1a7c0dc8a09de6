"""Differential tests for the associativity validator.

``validate_associativity`` checks the three axiom cases with one
conclusion rule.  The reference below is the routine it replaced, one
hand-written block per case, written out here.  The whole
``ValidationReport`` (verdict, witness and the count of checked triples)
must agree on random small tables with random products and artifact pairs
(most of them fail the axiom), on Markov truncations, on k-graph tables,
and on single-pair mutations of those truncations.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from sgpd.core import (
    AssociativityViolation,
    SemigroupoidTable,
    ValidationReport,
    validate_associativity,
)
from sgpd.kgraph import build_kgraph
from sgpd.markov import build_markov

from conftest import random_dag_table, random_matrix01
from test_kgraph import three_colours, two_loops

FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)


# ---- reference: one block per axiom case


def ref_validate(table):
    comp = table.composable
    art = table.artifact_pairs
    prod = table.product
    followers = {e: sorted(gs) for e, gs in table.followers.items()}
    preceders = {e: [] for e in table.elements}
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
                        return fail((f, g, h), "ii", "unequal-products", products=(lhs, rhs))

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
                        return fail((f, g, h), "iii", "unequal-products", products=(lhs, rhs))

    return ValidationReport(True, None, checked)


# ---- inputs


def random_table(rng: random.Random) -> SemigroupoidTable:
    """1-6 elements, a random product on a random set of pairs and random
    artifact pairs among the rest: most such tables fail the axiom."""
    elements = [f"x{i}" for i in range(rng.randint(1, 6))]
    pairs = [(f, g) for f in elements for g in elements]
    rng.shuffle(pairs)
    n_comp = rng.randint(0, len(pairs))
    n_art = rng.randint(0, len(pairs) - n_comp)
    product = {p: rng.choice(elements) for p in pairs[:n_comp]}
    artifacts = pairs[n_comp : n_comp + n_art]
    return SemigroupoidTable(frozenset(elements), product, frozenset(), frozenset(artifacts))


def mutated(table: SemigroupoidTable, rng: random.Random) -> SemigroupoidTable:
    """The table with one composable pair dropped, made artifact or given
    another product, or one artifact pair dropped."""
    product = dict(table.product)
    artifacts = set(table.artifact_pairs)
    move = rng.randrange(4)
    if move < 3 and product:
        pair = rng.choice(sorted(product))
        if move == 0:
            del product[pair]
        elif move == 1:
            del product[pair]
            artifacts.add(pair)
        else:
            product[pair] = rng.choice(sorted(table.elements))
    elif artifacts:
        artifacts.discard(rng.choice(sorted(artifacts)))
    return SemigroupoidTable(table.elements, product, table.boundary, frozenset(artifacts))


def markov_table(seed: int, size: int, max_len: int) -> SemigroupoidTable:
    return build_markov(random_matrix01(random.Random(seed), size), max_len).table


SEEDS = st.integers(0, 2**32)

TABLES = st.one_of(
    SEEDS.map(lambda seed: random_table(random.Random(seed))),
    SEEDS.map(lambda seed: random_dag_table(random.Random(seed))),
    st.tuples(SEEDS, st.integers(1, 3), st.integers(1, 3)).map(lambda t: markov_table(*t)),
    st.tuples(SEEDS, st.integers(1, 3), st.integers(1, 3)).map(
        lambda t: mutated(markov_table(*t), random.Random(t[0]))
    ),
)


def kgraph_tables(fix_c, fix_d):
    return [
        fix_c.table,
        fix_d.table,
        build_kgraph(fix_d.skeleton, (2, 3)).table,
        build_kgraph(two_loops(), (4, 4)).table,
        build_kgraph(three_colours(), (2, 1, 1)).table,
    ]


# ---- the validator against the reference


@FUZZ
@given(TABLES)
def test_reports_match_reference(table):
    assert validate_associativity(table) == ref_validate(table)


@FUZZ
@given(st.sampled_from(range(5)), SEEDS)
def test_kgraph_reports_match_reference(fix_c, fix_d, which, seed):
    table = kgraph_tables(fix_c, fix_d)[which]
    assert validate_associativity(table) == ref_validate(table)
    broken = mutated(table, random.Random(seed))
    assert validate_associativity(broken) == ref_validate(broken)


def test_inputs_reach_every_witness():
    """Every (case, kind) a failure can have.  Case (i) runs first over all
    triples with (f,g) and (g,h) composable, so cases (ii) and (iii) can
    only fail on the pair that their trigger leaves open."""
    seen = set()
    for seed in range(400):
        rng = random.Random(seed)
        for table in (random_table(rng), mutated(markov_table(seed, 2, 3), rng)):
            report = validate_associativity(table)
            assert report == ref_validate(table)
            if not report:
                v = report.violation
                (f, g, h), pair = v.triple, v.pair
                seen.add((v.case, v.kind, pair and (pair == (f, g), pair == (g, h))))
    assert seen == {
        ("i", "missing-pair", (False, False)),
        ("i", "unequal-products", None),
        ("ii", "missing-pair", (False, True)),
        ("iii", "missing-pair", (True, False)),
    }
