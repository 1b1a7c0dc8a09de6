"""Differential tests for the projection atoms: `check_axioms`,
`check_tight` and `category_tightness` decide projection clauses on
bitmasks over the atoms of the initial and final projections, and build
matrices only for failures.

Each is compared against the plain matrix computation written out here (the
axioms and the per-object criterion, whose nondegeneracy rank uses the
Fraction oracles of `test_matrices.py`) or in `test_memos.py` (tightness).
Inputs are partial permutations (0/1 matrices with at most one 1 per row
and column, whose projections commute) conjugated by one rational
orthogonal matrix per dimension, so the entries are non-unit fractions;
most of them fail some axiom.  Tables are the golden-mean truncation at
length 3, the fixtures c, d and e, and random DAG tables; the per-object
criterion runs on fixtures c and d and on the 3- and 4-cycles.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from operator import matmul

import pytest
from hypothesis import given, settings, strategies as st

import sgpd.reps
from sgpd.core import SemigroupoidTable, d_set
from sgpd.covers import BoundExceededError, target_coverings
from sgpd.kgraph import Edge, KGraphSkeleton, build_kgraph
from sgpd.markov import build_markov
from sgpd.matrices import RatMat
from sgpd.reps import (
    AxiomFailure,
    AxiomReport,
    DegenerateRepresentation,
    NoProjectionAtoms,
    PreconditionUnmet,
    Representation,
    TightFailure,
    TightnessReport,
    axiom_clauses,
    category_tightness,
    check_axioms,
    check_tight,
)

from conftest import random_dag_table
from test_matrices import ref_hstack, ref_rank
from test_memos import (
    HALF,
    ROTATION,
    ref_check_tight,
    ref_final,
    ref_initial,
    ref_join,
    word_rep,
)

FUZZ = settings(max_examples=40, deadline=None, derandomize=True, database=None)

ORTHOGONAL = {
    1: RatMat.from_rows([[1]]),
    2: ROTATION,
    3: RatMat.from_rows([[Fraction(n, 3) for n in row] for row in [[1, 2, 2], [2, 1, -2], [2, -2, 1]]]),
    4: RatMat.from_rows(
        [[Fraction(n, 2) for n in row] for row in [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]]
    ),
}


# ---- references: every clause as a matrix equation


def ref_check_axioms(rep):
    zero = RatMat.zeros(rep.dim)
    mats = {}
    for f in rep.table.elements:
        s = rep.assign[f]
        mats["S", f] = s
        mats["S*", f] = s.T
        mats["Q", f] = ref_initial(rep, f)
        mats["P", f] = ref_final(rep, f)

    def value(side):
        return zero if side is None else reduce(matmul, (mats[x] for x in side))

    for tag, _, els, lhs, rhs in axiom_clauses(rep.table):
        got, want = value(lhs), value(rhs)
        if got != want:
            return AxiomReport(False, AxiomFailure(tag, els, got, want))
        if tag == "annihilation":
            f, g = els
            derived = mats["S*", f] @ mats["S", f] @ mats["S", g] @ mats["S*", g]
            if derived != got:
                return AxiomReport(False, AxiomFailure("annihilation-derived", els, derived, got))
    return AxiomReport(True)


def ref_category_tightness(rep, kg, max_cover=6):
    """The per-object criterion on matrices: nondegeneracy as the rank of
    every S_f and S_f* side by side, then the join of final projections
    multiplied out covering by covering."""
    morphisms = sorted(kg.normal_form)
    mats = [rep.assign[f] for f in morphisms] + [rep.assign[f].T for f in morphisms]
    spanned = ref_rank(ref_hstack([[list(row) for row in m.rows] for m in mats]))
    if spanned != rep.dim:
        raise DegenerateRepresentation(f"combined ranges span rank {spanned} < dim {rep.dim}")
    table = rep.table
    failures = []
    coverings_checked = 0
    for v in sorted(kg.objects):
        for spec in target_coverings(table, d_set(table, v), max_cover):
            coverings_checked += 1
            covering = tuple(sorted(spec.candidate))
            lhs = ref_join([ref_final(rep, h) for h in covering], rep.dim)
            rhs = ref_final(rep, v)
            if lhs != rhs:
                failures.append(TightFailure((v,), (), covering, lhs, rhs))
    return TightnessReport(not failures, tuple(failures), len(kg.objects), coverings_checked)


def outcome(check, *args):
    """The report, or the class and message of a precondition, bound or
    nondegeneracy error."""
    try:
        return check(*args)
    except (PreconditionUnmet, BoundExceededError, DegenerateRepresentation) as exc:
        return type(exc).__name__, str(exc)


# ---- inputs


def partial_permutation(rng, dim):
    rows = [r for r in range(dim) if rng.random() < 0.6]
    cols = rng.sample(range(dim), len(rows))
    return RatMat.from_rows(
        [[1 if (r, c) in zip(rows, cols) else 0 for c in range(dim)] for r in range(dim)]
    )


def conjugated(rep):
    u = ORTHOGONAL[rep.dim]
    return Representation(rep.table, rep.dim, {f: u @ s @ u.T for f, s in rep.assign.items()})


KINDS = ["golden3", "fix_c", "fix_d", "fix_e", "dag", "words"]


def random_representation(rng, fixtures, kind, dim):
    """Conjugated partial permutations: per element on a table, or per edge
    on a k-graph ("words": each morphism gets the product along its word,
    so the product clauses hold)."""
    fix_c, fix_d, fix_e, golden3 = fixtures
    if kind == "words":
        kg = rng.choice([fix_c, fix_d])
        edges = sorted(e.name for e in kg.skeleton.edges)
        return conjugated(word_rep(kg, {e: partial_permutation(rng, dim) for e in edges}))
    table = {
        "golden3": golden3.table,
        "fix_c": fix_c.table,
        "fix_d": fix_d.table,
        "fix_e": fix_e,
        "dag": random_dag_table(rng, max_elements=7),
    }[kind]
    zero_share = rng.random()
    assign = {
        f: RatMat.zeros(dim) if rng.random() < zero_share else partial_permutation(rng, dim)
        for f in sorted(table.elements)
    }
    return conjugated(Representation(table, dim, assign))


def assert_masks_match_matrices(rep):
    atoms = rep._atoms
    symbols = [(m, ref_initial(rep, f)) for f, m in atoms.initial.items()]
    symbols += [(m, ref_final(rep, f)) for f, m in atoms.final.items()]
    identity = RatMat.identity(rep.dim)
    for ma, a in symbols:
        assert (ma == 0) == a.is_zero()
        assert (ma == atoms.full) == (a == identity)
        for mb, b in symbols:
            assert (ma & mb == 0) == (a @ b).is_zero()
            assert (ma & ~mb == 0) == (a @ b == a)


# ---- the differential tests


@pytest.fixture(scope="module")
def fixtures(fix_c, fix_d, fix_e, golden3):
    return fix_c, fix_d, fix_e, golden3


@FUZZ
@given(
    seed=st.integers(0, 2**32),
    kind=st.sampled_from(KINDS),
    dim=st.integers(1, 4),
    max_fg=st.integers(1, 2),
)
def test_atoms_match_matrices(fixtures, seed, kind, dim, max_fg):
    rep = random_representation(random.Random(seed), fixtures, kind, dim)
    assert rep._atoms is not None
    assert_masks_match_matrices(rep)
    assert check_axioms(rep) == ref_check_axioms(rep)
    assert outcome(check_tight, rep, max_fg) == outcome(ref_check_tight, rep, max_fg)


def test_inputs_reach_every_verdict(fixtures):
    """The generators give inputs that pass and fail the axioms, and that
    are and are not tight, so the comparisons above are of both kinds."""
    axioms, tight = set(), set()
    for seed in range(60):
        rng = random.Random(seed)
        rep = random_representation(rng, fixtures, KINDS[seed % len(KINDS)], rng.randint(1, 4))
        report = check_axioms(rep)
        axioms.add(report.failure.tag if report.failure else "pass")
        verdict = outcome(check_tight, rep, 1)
        tight.add(verdict[0] if isinstance(verdict, tuple) else verdict.tight)
    assert {"pass", "product", "product-zero"} <= axioms
    assert {True, False} <= tight


def test_non_commuting_projections(fix_d):
    rep = word_rep(fix_d, {"b": ROTATION, "r": HALF})
    assert rep._atoms is None
    assert check_axioms(rep) == ref_check_axioms(rep)
    with pytest.raises(NoProjectionAtoms, match="do not commute"):
        check_tight(rep)
    with pytest.raises(NoProjectionAtoms, match="do not commute"):
        category_tightness(rep, fix_d)


def test_non_projection_named(fix_e):
    rep = Representation(fix_e, 1, {"f": RatMat.from_rows([[2]])})
    assert rep._atoms is None
    assert check_axioms(rep) == ref_check_axioms(rep)
    with pytest.raises(NoProjectionAtoms, match="Q_f is not a projection"):
        check_tight(rep)


def test_atoms_build_no_commute_clause(monkeypatch, fixtures):
    """With atoms, check_axioms draws no commute clause: the commute stream
    is replaced by one that raises when drawn, and the reports still match.
    Without atoms (S_f and S_g pass every S clause, Q_f and Q_g do not
    commute) it is drawn."""
    reps = [
        random_representation(random.Random(seed), fixtures, KINDS[seed % len(KINDS)], 1 + seed % 4)
        for seed in range(30)
    ]
    assert all(rep._atoms is not None for rep in reps)
    want = [ref_check_axioms(rep) for rep in reps]
    a, b = Fraction(3, 5), Fraction(4, 5)
    no_atoms = Representation(SemigroupoidTable.build({"f", "g"}, {}), 3, {
        "f": RatMat.from_rows([[0, 0, 0], [0, 0, 0], [1, 0, 0]]),
        "g": RatMat.from_rows([[0, 0, 0], [0, 0, 0], [a, b, 0]]),
    })

    def drawn(table):
        raise AssertionError("a commute clause was drawn")
        yield

    monkeypatch.setattr(sgpd.reps, "_commute_clauses", drawn)
    assert [check_axioms(rep) for rep in reps] == want
    with pytest.raises(AssertionError, match="commute clause was drawn"):
        check_axioms(no_atoms)


def test_no_annihilation_clause_drawn(monkeypatch, fixtures):
    """check_axioms never draws an annihilation clause (they restate
    product-zero): the annihilation stream is replaced by one that raises
    when drawn, and the reports still match, with atoms and without."""
    reps = [
        random_representation(random.Random(seed), fixtures, KINDS[seed % len(KINDS)], 1 + seed % 4)
        for seed in range(60)
    ]
    reps += [rank_one_representation(random.Random(seed)) for seed in range(20)]
    want = [ref_check_axioms(rep) for rep in reps]
    assert {report.ok for report in want} == {True, False}
    assert {rep._atoms is None for rep in reps} == {True, False}

    def drawn(table):
        raise AssertionError("an annihilation clause was drawn")
        yield

    monkeypatch.setattr(sgpd.reps, "_annihilation_clauses", drawn)
    assert [check_axioms(rep) for rep in reps] == want


def test_atoms_multiply_only_products(monkeypatch, fixtures, golden):
    """With atoms built beforehand, a passing check_axioms multiplies one
    S_f S_g per composable pair and nothing else, on random DAG tables and
    on the golden mean at length 4 (where only the zero representation
    passes)."""
    golden4 = build_markov(golden, 4).table
    reps = [Representation(golden4, d, {t: RatMat.zeros(d) for t in golden4.elements}) for d in (1, 2, 3)]
    for seed in range(200):
        rep = random_representation(random.Random(seed), fixtures, "dag", 1 + seed % 3)
        if ref_check_axioms(rep):
            reps.append(rep)
    assert any(
        not (rep.assign[f] @ rep.assign[g]).is_zero() for rep in reps for f, g in rep.table.composable
    )
    product = RatMat.__matmul__
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return product(a, b)

    for rep in reps:
        assert rep._atoms is not None
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(RatMat, "__matmul__", counted)
            assert check_axioms(rep).ok
        assert len(calls) == len(rep.table.composable)


def rank_one_representation(rng):
    """Rank-one partial isometries u v^T on a table with no composable
    pairs, with u = e3 and v a rational unit vector in the e1e2 plane (or
    the zero matrix).  Every v is orthogonal to u, so every product
    vanishes and every S clause holds; Q_f = v_f v_f^T and Q_g commute only
    when v_f and v_g are parallel or orthogonal, so many draws have no
    atoms."""
    names = ["f", "g", "h"][: rng.randint(2, 3)]

    def partial_isometry():
        if rng.random() < 0.2:
            return RatMat.zeros(3)
        t = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        a, b = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
        return RatMat.from_rows([[0, 0, 0], [0, 0, 0], [a, b, 0]])

    table = SemigroupoidTable.build(names, {})
    return Representation(table, 3, {f: partial_isometry() for f in names})


@FUZZ
@given(seed=st.integers(0, 2**32))
def test_no_atoms_stage_matches_matrices(seed):
    rep = rank_one_representation(random.Random(seed))
    assert check_axioms(rep) == ref_check_axioms(rep)


def test_rank_one_inputs_reach_the_commute_failure():
    """Draws without atoms fail on their first non-commuting pair, and
    some draws have no atoms, others have them."""
    verdicts = set()
    for seed in range(40):
        rep = rank_one_representation(random.Random(seed))
        report = check_axioms(rep)
        verdicts.add((rep._atoms is None, report.failure.tag if report.failure else "pass"))
    assert {tag for no_atoms, tag in verdicts if no_atoms} == {"commute-QQ"}
    assert {no_atoms for no_atoms, _ in verdicts} == {True, False}


@FUZZ
@given(
    seed=st.integers(0, 2**32),
    kind=st.sampled_from(KINDS),
    dim=st.integers(1, 4),
)
def test_atom_sums_are_the_projections(fixtures, seed, kind, dim):
    rep = random_representation(random.Random(seed), fixtures, kind, dim)
    atoms = rep._atoms
    for x, mask in atoms.masks.items():
        assert atoms.matrix(mask) == rep._symbols[x]
    assert atoms.matrix(atoms.full) == RatMat.identity(rep.dim)


def test_zero_dimension(fix_c):
    rep = Representation(fix_c.table, 0, {f: RatMat(()) for f in fix_c.table.elements})
    assert rep._atoms.full == 0
    assert check_axioms(rep) == ref_check_axioms(rep)
    assert check_tight(rep) == ref_check_tight(rep)


# ---- category_tightness against the matrix version


def cycle(n, length):
    """The n-cycle 1-graph v0 -> v1 -> ... -> v0, truncated at `length`."""
    objects = tuple(f"v{i}" for i in range(n))
    edges = tuple(Edge(f"e{i}", 1, objects[i], objects[(i + 1) % n]) for i in range(n))
    return build_kgraph(KGraphSkeleton(1, objects, edges, ()), (length,))


def block_word_rep(rng, kg, dim):
    """Each object sent to the diagonal projection onto a block of basis
    vectors (disjoint blocks, some vectors in none), each edge to a partial
    permutation from its source's block into its range's block (often as
    full as the blocks allow), and each morphism to the product along its
    word; then conjugated."""
    objects = sorted(kg.objects)
    block = {v: [] for v in objects}
    for i in range(dim):
        if rng.random() < 0.85:
            block[rng.choice(objects)].append(i)

    def unit_sum(pairs):
        return RatMat.from_rows([[int((r, c) in pairs) for c in range(dim)] for r in range(dim)])

    letters = {}
    for e in kg.skeleton.edges:
        src, dst = block[e.src], block[e.dst]
        size = min(len(src), len(dst))
        size = size if rng.random() < 0.5 else rng.randint(0, size)
        letters[e.name] = unit_sum(set(zip(rng.sample(dst, size), rng.sample(src, size))))
    assign = {
        t: reduce(
            matmul,
            (letters[e] for e in word),
            unit_sum({(i, i) for i in block[kg.range[t]]}),
        )
        for t, word in kg.normal_form.items()
    }
    return conjugated(Representation(kg.table, dim, assign))


def category_case(seed, kgraphs):
    """(k-graph, representation) for one seed: word products or
    independent per-element partial permutations, dims 1-3."""
    rng = random.Random(seed)
    kg = kgraphs[seed % len(kgraphs)]
    dim = rng.randint(1, 3)
    if seed // len(kgraphs) % 2:
        return kg, block_word_rep(rng, kg, dim)
    zero_share = rng.random()
    assign = {
        f: RatMat.zeros(dim) if rng.random() < zero_share else partial_permutation(rng, dim)
        for f in sorted(kg.table.elements)
    }
    return kg, conjugated(Representation(kg.table, dim, assign))


@pytest.fixture(scope="module")
def kgraphs(fix_c, fix_d):
    return fix_c, fix_d, cycle(3, 3), cycle(4, 4)


def test_category_tightness_matches_matrices(kgraphs):
    """The same report, or the same error and text, as the matrix version,
    on inputs that are tight, fail coverings and are degenerate, and that
    pass and fail the axioms (all with atoms)."""
    outcomes, axioms = set(), set()
    for seed in range(320):
        kg, rep = category_case(seed, kgraphs)
        assert rep._atoms is not None
        got = outcome(category_tightness, rep, kg)
        assert got == outcome(ref_category_tightness, rep, kg)
        if isinstance(got, tuple):
            outcomes.add(got[0])
        else:
            outcomes.add("tight" if got.tight else "failing")
        axioms.add(bool(check_axioms(rep)))
    assert outcomes == {"tight", "failing", "DegenerateRepresentation"}
    assert axioms == {True, False}
