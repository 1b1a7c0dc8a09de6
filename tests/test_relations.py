import gc
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import sgpd.relations
from sgpd.core import SemigroupoidTable
from sgpd.covers import BoundExceededError
from sgpd.kgraph import Edge, KGraphSkeleton, build_kgraph
from sgpd.markov import Matrix01, build_markov
from sgpd.matrices import RatMat
from sgpd.relations import (
    Add,
    Adj,
    Compl,
    Gen,
    IncompatibleGenerators,
    Join,
    Mul,
    One,
    Presentation,
    Products,
    Relation,
    Relations,
    SourcesPresent,
    Zero,
    certified_projection,
    cross_check,
    emit_cuntz_krieger,
    emit_generic,
    emit_kumjian_pask,
    eval_term,
    evaluate,
    p_term,
    q_term,
    render_term,
)
from sgpd.reps import Representation, check_axioms, check_tight

from conftest import all_ones_rep, unitary_rep, zero_edge_rep, zero_rep
from test_indexes import two_vertex_skeleton
from test_kgraph import two_loops


class TestTerms:
    def test_render_shapes(self):
        assert render_term(q_term("f")) == "(mul (adj f) (gen f))"
        assert render_term(Join((p_term("f"),))) == "(join (mul (gen f) (adj f)))"
        assert render_term(Add(())) == "zero"
        assert render_term(One()) == "one"

    def test_join_requires_projection_shape(self):
        with pytest.raises(ValueError):
            Join((Gen("f"),))

    def test_eval_join_is_inclusion_exclusion(self):
        p = RatMat.from_rows([[1, 0], [0, 0]])
        q = RatMat.from_rows([[0, 0], [0, 1]])
        term = Join((p_term("a"), p_term("b")))
        # choose partial isometries with these final projections
        lookup = {"a": p, "b": q}
        assert eval_term(term, lookup, 2) == p + q

    def test_missing_generator(self):
        with pytest.raises(IncompatibleGenerators):
            eval_term(Gen("nope"), {}, 1)


class TestEmitGeneric:
    def test_spring_forces_zero_initial_projection(self, fix_e):
        pres = emit_generic(fix_e, tight=True)
        wanted = [
            r
            for r in pres.relations
            if r.family == "tight" and r.lhs == Join(()) and r.rhs == Mul((q_term("f"),))
        ]
        assert wanted, "expected the empty-covering relation join() = Q_f"

    def test_toeplitz_has_no_covering_relations(self, fix_c):
        pres = emit_generic(fix_c.table, tight=False)
        assert pres.style == "toeplitz"
        assert all(r.family != "tight" for r in pres.relations)

    def test_cycle_has_object_covering_family(self, fix_c):
        pres = emit_generic(fix_c.table, tight=True)
        tights = [r for r in pres.relations if r.family == "tight"]
        assert any(
            r.rhs == Mul((q_term("v"),)) and r.lhs == Join((p_term("e"),))
            for r in tights
        )

    def test_soundness_under_tight_reps(self, fix_c, fix_d, fix_e):
        cases = [
            (fix_c.table, unitary_rep(fix_c)),
            (fix_d.table, all_ones_rep(fix_d.table)),
            (fix_e, zero_rep(fix_e, 2)),
        ]
        for table, rep in cases:
            assert check_axioms(rep).ok
            assert check_tight(rep).tight
            pres = emit_generic(table, tight=True)
            assert evaluate(pres, rep) == ()

    def test_deterministic(self, fix_c):
        assert emit_generic(fix_c.table).render() == emit_generic(fix_c.table).render()


class TestEmitCK:
    def test_tck3_all_pairs(self, golden):
        pres = emit_cuntz_krieger(golden)
        tck3 = [r for r in pres.relations if r.family == "tck3"]
        assert len(tck3) == 4
        # the forbidden junction annihilates
        assert any(
            r.lhs == Mul((q_term("2"), p_term("2"))) and r.rhs == Zero() for r in tck3
        )
        assert any(
            r.lhs == Mul((q_term("1"), p_term("2"))) and r.rhs == p_term("2")
            for r in tck3
        )

    def test_single_loop_sum_relation(self, loop):
        pres = emit_cuntz_krieger(loop)
        el = [r for r in pres.relations if r.family == "el13"]
        assert any(
            r.lhs == Mul((q_term("1"),)) and r.rhs == Add((p_term("1"),)) for r in el
        )
        assert any(r.lhs == One() and r.rhs == Add((p_term("1"),)) for r in el)

    def test_unit_decomposition_always_emitted(self, golden):
        pres = emit_cuntz_krieger(golden)
        assert any(
            r.family == "el13"
            and r.lhs == One()
            and r.rhs == Add((p_term("1"), p_term("2")))
            for r in pres.relations
        )


class TestEL13Cap:
    def test_cap_is_inclusive(self, monkeypatch):
        # 4^n el13 relations for n letters
        monkeypatch.setattr(sgpd.relations, "EL13_CAP", 16)
        two = Matrix01.from_rows([[1, 1], [1, 1]])
        el13 = [r for r in emit_cuntz_krieger(two).relations if r.family == "el13"]
        assert len(el13) == 16
        three = Matrix01.from_rows([[1] * 3] * 3)
        with pytest.raises(BoundExceededError, match="more than 16 el13 relations for 3 letters"):
            emit_cuntz_krieger(three)

    def test_nine_letters_refused(self):
        assert sgpd.relations.EL13_CAP == 4**8
        with pytest.raises(BoundExceededError, match="for 9 letters"):
            emit_cuntz_krieger(Matrix01.from_rows([[1] * 9] * 9))


class TestEmitKP:
    def test_fix_d_families(self, fix_d):
        pres = emit_kumjian_pask(fix_d)
        kp4 = [r for r in pres.relations if r.family == "kp4"]
        assert any(
            r.note == "object=v degree=(1, 1)" and r.rhs == Add((p_term("b.r"),))
            for r in kp4
        )
        kp3 = [r for r in pres.relations if r.family == "kp3"]
        assert any(
            r.lhs == Mul((Gen("v"), Gen("v"))) and r.rhs == Gen("v")
            for r in pres.relations
            if r.family == "kp1"
        )
        assert all(r.rhs == Gen("v") for r in kp3)

    def test_fix_c_source_relation(self, fix_c):
        pres = emit_kumjian_pask(fix_c)
        kp3 = [r for r in pres.relations if r.family == "kp3"]
        assert any(
            r.lhs == Mul((relations_adj("e"), Gen("e"))) and r.rhs == Gen("v")
            for r in kp3
        )

    def test_cover_relations_are_the_object_families(self, fix_c, fix_d):
        from sgpd.reps import category_tightness

        two_vertices = build_kgraph(two_vertex_skeleton(), (2, 2))
        for kg in (fix_c, fix_d, build_kgraph(two_loops(), (3, 2)), two_vertices):
            covers = [r for r in emit_kumjian_pask(kg).relations if r.family == "kp-cover"]
            report = category_tightness(unitary_rep(kg), kg)
            assert len(covers) == report.coverings_checked > 0
            assert report.families_checked == len(kg.objects)

    def test_sources_rejected(self):
        skeleton = KGraphSkeleton(1, ("u", "v"), (Edge("e", 1, "u", "v"),), ())
        kg = build_kgraph(skeleton, (1,))
        with pytest.raises(SourcesPresent):
            emit_kumjian_pask(kg)


def relations_adj(name):
    from sgpd.relations import Adj

    return Adj(name)


class TestCrossCheck:
    def test_cycle_generic_vs_kp_unitary(self, fix_c):
        generic = emit_generic(fix_c.table, tight=True)
        kp = emit_kumjian_pask(fix_c)
        report = cross_check(generic, kp, unitary_rep(fix_c))
        assert report.a_satisfied and report.b_satisfied and report.agree

    def test_cycle_both_violated_by_zero_edge(self, fix_c):
        generic = emit_generic(fix_c.table, tight=True)
        kp = emit_kumjian_pask(fix_c)
        report = cross_check(generic, kp, zero_edge_rep(fix_c))
        assert not report.a_satisfied and not report.b_satisfied and report.agree

    def test_loop_generic_vs_ck(self, loop):
        trunc = build_markov(loop, 3)
        generic = emit_generic(trunc.table, tight=True)
        ck = emit_cuntz_krieger(loop)
        rep = all_ones_rep(trunc.table)
        report = cross_check(generic, ck, rep)
        assert bool(report) and report.agree

    def test_incompatible_generators(self, fix_c, loop):
        trunc = build_markov(loop, 2)
        ck = emit_cuntz_krieger(loop)
        with pytest.raises(IncompatibleGenerators):
            cross_check(ck, ck, unitary_rep(fix_c))

    def test_rename_map(self, loop):
        trunc = build_markov(loop, 2)
        ck = emit_cuntz_krieger(
            Matrix01.from_rows([[1]], alphabet=("x",))
        )
        rep = all_ones_rep(trunc.table)
        assert evaluate(ck, rep, rename={"x": "1"}) == ()


class TestKPSoundness:
    def test_tight_implies_kp_and_kp_implies_object_criterion(self, fix_c, fix_d):
        from sgpd.reps import category_tightness

        cases = [
            (fix_c, unitary_rep(fix_c)),
            (fix_c, zero_edge_rep(fix_c)),
            (fix_d, all_ones_rep(fix_d.table)),
        ]
        for kg, rep in cases:
            kp = emit_kumjian_pask(kg)
            kp_ok = not evaluate(kp, rep)
            if check_tight(rep).tight:
                assert kp_ok
            if kp_ok:
                assert category_tightness(rep, kg).tight


# ---- evaluation with denominators against a plain-Fraction evaluator


def _identity(dim):
    return [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]


def _mul(a, b):
    return [[sum((x * b[t][j] for t, x in enumerate(row)), Fraction(0))
             for j in range(len(b[0]))] for row in a]


def _add(a, b, sign=1):
    return [[x + sign * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def ref_eval(term, lookup, dim):
    """The value of a term as a list of Fraction rows, by the definitions,
    with no memo and no shared state."""
    zero = [[Fraction(0)] * dim for _ in range(dim)]
    if isinstance(term, Gen):
        return lookup[term.name]
    if isinstance(term, Adj):
        return [list(col) for col in zip(*lookup[term.name])]
    if isinstance(term, One):
        return _identity(dim)
    if isinstance(term, Zero):
        return zero
    if isinstance(term, Mul):
        out = _identity(dim)
        for t in term.factors:
            out = _mul(out, ref_eval(t, lookup, dim))
        return out
    if isinstance(term, Add):
        out = zero
        for t in term.terms:
            out = _add(out, ref_eval(t, lookup, dim))
        return out
    if isinstance(term, Join):
        out = zero
        for t in term.terms:
            p = ref_eval(t, lookup, dim)
            out = _add(_add(out, p), _mul(out, p), -1)
        return out
    if isinstance(term, Compl):
        return _add(_identity(dim), ref_eval(term.term, lookup, dim), -1)
    raise TypeError(term)


def ref_violations(pres, rep):
    lookup = {g: [list(r) for r in rep.assign[g].rows] for g in pres.generators}
    return tuple(
        r for r in pres.relations
        if ref_eval(r.lhs, lookup, rep.dim) != ref_eval(r.rhs, lookup, rep.dim)
    )


HALF = Fraction(1, 2)
RANK_ONE = RatMat.from_rows([[HALF, HALF], [HALF, HALF]])  # projection onto (1, 1)


def _random_fraction_rep(table, seed):
    """Each element a 2x2 matrix of small signed fractions, or the rank-one
    projection, or zero."""
    rng = random.Random(seed)
    entries = [Fraction(n, d) for n in range(-2, 3) for d in (1, 2, 3, 4)]
    assign = {}
    for f in sorted(table.elements):
        kind = rng.randrange(4)
        if kind == 0:
            assign[f] = RANK_ONE
        elif kind == 1:
            assign[f] = RatMat.zeros(2)
        else:
            assign[f] = RatMat.from_rows([[rng.choice(entries) for _ in range(2)]
                                          for _ in range(2)])
    return Representation(table, 2, assign)


def _rotation_rep(kg, powers):
    """Each morphism to a power of the rational rotation R = [[3/5, -4/5],
    [4/5, 3/5]], the sum of `powers[edge]` over its edges: a unitary
    representation whose products mix denominators 1, 5, 25, ..."""
    rotation = RatMat.from_rows([[Fraction(3, 5), Fraction(-4, 5)],
                                 [Fraction(4, 5), Fraction(3, 5)]])
    assign = {}
    for token, word in kg.normal_form.items():
        m = RatMat.identity(2)
        for _ in range(sum(powers[e] for e in word)):
            m = m @ rotation
        assign[token] = m
    return Representation(kg.table, 2, assign)


def _cases(fix_c, fix_d, golden):
    """(presentation, representation) pairs whose matrices have non-unit
    denominators: the rank-one projection everywhere and rational
    rotations (which satisfy them), and seeded signed fractions (which
    violate many relations)."""
    golden3 = build_markov(golden, 3).table
    presentations = [
        (emit_generic(fix_c.table, tight=True), fix_c.table),
        (emit_generic(golden3, tight=True), golden3),
        (emit_cuntz_krieger(golden), golden3),
        (emit_kumjian_pask(fix_c), fix_c.table),
        (emit_kumjian_pask(fix_d), fix_d.table),
        (emit_generic(fix_d.table, tight=False), fix_d.table),
    ]
    for pres, table in presentations:
        yield pres, Representation(table, 2, {f: RANK_ONE for f in table.elements})
        for seed in range(2):
            yield pres, _random_fraction_rep(table, seed)
    for pres, table in presentations[3:]:
        kg = fix_c if table is fix_c.table else fix_d
        yield pres, _rotation_rep(kg, {"e": 1, "b": 1, "r": 2})


class TestEvaluateWithDenominators:
    def test_rank_one_projection_and_rotations_satisfy_the_cycle(self, fix_c, fix_d):
        generic, kp = emit_generic(fix_c.table), emit_kumjian_pask(fix_c)
        rep = Representation(fix_c.table, 2, {f: RANK_ONE for f in fix_c.table.elements})
        assert bool(cross_check(generic, kp, rep))
        assert bool(cross_check(generic, kp, _rotation_rep(fix_c, {"e": 1})))
        rep = _rotation_rep(fix_d, {"b": 1, "r": 2})
        assert bool(cross_check(emit_generic(fix_d.table), emit_kumjian_pask(fix_d), rep))

    def test_violations_match_fraction_evaluator(self, fix_c, fix_d, golden):
        seen = 0
        for pres, rep in _cases(fix_c, fix_d, golden):
            want = ref_violations(pres, rep)
            assert evaluate(pres, rep) == want
            seen += len(want)
        assert seen > 100  # the random representations violate plenty

    def test_cross_check_matches_fraction_evaluator(self, fix_c, golden):
        golden3 = build_markov(golden, 3).table
        generic = emit_generic(golden3, tight=True)
        ck = emit_cuntz_krieger(golden)
        rep = _random_fraction_rep(golden3, 2)
        report = cross_check(generic, ck, rep)
        assert report.a_violations == ref_violations(generic, rep)
        assert report.b_violations == ref_violations(ck, rep)


# ---- shared terms render and compare as fresh ones


def fresh(term):
    """An equal term with no sub-term shared with any other."""
    if isinstance(term, (Gen, Adj)):
        return type(term)(term.name)
    if isinstance(term, (One, Zero)):
        return type(term)()
    if isinstance(term, Mul):
        return Mul(tuple(fresh(t) for t in term.factors))
    if isinstance(term, Compl):
        return Compl(fresh(term.term))
    return type(term)(tuple(fresh(t) for t in term.terms))


def subterms(term):
    yield term
    for child in getattr(term, "factors", None) or getattr(term, "terms", None) or ():
        yield from subterms(child)
    if isinstance(term, Compl):
        yield from subterms(term.term)


def _presentations(fix_c, fix_d, fix_f, golden):
    golden3 = build_markov(golden, 3).table
    three = Matrix01.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    return [
        emit_generic(fix_c.table, tight=True),
        emit_generic(golden3, tight=True),
        emit_generic(fix_d.table, tight=False),
        emit_generic(fix_f, tight=True),
        emit_cuntz_krieger(golden),
        emit_cuntz_krieger(three),
        emit_cuntz_krieger(Matrix01.from_rows([[1, 1], [0, 0]])),
        emit_kumjian_pask(fix_c),
        emit_kumjian_pask(fix_d),
    ]


class TestSharedTerms:
    def test_render_equals_fresh_terms(self, fix_c, fix_d, fix_f, golden):
        """Each term is rendered once and stores its text; rendering it
        again gives the same text, which is the text of an equal fresh
        term that shares nothing and has never been rendered."""
        for pres in _presentations(fix_c, fix_d, fix_f, golden):
            rebuilt = Presentation(pres.style, pres.generators, tuple(
                Relation(r.family, fresh(r.lhs), fresh(r.rhs), r.note)
                for r in pres.relations
            ))
            assert rebuilt.render() == pres.render()
            assert rebuilt == pres
            assert [hash(r.lhs) for r in rebuilt.relations] == [
                hash(r.lhs) for r in pres.relations
            ]
            for r in pres.relations:
                for t in (*subterms(r.lhs), *subterms(r.rhs)):
                    text = render_term(t)
                    assert render_term(t) is text
                    assert render_term(fresh(t)) == text

    def test_symbols_built_once_per_presentation(self, fix_c, fix_d, fix_f, golden):
        def is_symbol(t):
            """S_f, S_f*, Q_f or P_f."""
            if isinstance(t, (Gen, Adj)):
                return True
            if isinstance(t, Mul) and len(t.factors) == 2:
                a, b = t.factors
                return isinstance(a, (Gen, Adj)) and t in (q_term(a.name), p_term(a.name))
            return False

        for pres in _presentations(fix_c, fix_d, fix_f, golden):
            ids = {}
            for r in pres.relations:
                for side in (r.lhs, r.rhs):
                    for t in subterms(side):
                        if is_symbol(t):
                            ids.setdefault(t, set()).add(id(t))
            assert any(isinstance(t, Mul) for t in ids)
            assert all(len(s) == 1 for s in ids.values())

    def test_hash_is_of_the_fields(self, fix_c, fix_d, fix_f, golden):
        """The hash and equality of a term are those of its fields, and do
        not change once its text is stored."""
        distinct = set()
        for pres in _presentations(fix_c, fix_d, fix_f, golden):
            pres.render()
            for r in pres.relations:
                for side in (r.lhs, r.rhs):
                    distinct.update(subterms(side))
        for t in distinct:
            unrendered = fresh(t)
            before = hash(unrendered)
            assert unrendered._text == t._text  # set when the term is built
            assert hash(t) == before and t == unrendered
            render_term(unrendered)
            assert hash(unrendered) == before and t == unrendered
        # distinct terms hash apart (a hash taken before the fields are
        # set would make every term of a class collide)
        assert len({hash(t) for t in distinct}) == len(distinct) > 100
        assert hash(Gen("f")) != hash(Adj("f")) != hash(Gen("g"))


# ---- evaluation on projection atoms against a matrix-only evaluator


def matrix_violations(pres, rep, rename=None):
    """The violated relations of a presentation with both sides of every
    relation evaluated on matrices (`eval_term`), never on atom masks."""
    rename = rename or {}
    lookup = {g: rep.assign[rename.get(g, g)] for g in pres.generators}
    memo = {}
    return tuple(
        r for r in pres.relations
        if eval_term(r.lhs, lookup, rep.dim, memo) != eval_term(r.rhs, lookup, rep.dim, memo)
    )


def _cyclic_permutation(power):
    p = RatMat.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    out = RatMat.identity(3)
    for _ in range(power % 3):
        out = out @ p
    return out


def _matrix_unit(i, j, dim):
    return RatMat.from_rows([[int((r, c) == (i, j)) for c in range(dim)] for r in range(dim)])


def _atom_reps(table):
    """Representations of a table whose projections have atoms: zero ones,
    a unitary one by cyclic permutations, the rank-one projection
    everywhere, and matrix units on a 3-cycle (each element sends a seeded
    basis vector i to i + 1, or is zero one time in four), whose initial
    and final projections differ."""
    elements = sorted(table.elements)
    rng = random.Random(len(elements))
    steps = [rng.choice([None, 0, 1, 2]) for _ in elements]
    return {
        "zero-1": zero_rep(table, 1),
        "zero-2": zero_rep(table, 2),
        "permutation": Representation(
            table, 3, {f: _cyclic_permutation(i) for i, f in enumerate(elements)}
        ),
        "rank-one": Representation(table, 2, {f: RANK_ONE for f in elements}),
        "cycle-units": Representation(table, 3, {
            f: RatMat.zeros(3) if i is None else _matrix_unit((i + 1) % 3, i, 3)
            for i, f in zip(steps, elements)
        }),
    }


def _atom_free_rep(table):
    """Projections that do not commute: E_11 and the rank-one projection
    onto (1, 1), alternately; a single element gets a matrix that is not a
    partial isometry."""
    elements = sorted(table.elements)
    if len(elements) == 1:
        return Representation(table, 2, {elements[0]: RatMat.from_rows([[1, 1], [0, 0]])})
    e11 = _matrix_unit(0, 0, 2)
    assign = {f: e11 if i % 2 else RANK_ONE for i, f in enumerate(elements)}
    return Representation(table, 2, assign)


def shapes_presentation(elements):
    """Relations over projection terms in every shape the mask walk reads:
    complements at the top, inside joins and of joins, joins of products,
    empty products and joins, and sides that are not projections."""
    rels = []
    for f in elements[:4]:
        for g in elements[:4]:
            q, p = q_term(f), p_term(g)
            rels += [
                Relation("compl", Compl(q), One()),
                Relation("compl", Compl(q), p),
                Relation("join", Join((Compl(q), p)), One()),
                Relation("join", Join((q, p)), Mul((q, p))),
                Relation("join", Join((q, p)), Join((p, q, Zero()))),
                Relation("demorgan", Compl(Join((p, q))), Mul((Compl(p), Compl(q)))),
                Relation("compl", Compl(Compl(q)), Mul((One(), q))),
                Relation("empty", Join(()), Mul((q, Compl(q)))),
                Relation("empty", Mul(()), Join((q, Compl(q)))),
                Relation("mixed", Mul((q, Gen(g))), Mul((Gen(g), Adj(g), Gen(g)))),
                Relation("mixed", Add((q, p)), Join((q, p))),
            ]
    return Presentation("shapes", tuple(elements), tuple(rels))


def _differential_cases(fix_c, fix_d, fix_e, fix_f, golden, loop, dead_row):
    """(name, presentation, table) for the generic tight and Toeplitz
    presentations of every fixture table, the CK presentation of every
    fixture matrix over its truncation, the KP presentation of every
    fixture k-graph, and the shapes presentation."""
    truncations = {name: build_markov(m, 3) for name, m in
                   (("golden", golden), ("loop", loop), ("dead_row", dead_row))}
    tables = {"fix_c": fix_c.table, "fix_d": fix_d.table, "fix_e": fix_e, "fix_f": fix_f}
    tables.update((name, t.table) for name, t in truncations.items())
    for name, table in tables.items():
        yield f"tight-{name}", emit_generic(table, tight=True), table
        yield f"toeplitz-{name}", emit_generic(table, tight=False), table
        yield f"shapes-{name}", shapes_presentation(sorted(table.elements)), table
    for name, trunc in truncations.items():
        yield f"ck-{name}", emit_cuntz_krieger(trunc.matrix), trunc.table
    for name, kg in (("fix_c", fix_c), ("fix_d", fix_d)):
        yield f"kp-{name}", emit_kumjian_pask(kg), kg.table


class TestEvaluateOnAtoms:
    def test_violations_match_matrix_evaluator(
        self, fix_c, fix_d, fix_e, fix_f, golden, loop, dead_row
    ):
        violated = 0
        failed_families = set()
        for name, pres, table in _differential_cases(
            fix_c, fix_d, fix_e, fix_f, golden, loop, dead_row
        ):
            for rep_name, rep in _atom_reps(table).items():
                assert rep._atoms is not None, (name, rep_name)
                want = matrix_violations(pres, rep)
                assert evaluate(pres, rep) == want, (name, rep_name)
                violated += len(want)
                failed_families.update(r.family for r in want)
            rep = _atom_free_rep(table)
            assert rep._atoms is None, name
            assert evaluate(pres, rep) == matrix_violations(pres, rep), name
        assert violated > 1000
        # failures among relations with only projection terms on both sides
        assert {"domination", "tight", "compl", "join", "tck3"} <= failed_families

    def test_cross_check_matches_matrix_evaluator(self, fix_c, fix_d):
        for kg in (fix_c, fix_d):
            generic, kp = emit_generic(kg.table, tight=True), emit_kumjian_pask(kg)
            for rep in [*_atom_reps(kg.table).values(), _atom_free_rep(kg.table)]:
                report = cross_check(generic, kp, rep)
                assert report.a_violations == matrix_violations(generic, rep)
                assert report.b_violations == matrix_violations(kp, rep)

    def test_rename(self, golden):
        """Generators read through the rename map: the letters swapped, and
        renamed apart from the table's names."""
        table = build_markov(golden, 3).table
        renamed = Matrix01.from_rows([[1, 1], [1, 0]], alphabet=("x", "y"))
        cases = [
            (emit_cuntz_krieger(golden), {"1": "2", "2": "1"}),
            (emit_cuntz_krieger(renamed), {"x": "1", "y": "2"}),
            (emit_cuntz_krieger(renamed), {"x": "2", "y": "1"}),
            (shapes_presentation(["1", "2"]), {"1": "2", "2": "1"}),
        ]
        differ = 0
        for pres, rename in cases:
            for rep in [*_atom_reps(table).values(), _atom_free_rep(table)]:
                want = matrix_violations(pres, rep, rename)
                assert evaluate(pres, rep, rename) == want
                if set(pres.generators) <= table.elements:
                    differ += want != matrix_violations(pres, rep)
        assert differ  # some renames change the verdicts

    def test_generator_missing_from_the_atoms(self, fix_c):
        """A generator renamed to a matrix outside the table has no mask,
        so its relations are evaluated on matrices."""
        rep = _atom_reps(fix_c.table)["cycle-units"]
        extra = Representation(rep.table, rep.dim, {**rep.assign, "w": _matrix_unit(0, 1, 3)})
        pres = shapes_presentation(["e", "v"])
        rename = {"e": "w"}
        assert evaluate(pres, extra, rename) == matrix_violations(pres, extra, rename)
        assert evaluate(pres, extra, rename) != evaluate(pres, extra)


# ---- one product per distinct pair of factor matrices


def _permutation_rep(kg):
    """The two-loop 2-graph's 3x3 unitary representation b -> P, r -> P^2
    for the cyclic permutation P: its 25 morphisms take three matrices."""
    assign = {t: _cyclic_permutation(sum(1 if e == "b" else 2 for e in word))
              for t, word in kg.normal_form.items()}
    return Representation(kg.table, 3, assign)


def _repeating_cases(fix_c, fix_d, golden):
    """(name, presentation, representation) whose matrices repeat: the
    permutation representation of the two-loop 2-graph at (4,4), and
    all-ones and zero representations of the fixtures, which have atoms,
    and the two alternating matrices of `_atom_free_rep`, which have none."""
    kg = build_kgraph(two_loops(), (4, 4))
    rep = _permutation_rep(kg)
    toeplitz = emit_generic(kg.table, tight=False)
    yield "perm44-toeplitz", toeplitz, rep
    yield "perm44-kp", emit_kumjian_pask(kg), rep
    golden3 = build_markov(golden, 3).table
    presentations = [
        ("fix_c-tight", emit_generic(fix_c.table), fix_c.table),
        ("fix_c-kp", emit_kumjian_pask(fix_c), fix_c.table),
        ("fix_d-tight", emit_generic(fix_d.table), fix_d.table),
        ("fix_d-kp", emit_kumjian_pask(fix_d), fix_d.table),
        ("golden-tight", emit_generic(golden3), golden3),
        ("golden-ck", emit_cuntz_krieger(golden), golden3),
        ("perm44-toeplitz", toeplitz, kg.table),
    ]
    for name, pres, table in presentations:
        yield f"{name}-ones", pres, all_ones_rep(table)
        for dim in (1, 2):
            yield f"{name}-zero{dim}", pres, zero_rep(table, dim)
        yield f"{name}-alternating", pres, _atom_free_rep(table)


class TestProductTable:
    def test_violations_match_matrix_evaluator(self, fix_c, fix_d, golden):
        violated = 0
        for name, pres, rep in _repeating_cases(fix_c, fix_d, golden):
            want = matrix_violations(pres, rep)
            assert evaluate(pres, rep) == want, name
            if len(pres.relations) < 500:
                assert want == ref_violations(pres, rep), name
            violated += len(want)
        assert violated > 1000

    def test_one_product_per_distinct_pair(self, monkeypatch, fix_c, fix_d, golden):
        """Each evaluate call multiplies each distinct (A, B) once, joins
        included: on the permutation representation, whose values are
        powers of P and zero, that is at most 16 products for 1,700 and 293
        relations."""
        product = RatMat.__matmul__
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return product(a, b)

        without_atoms = 0
        for name, pres, rep in _repeating_cases(fix_c, fix_d, golden):
            without_atoms += rep._atoms is None  # built before counting
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(RatMat, "__matmul__", counted)
                evaluate(pres, rep)
            assert len(calls) == len(set(calls)), name
            if name.startswith("perm44") and rep.dim == 3:
                assert 0 < len(calls) <= 16, name
        assert without_atoms == 7

    def test_eval_term_shares_a_table(self):
        """eval_term reads every product from the table it is given, and
        fills it once per pair."""
        p = _cyclic_permutation(1)
        lookup = {"a": p, "b": p}
        products = Products()
        first = eval_term(Mul((Gen("a"), Gen("b"))), lookup, 3, {}, products)
        assert products == {(p, p): first}
        again = eval_term(Mul((Gen("b"), Gen("a"), Gen("a"))), lookup, 3, {}, products)
        assert again == RatMat.identity(3)
        assert list(products) == [(p, p), (first, p)]


# ---- the term contract on random term trees

TERMS_FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)
NAMES = st.sampled_from(["f", "g", "fg"])
_LEAVES = st.one_of(
    st.builds(Gen, NAMES),
    st.builds(Adj, NAMES),
    st.builds(One),
    st.builds(Zero),
    NAMES.map(q_term),
    NAMES.map(p_term),
)


def _branches(children):
    projections = children.filter(certified_projection)
    some = st.lists(children, max_size=3).map(tuple)
    return st.one_of(
        some.map(Mul),
        some.map(Add),
        projections.map(Compl),
        st.lists(projections, max_size=3).map(tuple).map(Join),
    )


TERMS = st.recursive(_LEAVES, _branches, max_leaves=10)


def shape(term):
    """The class and fields of a term, all the way down, as nested tuples."""
    if isinstance(term, (Gen, Adj)):
        return type(term).__name__, term.name
    if isinstance(term, (One, Zero)):
        return (type(term).__name__,)
    if isinstance(term, Compl):
        return "Compl", shape(term.term)
    children = term.factors if isinstance(term, Mul) else term.terms
    return type(term).__name__, tuple(shape(t) for t in children)


def ref_render(term):
    """The text of a term by the rendering rules, from its fields alone."""
    if isinstance(term, (Gen, Adj)):
        return f"({'gen' if isinstance(term, Gen) else 'adj'} {term.name})"
    if isinstance(term, One):
        return "one"
    if isinstance(term, Zero):
        return "zero"
    if isinstance(term, Compl):
        return f"(compl {ref_render(term.term)})"
    if isinstance(term, Mul):
        return "(mul " + " ".join(ref_render(t) for t in term.factors) + ")"
    if not term.terms:
        return "zero"
    word = "sum" if isinstance(term, Add) else "join"
    return f"({word} " + " ".join(ref_render(t) for t in term.terms) + ")"


class TestTermContract:
    @TERMS_FUZZ
    @given(TERMS, TERMS, st.booleans())
    def test_equal_exactly_when_class_and_fields_are(self, a, b, rebuild):
        if rebuild:
            b = fresh(a)
        assert (a == b) == (shape(a) == shape(b))
        assert (a != b) == (shape(a) != shape(b))
        if a == b:
            assert hash(a) == hash(b)
        assert a == a and hash(a) == hash(fresh(a))

    @TERMS_FUZZ
    @given(TERMS)
    def test_fresh_term_renders_to_its_stored_text(self, term):
        text = ref_render(term)
        assert render_term(term) == term._text == text
        assert render_term(fresh(term)) == text
        assert eval(repr(term), vars(sgpd.relations)) == term

    @TERMS_FUZZ
    @given(TERMS, st.sampled_from(["name", "factors", "terms", "term", "_text", "_hash", "other"]))
    def test_setting_an_attribute_raises(self, term, attr):
        before = (repr(term), term._text, hash(term))
        with pytest.raises(AttributeError):
            setattr(term, attr, None)
        with pytest.raises(AttributeError):
            delattr(term, attr)
        assert not hasattr(term, "__dict__")
        assert (repr(term), term._text, hash(term)) == before

    def test_relation_is_immutable_and_keyed_by_texts(self):
        q, p = q_term("f"), p_term("f")
        r = Relation("tck1", Mul((q, p)), Mul((p, q)), "note")
        assert r.key == ("tck1", render_term(r.lhs), render_term(r.rhs))
        assert r == Relation("tck1", fresh(r.lhs), fresh(r.rhs), "note")
        assert hash(r) == hash(Relation("tck1", fresh(r.lhs), fresh(r.rhs), "note"))
        assert r != Relation("tck1", r.lhs, r.rhs)
        for attr in ("family", "lhs", "key", "other"):
            with pytest.raises(AttributeError):
                setattr(r, attr, None)
        assert not hasattr(r, "__dict__")


# ---- the arena against the term evaluators and renderer


FUZZ_TABLE = SemigroupoidTable.build({"f", "g", "fg"}, {("f", "g"): "fg"})
FUZZ_REPS = [*_atom_reps(FUZZ_TABLE).values(), _atom_free_rep(FUZZ_TABLE)]
FAMILIES = st.sampled_from(["a", "b"])


class TestArena:
    def test_fuzz_reps_with_and_without_atoms(self):
        assert [rep._atoms is not None for rep in FUZZ_REPS] == [True] * 5 + [False]

    @TERMS_FUZZ
    @given(st.lists(st.tuples(FAMILIES, TERMS, TERMS), min_size=1, max_size=5))
    def test_render_and_violations_match_the_terms(self, sides):
        """A hand-built presentation of random certified terms renders as
        `ref_render` reads its terms, and evaluating it on its arena gives
        the violations of `eval_term` on both sides of every relation, and
        of the plain-Fraction evaluator."""
        relations = tuple(Relation(family, a, b, "n") for family, a, b in sides)
        pres = Presentation("fuzz", ("f", "fg", "g"), relations)
        lines = [f"rel: {family}: {ref_render(a)} = {ref_render(b)}" for family, a, b in sides]
        assert pres.render() == "style: fuzz\ngenerators: f fg g\n" + "\n".join(lines) + "\n"
        for rep in FUZZ_REPS:
            want = matrix_violations(pres, rep)
            assert evaluate(pres, rep) == want == ref_violations(pres, rep)

    @TERMS_FUZZ
    @given(st.lists(st.tuples(FAMILIES, TERMS, TERMS), min_size=1, max_size=5))
    def test_views_read_back_the_relations(self, sides):
        relations = tuple(Relation(family, a, b) for family, a, b in sides)
        interned = Relations.intern(relations)
        assert len(interned) == len(relations)
        assert tuple(interned) == relations == interned
        assert interned[-1] == relations[-1] and interned[:2] == relations[:2]
        assert hash(interned) == hash(relations) and repr(interned) == repr(relations)

    def test_repeated_subterm_is_one_node(self, fix_c, fix_d, fix_f, golden):
        """Each emitter call stores every distinct term once, children
        before parents, with the text its view renders to: a sub-term of
        several relations is one node."""
        for pres in _presentations(fix_c, fix_d, fix_f, golden):
            rels = pres.relations
            nodes = rels.nodes
            assert len(set(nodes)) == len(nodes)
            for i, (kind, *parts) in enumerate(nodes):
                assert kind in ("gen", "adj") or all(c < i for c in parts)
            memo = {}
            views = [rels._term(i, memo) for i in range(len(nodes))]
            assert len(set(views)) == len(views)
            assert [render_term(t) for t in views] == list(rels.texts)
            users = {}
            for r in rels:
                for t in {*subterms(r.lhs), *subterms(r.rhs)}:
                    users[t] = users.get(t, 0) + 1
            assert set(users) <= set(views)
            shared = max(users, key=users.get)
            assert users[shared] > 1 and views.count(shared) == 1

    def test_emit_render_evaluate_leave_no_tracked_objects(self):
        """Arena nodes and relation records are tuples of strings and ints,
        which the cyclic collector stops tracking: emitting, rendering and
        evaluating the 3,846 Toeplitz relations of the all-ones 3-letter
        truncation at length 3 leaves a few tracked objects, not one per
        relation or term."""
        table = build_markov(Matrix01.from_rows([[1] * 3] * 3), 3).table
        rep = zero_rep(table, 1)
        evaluate(emit_generic(table, tight=False), rep)  # builds the table's indexes
        gc.collect()
        before = len(gc.get_objects())
        pres = emit_generic(table, tight=False)
        text = pres.render()
        bad = evaluate(pres, rep)
        gc.collect()
        grown = len(gc.get_objects()) - before
        assert (len(pres.relations), len(text.splitlines()), bad) == (3846, 3848, ())
        assert grown < 50
