import random
from fractions import Fraction
from functools import reduce
from operator import matmul

import pytest

from sgpd.core import SemigroupoidTable
from sgpd.kgraph import Edge, KGraphSkeleton, build_kgraph
from sgpd.markov import Matrix01, build_markov
from sgpd.matrices import RatMat
from sgpd.reps import (
    CategoryFactsWitness,
    CategoryTightnessReport,
    DegenerateRepresentation,
    DimensionMismatch,
    NotACategory,
    PreconditionUnmet,
    Representation,
    category_facts_check,
    category_tightness,
    check_axioms,
    check_tight,
    monic_collapse_check,
    sole_idempotent_check,
    spring_vanishing_check,
)

from conftest import all_ones_rep, unitary_rep, zero_edge_rep, zero_rep


def nilpotent_rep(table):
    return Representation(table, 2, {"f": RatMat.from_rows([[0, 1], [0, 0]])})


class TestAxioms:
    def test_cycle_unitary_passes(self, fix_c):
        assert check_axioms(unitary_rep(fix_c)).ok

    def test_isolated_nilpotent_passes(self, fix_e):
        assert check_axioms(nilpotent_rep(fix_e)).ok

    def test_scaling_breaks_partial_isometry(self, fix_c):
        assign = {m: RatMat.identity(1) for m in fix_c.normal_form}
        assign["e"] = RatMat.from_rows([[2]])
        report = check_axioms(Representation(fix_c.table, 1, assign))
        assert not report.ok
        assert report.failure.tag == "partial-isometry"
        assert report.failure.elements == ("e",)

    def test_product_rule_violation(self, fix_f):
        # S_g != S_h forces a failure somewhere in the axioms
        assign = {
            "f": RatMat.from_rows([[0, 1], [0, 0]]),
            "g": RatMat.from_rows([[1, 0], [0, 0]]),
            "h": RatMat.from_rows([[0, 0], [0, 1]]),
            "m": RatMat.zeros(2),
        }
        assert not check_axioms(Representation(fix_f, 2, assign)).ok

    def test_missing_matrix_rejected(self, fix_f):
        with pytest.raises(DimensionMismatch):
            Representation(fix_f, 1, {"f": RatMat.identity(1)})

    def test_ragged_dim_rejected(self, fix_e):
        with pytest.raises(DimensionMismatch):
            Representation(fix_e, 2, {"f": RatMat.identity(3)})

    def test_artifact_pairs_exempt_from_zero_rule(self, fix_c):
        # the unitary representation multiplies to 1 on cut pairs like
        # (e, e.e.e); only artifact awareness lets it pass
        rep = unitary_rep(fix_c)
        assert ("e", "e.e.e") in fix_c.table.artifact_pairs
        assert check_axioms(rep).ok


class TestTight:
    def test_cycle_unitary_tight(self, fix_c):
        assert check_tight(unitary_rep(fix_c)).tight

    def test_zero_edge_witness(self, fix_c):
        report = check_tight(zero_edge_rep(fix_c))
        assert not report.tight
        assert any(f.covering == ("e",) for f in report.failures)

    def test_isolated_nilpotent_not_tight(self, fix_e):
        report = check_tight(nilpotent_rep(fix_e))
        assert not report.tight
        first = report.failures[0]
        assert (first.required, first.forbidden, first.covering) == (("f",), (), ())

    def test_isolated_zero_tight(self, fix_e):
        assert check_tight(zero_rep(fix_e, 2)).tight

    def test_monotone_consistency(self, fix_c, fix_d):
        for rep in (unitary_rep(fix_c), all_ones_rep(fix_d.table)):
            assert check_tight(rep, 2, 6).tight
            assert check_tight(rep, 1, 3).tight

    def test_all_failures_collected_deterministically(self, fix_c):
        a = check_tight(zero_edge_rep(fix_c))
        b = check_tight(zero_edge_rep(fix_c))
        assert [
            (f.required, f.forbidden, f.covering) for f in a.failures
        ] == [(f.required, f.forbidden, f.covering) for f in b.failures]

    def test_oversized_minimal_covering_is_loud(self):
        from sgpd.covers import BoundExceededError

        # a 7-point star: the followers of the hub are pairwise disjoint,
        # so their only covering is all seven of them at once
        spokes = [f"x{i}" for i in range(7)]
        elements = {"hub", *spokes, *(f"m{i}" for i in range(7))}
        product = {("hub", f"x{i}"): f"m{i}" for i in range(7)}
        table = SemigroupoidTable.build(elements, product)
        rep = zero_rep(table, 1)
        with pytest.raises(BoundExceededError):
            check_tight(rep, max_fg=1, max_cover=6)


    def test_non_representation_named_error(self, golden3):
        # all ones on the golden mean breaks product-zero, so final
        # projections overlap and the partition self-check fires
        rep = all_ones_rep(golden3.table)
        assert check_axioms(rep).failure.tag == "product-zero"
        with pytest.raises(PreconditionUnmet, match="join and sum disagree on a partition"):
            check_tight(rep)


class TestSpringVanishing:
    def test_nonzero_spring_flagged(self, fix_e):
        verdict = spring_vanishing_check(nilpotent_rep(fix_e))
        assert not verdict
        assert verdict.element == "f" and verdict.kind == "spring"

    def test_zero_passes(self, fix_e):
        assert spring_vanishing_check(zero_rep(fix_e)) is True

    def test_vacuous_on_spring_free(self, fix_c):
        assert spring_vanishing_check(unitary_rep(fix_c)) is True

    def test_derived_dead_flagged(self):
        table = SemigroupoidTable.build({"f", "h", "m"}, {("f", "h"): "m"})
        assign = {
            "f": RatMat.from_rows([[0, 1], [0, 0]]),
            "h": RatMat.zeros(2),
            "m": RatMat.zeros(2),
        }
        verdict = spring_vanishing_check(Representation(table, 2, assign))
        assert not verdict
        assert verdict.kind == "derived-dead"

    def test_direction_agrees_with_tightness(self, fix_e, fix_c):
        # tight => springs vanish (never the converse)
        cases = [
            nilpotent_rep(fix_e),
            zero_rep(fix_e, 2),
            unitary_rep(fix_c),
            zero_edge_rep(fix_c),
        ]
        for rep in cases:
            if check_tight(rep).tight:
                assert spring_vanishing_check(rep) is True
            if spring_vanishing_check(rep) is not True:
                assert not check_tight(rep).tight


class TestMonicCollapse:
    def test_zero_assignment_passes(self, fix_f):
        assert monic_collapse_check(zero_rep(fix_f, 2)) is True

    def test_collapse_detected(self, fix_f):
        assign = {
            "f": RatMat.zeros(2),
            "g": RatMat.from_rows([[1, 0], [0, 0]]),
            "h": RatMat.zeros(2),
            "m": RatMat.zeros(2),
        }
        verdict = monic_collapse_check(Representation(fix_f, 2, assign))
        assert not verdict
        assert (verdict.g, verdict.h) == ("g", "h")

    def test_vacuous_on_monic_table(self, fix_c):
        assert monic_collapse_check(unitary_rep(fix_c)) is True

    def test_random_distinct_assignments_fail_axioms(self, fix_f):
        rng = random.Random(303)
        entries = [0, 1, Fraction(1, 2), -1]
        for _ in range(20):
            g = RatMat.from_rows(
                [[rng.choice(entries) for _ in range(2)] for _ in range(2)]
            )
            h = RatMat.from_rows(
                [[rng.choice(entries) for _ in range(2)] for _ in range(2)]
            )
            if g == h:
                h = h + RatMat.identity(2)
            assign = {
                "f": RatMat.from_rows([[0, 1], [0, 0]]),
                "g": g,
                "h": h,
                "m": RatMat.zeros(2),
            }
            assert not check_axioms(Representation(fix_f, 2, assign)).ok

    def test_axiom_passing_assignment_satisfies_recovery(self, fix_f):
        rep = zero_rep(fix_f, 2)
        assert check_axioms(rep).ok
        assert monic_collapse_check(rep) is True


class TestSoleIdempotent:
    @staticmethod
    def table():
        return SemigroupoidTable.build(
            {"f", "e"}, {("f", "e"): "f", ("e", "e"): "e"}
        )

    def test_projection_case(self):
        table = self.table()
        assign = {
            "f": RatMat.from_rows([[0, 1], [0, 0]]),
            "e": RatMat.from_rows([[0, 0], [0, 1]]),
        }
        rep = Representation(table, 2, assign)
        assert check_axioms(rep).ok
        assert sole_idempotent_check(rep, "f", "e") is True

    def test_rank_one_in_larger_space(self):
        table = self.table()
        assign = {
            "f": RatMat.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
            "e": RatMat.from_rows([[0, 0, 0], [0, 1, 0], [0, 0, 0]]),
        }
        rep = Representation(table, 3, assign)
        assert check_axioms(rep).ok
        assert sole_idempotent_check(rep, "f", "e") is True

    def test_untight_rep_rejected(self):
        table = self.table()
        assign = {
            "f": RatMat.from_rows([[0, 1], [0, 0]]),
            "e": RatMat.identity(2),  # identity != Q_f, not tight
        }
        rep = Representation(table, 2, assign)
        with pytest.raises(PreconditionUnmet):
            sole_idempotent_check(rep, "f", "e")

    def test_wrong_followers_rejected(self, fix_c):
        rep = unitary_rep(fix_c)
        with pytest.raises(PreconditionUnmet):
            sole_idempotent_check(rep, "v", "v")


class TestCategoryFacts:
    def test_cycle_passes(self, fix_c):
        assert category_facts_check(unitary_rep(fix_c), fix_c) is True

    def test_two_color_passes(self, fix_d):
        assert category_facts_check(all_ones_rep(fix_d.table), fix_d) is True

    def test_overlapping_objects_witnessed(self):
        skeleton = KGraphSkeleton(1, ("u", "v"), (), ())
        kg = build_kgraph(skeleton, (0,))
        rep = Representation(
            kg.table, 1, {"u": RatMat.identity(1), "v": RatMat.identity(1)}
        )
        verdict = category_facts_check(rep, kg)
        assert isinstance(verdict, CategoryFactsWitness)
        assert verdict.clause == "objects-orthogonal"

    def test_table_mismatch_rejected(self, fix_c, fix_e):
        with pytest.raises(NotACategory):
            category_facts_check(zero_rep(fix_e), fix_c)


class TestCategoryTightness:
    def test_agrees_with_full_check_on_fixtures(self, fix_c, fix_d):
        cases = [
            (fix_c, unitary_rep(fix_c)),
            (fix_c, zero_edge_rep(fix_c)),
            (fix_d, all_ones_rep(fix_d.table)),
        ]
        for kg, rep in cases:
            by_objects = category_tightness(rep, kg)
            assert by_objects.tight == check_tight(rep).tight

    def test_zero_edge_first_witness_is_edge_covering(self, fix_c):
        report = category_tightness(zero_edge_rep(fix_c), fix_c)
        assert not report.tight
        assert report.failures[0].covering == ("e",)
        assert report.failures[0].required == ("v",)

    def test_degenerate_rep_rejected(self, fix_c):
        with pytest.raises(DegenerateRepresentation):
            category_tightness(zero_rep(fix_c.table, 1), fix_c)

    def test_object_free_kgraph(self):
        kg = build_kgraph(KGraphSkeleton(1, (), (), ()), (1,))
        empty = Representation(kg.table, 0, {})
        assert category_tightness(empty, kg) == CategoryTightnessReport(True, (), 0)
        assert check_tight(empty).tight
        with pytest.raises(DegenerateRepresentation, match=r"^combined ranges span rank 0 < dim 2$"):
            category_tightness(Representation(kg.table, 2, {}), kg)

    def test_overlapping_partition_is_a_precondition(self):
        # two loops at v are a partition of its followers; sending both to
        # the identity breaks the disjoint clause, which both checks report
        skeleton = KGraphSkeleton(1, ("v",), (Edge("e", 1, "v", "v"), Edge("f", 1, "v", "v")), ())
        kg = build_kgraph(skeleton, (2,))
        rep = all_ones_rep(kg.table)
        assert check_axioms(rep).failure.tag == "disjoint"
        for check in (lambda: check_tight(rep), lambda: category_tightness(rep, kg)):
            with pytest.raises(PreconditionUnmet, match="not orthogonal"):
                check()


class TestVacuity:
    """On a Markov truncation of an irreducible matrix A with spectral
    radius above 1, only the zero representation passes the axioms: the
    ranks r of the letters' final projections satisfy r >= A r (domination
    on composable pairs, orthogonality of distinct letters), and a positive
    left Perron vector u gives u.r >= rho u.r, so r = 0."""

    @staticmethod
    def passing(rows, draws=200):
        """The word-product representations (letters sent to random partial
        permutations, dims 2-4) that pass the axioms at length 3."""
        trunc = build_markov(Matrix01.from_rows(rows), 3)
        out = []
        for seed in range(draws):
            rng = random.Random(seed)
            dim, density = rng.randint(2, 4), rng.random()

            def partial_permutation():
                picked = [r for r in range(dim) if rng.random() < density]
                cols = rng.sample(range(dim), len(picked))
                return RatMat.from_rows(
                    [[int((r, c) in zip(picked, cols)) for c in range(dim)] for r in range(dim)]
                )

            letters = {a: partial_permutation() for a in trunc.matrix.alphabet}
            assign = {t: reduce(matmul, (letters[a] for a in w)) for t, w in trunc.words.items()}
            rep = Representation(trunc.table, dim, assign)
            if check_axioms(rep):
                out.append(rep)
        return out

    @pytest.mark.parametrize("rows", [[[1, 1], [1, 0]], [[1, 1], [1, 1]], [[1] * 3] * 3])
    def test_perron_above_one_passes_only_zero(self, rows):
        reps = self.passing(rows)
        assert reps
        assert all(m.is_zero() for rep in reps for m in rep.assign.values())

    @pytest.mark.parametrize("rows", [[[0, 1], [1, 0]], [[1, 1], [0, 1]]])
    def test_control_passes_nonzero(self, rows):
        assert any(not m.is_zero() for rep in self.passing(rows) for m in rep.assign.values())
