import random

import pytest

from sgpd.core import (
    AssociativityError,
    AssociativityViolation,
    SemigroupoidTable,
    ValidationReport,
    compose,
    validate_associativity,
)
from sgpd.markov import build_markov, word_token
from sgpd.springs import despring, find_springs

from conftest import random_dag_table


class TestFindSprings:
    def test_zero_row_words(self, dead_row):
        trunc = build_markov(dead_row, 3)
        report = find_springs(trunc.table)
        expected = {
            word_token(dead_row, w)
            for w in (t for t in map(tuple, trunc.words.values()))
            if w[-1] == "2"
        }
        assert report.springs == expected
        # the maximal-length all-ones word is cut, not dead
        assert "111" not in report.springs

    def test_categories_have_none(self, fix_c, fix_d):
        assert find_springs(fix_c.table).springs == frozenset()
        assert find_springs(fix_d.table).springs == frozenset()

    def test_isolated_element(self, fix_e):
        assert find_springs(fix_e).springs == {"f"}

    def test_derived_dead(self):
        table = SemigroupoidTable.build({"f", "h", "m"}, {("f", "h"): "m"})
        report = find_springs(table)
        assert report.springs == {"h", "m"}
        assert report.derived_dead == {"f"}


class TestDespring:
    @pytest.mark.parametrize("mode", ["finest", "universal"])
    def test_single_spring(self, fix_e, mode):
        ext = despring(fix_e, mode)
        assert ext.extended.elements == {"f", "e_f"}
        assert compose(ext.extended, "f", "e_f") == "f"
        assert compose(ext.extended, "e_f", "e_f") == "e_f"
        assert validate_associativity(ext.extended).ok

    def test_universal_single_class(self, dead_row):
        trunc = build_markov(dead_row, 3)
        ext = despring(trunc.table, "universal")
        assert len(ext.idempotents) == 1

    def test_finest_closure_joins_reachable_springs(self, dead_row):
        # every spring ending in the dead letter extends the one-letter
        # spring, so the finest closure still has a single class
        trunc = build_markov(dead_row, 3)
        ext = despring(trunc.table, "finest")
        assert len(ext.idempotents) == 1
        (members,) = ext.idempotents.values()
        assert members == find_springs(trunc.table).springs

    def test_finest_keeps_unrelated_springs_apart(self):
        table = SemigroupoidTable.build({"a", "b"}, {})
        ext = despring(table, "finest")
        assert len(ext.idempotents) == 2
        assert despring(table, "universal").idempotents.keys() == {"e_a"}

    def test_no_springs_returns_base(self, fix_c):
        ext = despring(fix_c.table, "finest")
        assert ext.extended is fix_c.table
        assert ext.idempotents == {}

    def test_bad_mode(self, fix_e):
        with pytest.raises(ValueError):
            despring(fix_e, "coarsest")

    @pytest.mark.parametrize("mode", ["finest", "universal"])
    def test_non_associative_base_raises(self, mode):
        # xy = x and yx = y, but xx is missing; s is a spring, so the
        # extension is built and its validation reports the base's fault
        table = SemigroupoidTable(
            frozenset({"x", "y", "s"}),
            {("x", "y"): "x", ("y", "x"): "y"},
            frozenset(),
            frozenset(),
        )
        with pytest.raises(AssociativityError) as err:
            despring(table, mode)
        violation = AssociativityViolation(("x", "y", "x"), "i", "missing-pair", ("x", "x"))
        assert err.value.report == ValidationReport(False, violation, 3)
        assert str(err.value) == str(violation)


class TestDespringProperties:
    @pytest.mark.parametrize("mode", ["finest", "universal"])
    def test_random_tables(self, mode):
        rng = random.Random(4810 if mode == "finest" else 4811)
        for _ in range(100):
            table = random_dag_table(rng, max_elements=8, force_spring=True)
            ext = despring(table, mode)
            assert validate_associativity(ext.extended).ok
            assert find_springs(ext.extended).springs == frozenset()
            # base preserved verbatim
            assert table.elements <= ext.extended.elements
            for pair, value in table.product.items():
                assert ext.extended.product[pair] == value
            base_pairs = {
                p for p in ext.extended.composable if set(p) <= table.elements
            }
            assert base_pairs == table.composable

    def test_artifact_heads_not_resprung(self, golden):
        # maximal-length words have empty in-table follower sets but are
        # not springs; despring must leave them alone
        trunc = build_markov(golden, 3)
        ext = despring(trunc.table, "finest")
        assert ext.extended is trunc.table
