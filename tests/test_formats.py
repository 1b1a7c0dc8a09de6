from fractions import Fraction

import pytest

from sgpd.formats import (
    FormatError,
    parse_kgr,
    parse_mat01,
    parse_matrix_literal,
    parse_rep,
    parse_sgpd,
    render_kgr,
    render_mat01,
    render_rep,
    render_sgpd,
)
from sgpd.markov import Matrix01, build_markov
from sgpd.matrices import RatMat


class TestSgpd:
    def test_round_trip(self, golden):
        table = build_markov(golden, 3).table
        text = render_sgpd(table)
        back = parse_sgpd(text)
        assert back.elements == table.elements
        assert dict(back.product) == dict(table.product)
        assert back.boundary == table.boundary
        assert back.artifact_pairs == table.artifact_pairs
        assert render_sgpd(back) == text

    def test_comments_and_whitespace(self):
        text = """
        # a table with two chained elements
        elements:   f g   fg
        compose: f   g ->   fg   # product
        """
        table = parse_sgpd(text)
        assert table.elements == {"f", "g", "fg"}
        assert table.product[("f", "g")] == "fg"

    def test_bad_compose_line(self):
        with pytest.raises(FormatError):
            parse_sgpd("elements: f\ncompose: f -> f")

    def test_unknown_line(self):
        with pytest.raises(FormatError):
            parse_sgpd("elements: f\nwhatever: x")

    def test_product_outside_carrier(self):
        with pytest.raises(FormatError):
            parse_sgpd("elements: f g\ncompose: f g -> ghost")

    def test_empty(self):
        with pytest.raises(FormatError):
            parse_sgpd("# nothing\n")


class TestMat01:
    def test_round_trip(self, golden):
        assert parse_mat01(render_mat01(golden)).entries == golden.entries

    def test_default_labels(self):
        matrix = parse_mat01("2\n1 1\n1 0\n")
        assert matrix.alphabet == ("1", "2")

    def test_wrong_row_count(self):
        with pytest.raises(FormatError):
            parse_mat01("2\n1 1\n")

    def test_non_binary_entry(self):
        with pytest.raises(FormatError):
            parse_mat01("1\n2\n")


class TestKgr:
    def test_round_trip(self):
        text = "k: 2\nobjects: v\nedge: b 1 v v\nedge: r 2 v v\nsquare: b r = r b\n"
        skeleton = parse_kgr(text)
        assert render_kgr(skeleton) == text

    def test_missing_rank(self):
        with pytest.raises(FormatError):
            parse_kgr("objects: v\n")

    def test_bad_square(self):
        with pytest.raises(FormatError):
            parse_kgr("k: 2\nobjects: v\nedge: b 1 v v\nsquare: b = b\n")

    def test_bad_rank(self):
        with pytest.raises(FormatError):
            parse_kgr("k: x\nobjects: v\n")


class TestRep:
    def test_round_trip(self):
        text = "dim: 2\nf = [[0, 1], [0, 0]]\ng = [[1/2, 1/2], [1/2, 1/2]]\n"
        dim, assign = parse_rep(text)
        assert dim == 2
        assert assign["g"].rows[0][0] == Fraction(1, 2)
        assert parse_rep(render_rep(dim, assign)) == (dim, assign)

    def test_matrix_literal_negative_rationals(self):
        m = parse_matrix_literal("[[-1/3, 2]]")
        assert m.rows == ((Fraction(-1, 3), Fraction(2)),)

    def test_bad_literal(self):
        with pytest.raises(FormatError):
            parse_matrix_literal("[[1, ]]")
        with pytest.raises(FormatError):
            parse_matrix_literal("[[1] [2]]")
        with pytest.raises(FormatError):
            parse_matrix_literal("[[1/0]]")

    def test_dimension_enforced(self):
        with pytest.raises(FormatError):
            parse_rep("dim: 2\nf = [[1]]\n")

    def test_duplicate_rejected(self):
        with pytest.raises(FormatError):
            parse_rep("dim: 1\nf = [[1]]\nf = [[0]]\n")

    def test_bad_dimension(self):
        with pytest.raises(FormatError):
            parse_rep("dim: q\nf = [[1]]\n")
