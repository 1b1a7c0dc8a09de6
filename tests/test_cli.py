import json
import random

import pytest

import sgpd.cli
import sgpd.kgraph
import sgpd.markov
import sgpd.relations
import sgpd.springs
from sgpd.cli import run
from sgpd.formats import render_mat01, render_rep, render_sgpd
from sgpd.markov import Matrix01, build_markov
from sgpd.matrices import RatMat
from sgpd.springs import find_springs

from conftest import random_dag_table


@pytest.fixture()
def golden_mat(tmp_path, golden):
    path = tmp_path / "A.mat01"
    path.write_text(render_mat01(golden))
    return str(path)


@pytest.fixture()
def golden_table(tmp_path, golden):
    path = tmp_path / "A.sgpd"
    path.write_text(render_sgpd(build_markov(golden, 3).table))
    return str(path)


@pytest.fixture()
def golden_zero_rep(tmp_path, golden):
    path = tmp_path / "zero.rep"
    elements = build_markov(golden, 3).table.elements
    path.write_text(render_rep(1, {t: RatMat.zeros(1) for t in elements}))
    return str(path)


TWO_LOOPS_KGR = "k: 2\nobjects: v\nedge: b 1 v v\nedge: r 2 v v\nsquare: b r = r b\n"


def machine_section(text):
    return text.split("\n\n", 1)[0]


class TestExitCodes:
    def test_validate_pass(self, golden_table):
        code, text = run(["validate", golden_table])
        assert code == 0
        assert "result: pass" in text

    def test_validate_fail(self, tmp_path):
        bad = tmp_path / "bad.sgpd"
        bad.write_text(
            "elements: f g h fg gh fgh\n"
            "compose: f g -> fg\n"
            "compose: g h -> gh\n"
            "compose: f gh -> fgh\n"
        )
        code, text = run(["validate", str(bad)])
        assert code == 1
        assert "witness-triple: f g h" in text

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.sgpd"
        bad.write_text("nonsense\n")
        code, text = run(["validate", str(bad)])
        assert code == 2

    @pytest.mark.parametrize(
        "name, text, args, message",
        [
            ("t.sgpd", "elements: a b c\ncompose: a b -> c\ncompose: a b -> b\n", ["validate"],
             "line 3: a b -> b contradicts a b -> c"),
            ("t.kgr", "k: 1\nobjects: v\nk: 2\n", ["kgraph", "check", "--maxdeg", "1"],
             "line 3: second 'k:' line"),
            ("t.mat01", "2\nlabels: a b\nlabels: c d\n1 1\n1 0\n", ["markov", "--matrix"],
             "line 3: second 'labels:' line"),
        ],
    )
    def test_repeated_line_exits_2(self, tmp_path, name, text, args, message):
        path = tmp_path / name
        path.write_text(text)
        code, out = run(args + [str(path)])
        assert code == 2
        assert message in out

    def test_missing_file(self):
        code, _ = run(["validate", "/nonexistent/x.sgpd"])
        assert code == 2

    def test_unknown_flag(self, golden_table):
        code, _ = run(["validate", golden_table, "--frobnicate"])
        assert code == 2

    def test_malformed_numbers(self, tmp_path):
        kgr = tmp_path / "bad.kgr"
        kgr.write_text("k: x\nobjects: v\n")
        code, text = run(["kgraph", "check", str(kgr), "--maxdeg", "1"])
        assert code == 2 and text.startswith("error:")
        table = tmp_path / "e.sgpd"
        table.write_text("elements: f\n")
        rep = tmp_path / "bad.rep"
        rep.write_text("dim: q\nf = [[0]]\n")
        code, text = run(["rep", "check", str(table), str(rep)])
        assert code == 2 and text.startswith("error:")

    def test_non_ascii_digit_matrix_size(self, tmp_path):
        # "²" is a digit to str.isdigit but not a decimal int() accepts
        mat = tmp_path / "sq.mat01"
        mat.write_text("²\n")
        code, text = run(["markov", "--matrix", str(mat)])
        assert code == 2 and "expected the matrix size" in text

    @pytest.mark.parametrize("maxlen", ["0", "-1"])
    def test_maxlen_below_one(self, golden_mat, maxlen):
        code, text = run(["markov", "--matrix", golden_mat, "--maxlen", maxlen])
        assert code == 2 and text.startswith("error:")

    @pytest.mark.parametrize(
        "rows, maxlen",
        [([[1, 1, 1]] * 3, "7"), ([[1, 1], [1, 0]], "1000000000"), ([[1]], "1000000000")],
    )
    def test_maxlen_over_word_cap(self, tmp_path, rows, maxlen):
        # refused from the transfer-matrix count, before any word is built
        mat = tmp_path / "big.mat01"
        mat.write_text(render_mat01(Matrix01.from_rows(rows)))
        code, text = run(["markov", "--matrix", str(mat), "--maxlen", maxlen])
        assert (code, text) == (
            1,
            f"bound exceeded: more than {sgpd.markov.WORD_CAP} admissible words "
            f"up to length {maxlen}\n",
        )

    @pytest.mark.parametrize(
        "kgr, maxdeg, degree",
        [
            (TWO_LOOPS_KGR, "10,10", "(10, 10)"),
            (TWO_LOOPS_KGR, "1000000000,1000000000", "(1000000000, 1000000000)"),
            ("k: 1\nobjects: v\nedge: e 1 v v\n", "1000000000", "(1000000000,)"),
        ],
    )
    @pytest.mark.parametrize(
        "verb", [["kgraph", "check"], ["relations", "--style", "kp", "--kgr"]]
    )
    def test_maxdeg_over_word_cap(self, tmp_path, kgr, maxdeg, degree, verb):
        # bounds past the former cap of 50,000 edge words: the build walks
        # the normal forms alone, so the two-loop at 10,10 (705,430 edge
        # words, 121 morphisms) passes, and the bounds of 10^9 are refused
        # from the morphism count, before anything is built
        path = tmp_path / "big.kgr"
        path.write_text(kgr)
        code, text = run([*verb, str(path), "--maxdeg", maxdeg])
        if maxdeg == "10,10":
            key = "morphisms" if verb[0] == "kgraph" else "generators"
            assert code == 0 and f"\n{key}: 121\n" in text
        else:
            assert (code, text) == (
                1,
                f"bound exceeded: more than {sgpd.kgraph.MORPHISM_CAP} morphisms "
                f"within degree {degree}\n",
            )

    @pytest.mark.parametrize("maxdeg", ["1000", "49999"])
    @pytest.mark.parametrize(
        "verb", [["kgraph", "check"], ["relations", "--style", "kp", "--kgr"]]
    )
    def test_maxdeg_over_morphism_cap(self, tmp_path, maxdeg, verb):
        # the one-loop 1-graph, one morphism per degree: over the cap
        path = tmp_path / "loop.kgr"
        path.write_text("k: 1\nobjects: v\nedge: e 1 v v\n")
        code, text = run([*verb, str(path), "--maxdeg", maxdeg])
        assert (code, text) == (
            1,
            f"bound exceeded: more than {sgpd.kgraph.MORPHISM_CAP} morphisms "
            f"within degree ({maxdeg},)\n",
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["rep", "check", "{table}", "{rep}", "--tight", "--max-fg", "-1"],
            ["rep", "check", "{table}", "{rep}", "--tight", "--max-cover", "-1"],
            ["covers", "{table}", "--max-size", "-1"],
            ["relations", "{table}", "--style", "generic", "--max-fg", "-1"],
            ["relations", "{table}", "--style", "generic", "--max-cover", "-2"],
        ],
    )
    def test_negative_bound(self, golden_table, golden_zero_rep, argv):
        argv = [a.format(table=golden_table, rep=golden_zero_rep) for a in argv]
        assert run(argv) == (2, "")

    def test_zero_bound(self, golden_table, golden_zero_rep):
        code, text = run(
            ["rep", "check", golden_table, golden_zero_rep, "--tight", "--max-fg", "0"]
        )
        assert code == 0 and "families-checked: 0" in text
        code, text = run(["covers", golden_table, "--max-size", "0"])
        assert code == 1 and "result: bound-exceeded" in text

    def test_rep_missing_matrix(self, tmp_path):
        table = tmp_path / "ab.sgpd"
        table.write_text("elements: a b\n")
        rep = tmp_path / "a.rep"
        rep.write_text("dim: 1\na = [[0]]\n")
        code, text = run(["rep", "check", str(table), str(rep)])
        assert code == 2
        assert text == "error: no matrix for ['b']\n"

    def test_covers_unknown_element(self, golden_table):
        code, text = run(["covers", golden_table, "--target-fg", "zz", ""])
        assert code == 2 and "zz" in text

    def test_graphable_obstruction_exit(self, golden_mat):
        code, text = run(["markov", "--matrix", golden_mat, "--maxlen", "3", "--graphable"])
        assert code == 1
        assert "obstruction: 2 1 1 2" in text

    def test_graphable_runs_no_search_oracle(self, tmp_path, monkeypatch):
        # the oracle tries all n^n assignments: minutes at 8 letters
        def oracle(matrix):
            raise AssertionError("the CLI ran the search oracle")

        monkeypatch.setattr(sgpd.markov, "graphable_oracle", oracle)
        monkeypatch.setattr(sgpd.cli, "graphable_oracle", oracle, raising=False)
        path = tmp_path / "ones8.mat01"
        path.write_text(render_mat01(Matrix01.from_rows([[1] * 8] * 8)))
        code, text = run(["markov", "--matrix", str(path), "--maxlen", "1", "--graphable"])
        assert code == 0
        assert "graphable: yes" in text


BROKEN_CUBE_KGR = (
    "k: 3\nobjects: v\n"
    "edge: a 1 v v\nedge: a2 1 v v\nedge: b 2 v v\nedge: b2 2 v v\nedge: c 3 v v\n"
    "square: a b = b a\nsquare: a b2 = b a2\nsquare: a2 b = b2 a\nsquare: a2 b2 = b2 a2\n"
    "square: a c = c a\nsquare: a2 c = c a2\nsquare: b c = c b2\nsquare: b2 c = c b\n"
)


class TestFailures:
    """A failed verb prints one line, or with --json one JSON object of the
    verb, the result and the message."""

    @pytest.mark.parametrize(
        "kgr, maxdeg, code, result, message",
        [
            ("k: x\nobjects: v\n", "1", 2, "error", "line 1: bad rank 'x'"),
            ("k: 1\nobjects: v\nedge: e 1 v v\n", "49999", 1, "bound-exceeded",
             "more than 300 morphisms within degree (49999,)"),
            (BROKEN_CUBE_KGR, "1,1,1", 1, "violation",
             "cube of ('c', 'b', 'a') does not close: moves (0, 1, 0) give "
             "('a2', 'b', 'c') and moves (1, 0, 1) give ('a', 'b2', 'c')"),
        ],
        ids=["error", "bound-exceeded", "violation"],
    )
    def test_text_and_json(self, tmp_path, kgr, maxdeg, code, result, message):
        path = tmp_path / "g.kgr"
        path.write_text(kgr)
        argv = ["kgraph", "check", str(path), "--maxdeg", maxdeg]
        label = {"error": "error", "bound-exceeded": "bound exceeded", "violation": "violation"}
        assert run(argv) == (code, f"{label[result]}: {message}\n")
        got_code, text = run(["--json", *argv])
        assert got_code == code and text.endswith("}\n") and text.count("\n") == 1
        assert json.loads(text) == {"verb": "kgraph", "result": result, "message": message}

    def test_json_error_names_the_verb(self):
        code, text = run(["--json", "validate", "/nonexistent/x.sgpd"])
        assert code == 2
        payload = json.loads(text)
        assert (payload["verb"], payload["result"]) == ("validate", "error")
        assert payload["message"].startswith("cannot read /nonexistent/x.sgpd")

    @pytest.mark.parametrize(
        "argv, verb, message",
        [
            (["rep", "check", "{table}", "{rep}", "--tight", "--max-fg", "-1"], "rep",
             "argument --max-fg: must be at least 0, got -1"),
            (["nosuchverb"], None,
             "argument verb: invalid choice: 'nosuchverb' (choose from 'validate', "
             "'analyze', 'despring', 'markov', 'kgraph', 'covers', 'rep', 'relations')"),
            ([], None, "the following arguments are required: verb"),
        ],
        ids=["negative-bound", "unknown-verb", "no-verb"],
    )
    def test_malformed_command_line(self, golden_table, golden_zero_rep, capsys,
                                    argv, verb, message):
        """argparse's refusal: with --json one JSON object on stdout, and in
        text mode nothing on stdout and argparse's usage on stderr."""
        argv = [a.format(table=golden_table, rep=golden_zero_rep) for a in argv]
        code, text = run(["--json", *argv])
        assert code == 2 and text.endswith("}\n") and text.count("\n") == 1
        assert json.loads(text) == {"verb": verb, "result": "error", "message": message}
        assert capsys.readouterr().err == ""
        assert run(argv) == (2, "")
        assert capsys.readouterr().err.endswith(f"error: {message}\n")


class TestDeterminism:
    def test_machine_section_stable(self, golden_table):
        one = run(["analyze", golden_table])
        two = run(["analyze", golden_table])
        assert one == two

    def test_json_mode(self, golden_table):
        code, text = run(["--json", "analyze", golden_table])
        assert code == 0
        payload = json.loads(text)
        assert payload["verb"] == "analyze"
        assert payload["associative"] == "yes"


class TestVerbs:
    def test_despring_writes_mapping(self, tmp_path, dead_row):
        src = tmp_path / "dead.sgpd"
        src.write_text(render_sgpd(build_markov(dead_row, 3).table))
        out = tmp_path / "out.sgpd"
        code, text = run(["despring", str(src), "--mode", "finest", "-o", str(out)])
        assert code == 0
        assert "adjoined: 1" in text
        code2, text2 = run(["validate", str(out)])
        assert code2 == 0

    def test_despring_finds_springs_once(self, tmp_path, monkeypatch):
        """The springs: line counts every spring with one spring search per
        call, in both modes, on tables with springs."""
        calls = []

        def counted(table):
            calls.append(table)
            return find_springs(table)

        monkeypatch.setattr(sgpd.springs, "find_springs", counted)
        monkeypatch.setattr(sgpd.cli, "find_springs", counted)
        src = tmp_path / "t.sgpd"
        for seed in range(10):
            table = random_dag_table(random.Random(seed), force_spring=True)
            src.write_text(render_sgpd(table))
            for mode in ("finest", "universal"):
                calls.clear()
                code, text = run(["despring", str(src), "--mode", mode])
                assert code == 0
                assert len(calls) == 1
                assert f"\nsprings: {len(find_springs(table).springs)}\n" in text

    def test_covers_verb(self, golden_table):
        code, text = run(
            ["covers", golden_table, "--target-fg", "1", "", "--max-size", "4"]
        )
        assert code == 0
        assert "minimal-coverings:" in text

    def test_kgraph_verb(self, tmp_path):
        kgr = tmp_path / "d.kgr"
        kgr.write_text(
            "k: 2\nobjects: v\nedge: b 1 v v\nedge: r 2 v v\nsquare: b r = r b\n"
        )
        code, text = run(["kgraph", "check", str(kgr), "--maxdeg", "2,2"])
        assert code == 0
        assert "morphisms: 9" in text
        assert "slice-partitions: pass" in text

    def test_kgraph_inconsistent_square(self, tmp_path):
        kgr = tmp_path / "bad.kgr"
        kgr.write_text(
            "k: 2\nobjects: v\nedge: b 1 v v\nedge: r 2 v v\n"
            "square: b r = r b\nsquare: b r = r b\n"
        )
        code, text = run(["kgraph", "check", str(kgr), "--maxdeg", "1,1"])
        assert code == 1
        assert "violation" in text

    def test_kgraph_square_unknown_edge(self, tmp_path):
        kgr = tmp_path / "bad.kgr"
        kgr.write_text("k: 1\nobjects: v\nedge: e 1 v v\nsquare: e x = x e\n")
        code, text = run(["kgraph", "check", str(kgr), "--maxdeg", "1"])
        assert code == 2
        assert text == "error: unknown edge 'x'\n"

    def test_rep_check_tight_witness(self, tmp_path):
        table = tmp_path / "e.sgpd"
        table.write_text("elements: f\n")
        rep = tmp_path / "e.rep"
        rep.write_text("dim: 2\nf = [[0, 1], [0, 0]]\n")
        code, text = run(["rep", "check", str(table), str(rep), "--tight"])
        assert code == 1
        assert "tight-witness-required: f" in text
        assert "tight-witness-covering: -" in text

    def test_rep_check_axioms_pass(self, tmp_path):
        table = tmp_path / "e.sgpd"
        table.write_text("elements: f\n")
        rep = tmp_path / "e.rep"
        rep.write_text("dim: 2\nf = [[0, 0], [0, 0]]\n")
        code, text = run(["rep", "check", str(table), str(rep), "--tight"])
        assert code == 0
        assert "tight: pass" in text

    def test_relations_styles(self, tmp_path, golden_table, golden_mat):
        code, text = run(["relations", golden_table, "--style", "generic", "--toeplitz"])
        assert code == 0 and "style: toeplitz" in text
        code, text = run(["relations", "--style", "ck", "--matrix", golden_mat])
        assert code == 0 and "rel: el13:" in text
        kgr = tmp_path / "c.kgr"
        kgr.write_text("k: 1\nobjects: v\nedge: e 1 v v\n")
        code, text = run(["relations", "--style", "kp", "--kgr", str(kgr), "--maxdeg", "3"])
        assert code == 0 and "rel: kp4:" in text

    def test_relations_json_renders_no_text(self, tmp_path, golden_table, golden_mat, monkeypatch):
        # --json drops the human note, so the presentation is never rendered
        def refuse(self):
            raise AssertionError("rendered under --json")

        monkeypatch.setattr(sgpd.relations.Presentation, "render", refuse)
        kgr = tmp_path / "d.kgr"
        kgr.write_text(TWO_LOOPS_KGR)
        cases = [
            (["--style", "generic", golden_table], "tight", 10, 575),
            (["--style", "generic", golden_table, "--toeplitz"], "toeplitz", 10, 290),
            (["--style", "ck", "--matrix", golden_mat], "cuntz-krieger", 2, 30),
            (["--style", "kp", "--kgr", str(kgr), "--maxdeg", "2,2"], "kumjian-pask", 9, 60),
        ]
        for flags, style, generators, relations in cases:
            assert run(["--json", "relations", *flags]) == (0, (
                f'{{"verb": "relations", "style": "{style}", '
                f'"generators": {generators}, "relations": {relations}}}\n'
            ))

    def test_threads_env_ignored(self, golden_table, monkeypatch):
        monkeypatch.delenv("SGPD_THREADS", raising=False)
        unset = run(["validate", golden_table])
        assert unset[0] == 0
        for value in ("2", "zero", "-1"):
            monkeypatch.setenv("SGPD_THREADS", value)
            assert run(["validate", golden_table]) == unset


class TestBounds:
    def test_kgraph_check_stops_at_the_first_bad_slice(self, tmp_path):
        # u <- v <- w: the u slices of degree 3 and up are empty, so the
        # first failing slice is the same at every bound from 3 on
        kgr = tmp_path / "path.kgr"
        kgr.write_text("k: 1\nobjects: u v w\nedge: a 1 v u\nedge: b 1 w v\n")
        witness = "slice-witness: u (3,) uncovered ('a',)"
        for bound in ("4", "20000", "1000000000"):
            code, text = run(["kgraph", "check", str(kgr), "--maxdeg", bound])
            assert code == 1
            assert witness in text.splitlines()

    def test_many_colours_at_zero_bound(self, tmp_path):
        # one object of rank 1200 at the zero bound: one degree to walk,
        # however many colours
        kgr = tmp_path / "rank1200.kgr"
        kgr.write_text("k: 1200\nobjects: v\n")
        bound = ",".join(["0"] * 1200)
        code, text = run(["kgraph", "check", str(kgr), "--maxdeg", bound])
        assert code == 0, text
        assert "rfns: pass" in text.splitlines()
        code, text = run(["relations", "--style", "kp", "--kgr", str(kgr), "--maxdeg", bound])
        assert code == 0, text
        assert "rel: kp-cover: (gen v) = (join (mul (gen v) (adj v)))" in text.splitlines()

    def test_relations_ck_refuses_nine_letters(self, tmp_path):
        mat = tmp_path / "ones9.mat01"
        mat.write_text(render_mat01(Matrix01.from_rows([[1] * 9] * 9)))
        code, text = run(["relations", "--style", "ck", "--matrix", str(mat)])
        assert code == 1
        assert text == "bound exceeded: more than 65536 el13 relations for 9 letters\n"
