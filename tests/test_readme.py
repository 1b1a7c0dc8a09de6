"""The examples in README.md work as written: each fenced block is read from
the README itself, so an edit that breaks one fails here."""

from __future__ import annotations

import re
from ast import literal_eval
from pathlib import Path

from sgpd.cli import run
from sgpd.formats import parse_rep

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def block(after: str) -> str:
    """The first fenced block after the first occurrence of `after`."""
    fence = re.compile(r"^```\w*\n(.*?)^```$", re.S | re.M)
    return fence.search(README, README.index(after)).group(1)


def written(tmp_path, name: str, after: str) -> str:
    path = tmp_path / name
    path.write_text(block(after), encoding="utf-8")
    return str(path)


def test_sgpd_example_validates(tmp_path):
    code, text = run(["validate", written(tmp_path, "t.sgpd", "`.sgpd` — a composition table")])
    assert code == 0, text
    assert "result: pass" in text


def test_mat01_example_builds_a_markov_table(tmp_path):
    path = written(tmp_path, "A.mat01", "`.mat01` — a square 0-1 matrix")
    code, text = run(["markov", "--matrix", path, "--maxlen", "4"])
    assert code == 0, text
    assert "words: 18" in text


def test_kgr_example_checks(tmp_path):
    path = written(tmp_path, "graph.kgr", "`.kgr` — a coloured skeleton")
    code, text = run(["kgraph", "check", path, "--maxdeg", "2,2"])
    assert code == 0, text


def test_rep_example_parses():
    dim, assign = parse_rep(block("`.rep` — a matrix assignment"))
    assert dim == 2
    assert sorted(assign) == ["e", "f"]
    assert all(m.shape == (2, 2) for m in assign.values())


def test_quick_start_runs(capsys):
    """The zero representation passes the axioms and is tight, and the two
    presentations disagree on it, as the README says after the block."""
    exec(compile(block("## Library quick start"), "README.md", "exec"), {})
    elements, tight, agree = capsys.readouterr().out.splitlines()
    assert tight.split()[0] == "True"
    assert tight == "True 3080"
    assert agree == "False"
    assert len(literal_eval(elements)) == 18
