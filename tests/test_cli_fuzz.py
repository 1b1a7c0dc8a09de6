"""The CLI contract on arbitrary input files: every verb ends with exit code
0 (pass), 1 (violation) or 2 (malformed input), never with an exception.

Each format gets two sources of text: arbitrary unicode, and files built
from the format's own grammar over a few short names, mostly well formed
with the odd stray token, so that many examples get past the parser and
reach the checks behind it.  Names, letters and dimensions are few and
small, which keeps every example at desk size.  A last test keeps the
input files fixed and tiny and draws the flag values instead.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sgpd.cli import run

FUZZ = settings(max_examples=20, deadline=None, derandomize=True, database=None)

ELEMENTS = ["f", "g", "h", "fg"]
STRAY = st.sampled_from(["x", "-1", "", "2/0"])


def _token(values, clean):
    """One of `values`; unless the file is clean, now and then a stray."""
    if clean:
        return st.sampled_from(values)
    return st.one_of(st.sampled_from(values), st.sampled_from(values), STRAY)


def _file(lines):
    return st.one_of(st.text(max_size=60), lines.map("\n".join))


@st.composite
def _sgpd_lines(draw):
    clean = draw(st.booleans())
    names = draw(st.lists(st.sampled_from(ELEMENTS), min_size=1, max_size=4, unique=True))
    name = _token(names, clean)
    body = draw(st.lists(st.one_of(
        st.tuples(name, name, name).map(lambda t: "compose: {} {} -> {}".format(*t)),
        st.lists(name, max_size=2).map(lambda xs: "boundary: " + " ".join(xs)),
        st.tuples(name, name).map(lambda t: "artifact: {} {}".format(*t)),
    ), max_size=6))
    return ["elements: " + " ".join(names)] + body


@st.composite
def _mat01_lines(draw):
    clean = draw(st.booleans())
    n = draw(st.integers(1, 3))
    rows = draw(st.lists(
        st.lists(_token(["0", "1"], clean), min_size=n, max_size=n).map(" ".join),
        min_size=n, max_size=n,
    ))
    labels = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
    head = [str(n)] + (["labels: " + " ".join(labels)] if draw(st.booleans()) else [])
    return head + rows


@st.composite
def _kgr_input(draw):
    """(file text, degree bound with one component per colour)."""
    clean = draw(st.booleans())
    k = draw(st.integers(1, 2))
    objects = draw(st.lists(st.sampled_from("vu"), min_size=1, max_size=2, unique=True))
    names = ["a", "b", "c", "d"][: draw(st.integers(1, 4))]
    obj = _token(objects, clean)
    edges = [
        "edge: {} {} {} {}".format(
            e, draw(_token([str(c) for c in range(1, k + 1)], clean)), draw(obj), draw(obj)
        )
        for e in names
    ]
    edge = _token(names, clean)
    squares = draw(st.lists(
        st.tuples(edge, edge, edge, edge).map(lambda t: "square: {} {} = {} {}".format(*t)),
        max_size=3,
    ))
    head = ["k: " + draw(_token([str(k)], clean)), "objects: " + " ".join(objects)]
    maxdeg = ",".join(str(draw(st.integers(0, 2))) for _ in range(k))
    return "\n".join(head + edges + squares), maxdeg


@st.composite
def _rep_lines(draw):
    clean = draw(st.booleans())
    dim = draw(st.integers(1, 2))
    entry = _token(["0", "1", "-1", "1/2", "3/5", "4/5"], clean)
    lines = ["dim: " + draw(_token([str(dim)], clean))]
    some = st.lists(st.sampled_from(ELEMENTS), unique=True)
    names = draw(st.one_of(st.just(ELEMENTS), some))
    for name in names:
        rows = draw(st.lists(
            st.lists(entry, min_size=dim, max_size=dim).map(", ".join),
            min_size=dim, max_size=dim,
        ))
        lines.append(f"{name} = [" + ", ".join(f"[{r}]" for r in rows) + "]")
    return lines


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> Path:
    """A directory with a fixed table and two constant representations to
    pair with the fuzzed file, which each example overwrites."""
    work = tmp_path_factory.mktemp("fuzz")
    (work / "table.sgpd").write_text("elements: f g fg\ncompose: f g -> fg\n")
    for entry in "01":
        matrices = "".join(f"{x} = [[{entry}]]\n" for x in ELEMENTS)
        (work / f"const{entry}.rep").write_text("dim: 1\n" + matrices)
    return work


def _assert_contract(path: Path, text: str, argvs) -> None:
    path.write_text(text, encoding="utf-8")
    for argv in argvs:
        code, _ = run(argv)
        assert code in (0, 1, 2), argv


@FUZZ
@given(text=_file(_sgpd_lines()), entry=st.sampled_from("01"))
def test_sgpd_input(work, text, entry):
    p, rep = str(work / "input.sgpd"), str(work / f"const{entry}.rep")
    _assert_contract(work / "input.sgpd", text, [
        ["validate", p],
        ["analyze", p],
        ["despring", p, "-o", str(work / "out.sgpd")],
        ["covers", p, "--target-fg", "f", ""],
        ["relations", p, "--style", "generic", "--max-fg", "1"],
        ["rep", "check", p, rep, "--tight", "--max-fg", "1"],
    ])


@FUZZ
@given(text=_file(_mat01_lines()))
def test_mat01_input(work, text):
    p = str(work / "input.mat01")
    _assert_contract(work / "input.mat01", text, [
        ["markov", "--matrix", p, "--maxlen", "2", "--graphable"],
        ["relations", "--style", "ck", "--matrix", p],
    ])


@FUZZ
@given(text_maxdeg=st.one_of(st.tuples(st.text(max_size=60), st.just("1")), _kgr_input()))
def test_kgr_input(work, text_maxdeg):
    text, maxdeg = text_maxdeg
    p = str(work / "input.kgr")
    _assert_contract(work / "input.kgr", text, [
        ["kgraph", "check", p, "--maxdeg", maxdeg],
        ["relations", "--style", "kp", "--kgr", p, "--maxdeg", maxdeg],
    ])


@FUZZ
@given(text=_file(_rep_lines()))
def test_rep_input(work, text):
    p = str(work / "input.rep")
    _assert_contract(work / "input.rep", text, [
        ["rep", "check", str(work / "table.sgpd"), p, "--tight", "--max-fg", "1"],
    ])


# ---- random flag values on fixed tiny inputs

SMALL_NUMBER = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from(["", "x", "1.5", "0x1", "1e2", " 2", "--", "-"]),
)
# a size bound far past the input: the work must stay bounded by the input
# (a word length or degree bound that large is real work, so those stay small)
NUMBER = st.one_of(SMALL_NUMBER, st.just("10" * 12))
DEGREE = st.one_of(
    st.lists(st.one_of(st.integers(-1, 2).map(str), st.sampled_from(["", "x", " 1"])),
             max_size=3).map(",".join),
    st.sampled_from([",", "1,,1", "2;2"]),
)
ELEMENT_LIST = st.sampled_from(["", "f", "f,g", ",", "fg,f", "zz", "f,,g"])
STYLE = st.sampled_from(["generic", "ck", "kp", "tight", ""])


@st.composite
def _flag_argv(draw, files):
    """One verb's argv, with its numeric, degree, list and style flags drawn
    at random; the arity of --target-fg varies too."""
    table, rep, mat, kgr = files
    verb = draw(st.sampled_from(["markov", "covers", "rep", "kgraph", "relations"]))
    if verb == "markov":
        argv = ["markov", "--matrix", mat, "--maxlen", draw(SMALL_NUMBER)]
        return argv + (["--graphable"] if draw(st.booleans()) else [])
    if verb == "covers":
        target = draw(st.lists(ELEMENT_LIST, max_size=3))
        return ["covers", table, "--target-fg", *target, "--max-size", draw(NUMBER)]
    if verb == "rep":
        return ["rep", "check", table, rep, "--tight",
                "--max-fg", draw(NUMBER), "--max-cover", draw(NUMBER)]
    if verb == "kgraph":
        return ["kgraph", "check", kgr, "--maxdeg", draw(DEGREE)]
    argv = ["relations", "--style", draw(STYLE), "--max-fg", draw(NUMBER),
            "--max-cover", draw(NUMBER)]
    if draw(st.booleans()):
        argv.insert(1, table)
    if draw(st.booleans()):
        argv += ["--matrix", mat]
    if draw(st.booleans()):
        argv += ["--kgr", kgr, "--maxdeg", draw(DEGREE)]
    return argv


@pytest.fixture(scope="module")
def flag_files(work) -> tuple[str, str, str, str]:
    """A table, a zero representation of it, the golden-mean matrix and the
    two-loop 2-graph."""
    (work / "golden.mat01").write_text("2\n1 1\n1 0\n")
    (work / "loops.kgr").write_text(
        "k: 2\nobjects: v\nedge: b 1 v v\nedge: r 2 v v\nsquare: b r = r b\n"
    )
    return (str(work / "table.sgpd"), str(work / "const0.rep"),
            str(work / "golden.mat01"), str(work / "loops.kgr"))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_random_flags(flag_files, data):
    argv = data.draw(_flag_argv(flag_files))
    code, _ = run(argv)
    assert code in (0, 1, 2), argv
