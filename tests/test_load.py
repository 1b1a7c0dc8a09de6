"""The load path against the line-by-line parsers it replaces.

`oracle_parse_sgpd` and `oracle_parse_rep` are the per-line parsers the
one-pass `parse_sgpd` and the literal-sharing `parse_rep` replaced, kept
here as the reference.  The oracle's well-formedness walk is the
per-item check the set-algebra `SemigroupoidTable.__post_init__`
replaced, with one change: artifact pairs are walked in sorted order, so
the witness it names is the least offending pair whatever the hash seed.
The oracle also states the one-product-per-pair rule line by line: a
`compose:` line that names another product for a pair already composed
is refused.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sgpd
from sgpd.core import SemigroupoidTable
from sgpd.formats import FormatError, parse_matrix_literal, parse_rep, parse_sgpd
from sgpd.matrices import RatMat
from sgpd.reps import Representation

DIFF = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _oracle_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _oracle_malformed(elements, product, boundary, artifacts) -> str | None:
    for (f, g), h in product.items():
        if f not in elements or g not in elements:
            return f"composable pair ({f}, {g}) not in carrier"
        if h not in elements:
            return f"product {f}*{g} = {h} not in carrier"
    if not boundary <= elements:
        return "boundary elements outside carrier"
    for f, g in sorted(artifacts):
        if f not in elements or g not in elements:
            return f"artifact pair ({f}, {g}) not in carrier"
        if (f, g) in product:
            return f"pair ({f}, {g}) both composable and artifact"
    return None


def oracle_parse_sgpd(text: str):
    """(elements, product, boundary, artifact pairs), or FormatError."""
    elements: set[str] = set()
    product: dict[tuple[str, str], str] = {}
    boundary: set[str] = set()
    artifacts: set[tuple[str, str]] = set()
    for lineno, line in _oracle_lines(text):
        if line.startswith("elements:"):
            elements.update(line[len("elements:") :].split())
        elif line.startswith("compose:"):
            m = re.fullmatch(r"compose:\s*(\S+)\s+(\S+)\s*->\s*(\S+)", line)
            if not m:
                raise FormatError(f"line {lineno}: bad compose line {line!r}")
            f, g, h = m.group(1), m.group(2), m.group(3)
            if (f, g) in product and product[(f, g)] != h:
                raise FormatError(
                    f"line {lineno}: {f} {g} -> {h} contradicts {f} {g} -> {product[(f, g)]}"
                )
            product[(f, g)] = h
        elif line.startswith("boundary:"):
            boundary.update(line[len("boundary:") :].split())
        elif line.startswith("artifact:"):
            parts = line[len("artifact:") :].split()
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: artifact line needs two tokens")
            artifacts.add((parts[0], parts[1]))
        else:
            raise FormatError(f"line {lineno}: unrecognised line {line!r}")
    if not elements:
        raise FormatError("no elements declared")
    message = _oracle_malformed(elements, product, boundary, artifacts)
    if message is not None:
        raise FormatError(message)
    return elements, product, boundary, artifacts


def oracle_parse_rep(text: str) -> tuple[int, dict[str, RatMat]]:
    dim: int | None = None
    assign: dict[str, RatMat] = {}
    for lineno, line in _oracle_lines(text):
        if line.startswith("dim:"):
            try:
                dim = int(line[4:])
            except ValueError:
                raise FormatError(
                    f"line {lineno}: bad dimension {line[4:].strip()!r}"
                ) from None
        else:
            m = re.fullmatch(r"(\S+)\s*=\s*(\[.*\])", line)
            if not m:
                raise FormatError(f"line {lineno}: expected 'element = [[...]]'")
            name, literal = m.group(1), m.group(2)
            if name in assign:
                raise FormatError(f"line {lineno}: duplicate matrix for {name!r}")
            assign[name] = parse_matrix_literal(literal)
    if dim is None:
        raise FormatError("missing 'dim:' line")
    for name, mat in assign.items():
        if mat.shape != (dim, dim):
            raise FormatError(
                f"matrix for {name!r} has shape {mat.shape}, expected {(dim, dim)}"
            )
    return dim, assign


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except FormatError as exc:
        return "error", str(exc)


# ----------------------------------------------------------------- .sgpd

NAMES = ["a", "b", "ab", "ghost"]
_name = st.sampled_from(NAMES)
_gap = st.sampled_from([" ", "  ", "\t", ""])
_indent = st.sampled_from(["", " ", "\t", "   "])
_comment = st.sampled_from(["", " # note", "#", "# compose: a b -> ab", " #x:y"])


@st.composite
def _noisy_line(draw):
    """A line that is malformed, or well formed only in a corner of the
    grammar (no space after a colon, an arrow without spaces)."""
    f, g, h = draw(_name), draw(_name), draw(_name)
    return draw(st.sampled_from([
        f"compose:{f} {g}->{h}",
        f"compose: {f} {g}->{h}",
        f"compose: {f}{draw(_gap)}{g} {draw(_gap)}->{draw(_gap)}{h}",
        f"compose: {f} {g} {h}",
        f"compose: {f} -> {h}",
        f"compose : {f} {g} -> {h}",
        "compose:",
        "compose",
        f"artifact:{f} {g}",
        f"artifact: {f}",
        f"artifact: {f} {g} {h}",
        f"artifact : {f} {g}",
        "artifact",
        "artifact:",
        "whatever: x",
        ":",
        "elements",
        "elements :a",
        "boundary",
        "Artifact: a b",
        "artifacts: a b",
        draw(st.text(alphabet="ab :#->\t", max_size=12)),
    ]))


@st.composite
def _line(draw):
    f, g, h = draw(_name), draw(_name), draw(_name)
    choice = draw(st.integers(0, 9))
    if choice == 0:
        return draw(_noisy_line())
    if choice == 1:
        return draw(st.sampled_from(["", "   ", "\t", "# only a comment"]))
    if choice == 2:
        return "elements: " + " ".join(draw(st.lists(_name, max_size=3)))
    if choice == 3:
        return "boundary: " + " ".join(draw(st.lists(_name, max_size=2)))
    if choice <= 6:
        return f"compose: {f} {g} -> {h}"
    return f"artifact: {f} {g}"


@st.composite
def _sgpd_text(draw):
    lines = draw(st.lists(st.tuples(_indent, _line(), _comment), max_size=8))
    if draw(st.integers(0, 3)):
        lines.insert(0, ("", "elements: a b ab", ""))
    sep = draw(st.sampled_from(["\n", "\r\n"]))
    return sep.join(i + line + c for i, line, c in lines)


def _table_parts(table: SemigroupoidTable):
    return table.elements, dict(table.product), table.boundary, table.artifact_pairs


class TestSgpdAgainstOracle:
    @DIFF
    @given(_sgpd_text())
    def test_same_table_or_same_message(self, text):
        kind, expected = _outcome(oracle_parse_sgpd, text)
        got_kind, got = _outcome(parse_sgpd, text)
        assert got_kind == kind
        if kind == "ok":
            assert _table_parts(got) == expected
            # products keep the order of their first compose line
            assert list(got.product) == list(expected[1])
        else:
            assert got == expected

    @pytest.mark.parametrize("text, message", [
        ("elements: a\ncompose: a a->a", None),
        ("elements: a\n  compose :a a -> a", "line 2: unrecognised line 'compose :a a -> a'"),
        ("elements: a\n\tcompose: a a a  # c", "line 2: bad compose line 'compose: a a a'"),
        ("elements: a\n\n artifact: a", "line 3: artifact line needs two tokens"),
        ("elements: a\nartifact: a a a", "line 2: artifact line needs two tokens"),
        ("elements: a\nartifact", "line 2: unrecognised line 'artifact'"),
        ("elements: a\nartifact#: a a", "line 2: unrecognised line 'artifact'"),
        ("# nothing\n", "no elements declared"),
        ("compose: b b -> a\ncompose: b b -> b", "line 2: b b -> b contradicts b b -> a"),
    ])
    def test_cases(self, text, message):
        kind, expected = _outcome(oracle_parse_sgpd, text)
        got_kind, got = _outcome(parse_sgpd, text)
        if message is None:
            assert (kind, got_kind) == ("ok", "ok")
            assert _table_parts(got) == expected
        else:
            assert (kind, got_kind) == ("error", "error")
            assert got == expected == message


class TestMalformedTableMessage:
    TEXT = (
        "elements: a\n"
        "artifact: m n\n"
        "artifact: x y\n"
        "artifact: b c\n"
        "artifact: p q\n"
    )

    def test_least_offending_artifact_pair_is_named(self):
        with pytest.raises(FormatError, match=r"^artifact pair \(b, c\) not in carrier$"):
            parse_sgpd(self.TEXT)

    def test_least_pair_both_composable_and_artifact(self):
        text = "elements: a b\ncompose: b b -> b\ncompose: a a -> a\nartifact: b b\nartifact: a a"
        with pytest.raises(FormatError, match=r"^pair \(a, a\) both composable and artifact$"):
            parse_sgpd(text)

    def test_same_stdout_under_every_hash_seed(self, tmp_path):
        path = tmp_path / "bad.sgpd"
        path.write_text(self.TEXT)
        src = str(Path(sgpd.__file__).resolve().parent.parent)
        outputs = set()
        for seed in ("1", "2", "6"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "sgpd.cli", "validate", str(path)],
                capture_output=True, text=True, env=env, timeout=60,
            )
            outputs.add((proc.returncode, proc.stdout))
        assert outputs == {(2, "error: artifact pair (b, c) not in carrier\n")}


# ------------------------------------------------------------------ .rep

ENTRIES = ["0", "1", "-3", "1/2", "0.5", "1e-3", "1_0", " 1 "]
BAD_ENTRIES = ["2/0", "x", "1/0", ""]


@st.composite
def _literal(draw):
    """A matrix literal, mostly well formed and square."""
    rows = draw(st.integers(0, 3))
    cols = rows if draw(st.integers(0, 3)) else draw(st.integers(0, 3))

    def entry():
        return draw(st.sampled_from(BAD_ENTRIES if draw(st.integers(0, 15)) == 0 else ENTRIES))

    body = ", ".join("[" + ", ".join(entry() for _ in range(cols)) + "]" for _ in range(rows))
    if draw(st.integers(0, 5)):
        return f"[{body}]"
    return draw(st.sampled_from(["[{}", "[{}]]", "[[0], {}]", "[{}],"])).format(body)


@st.composite
def _rep_text(draw):
    # a small pool of literals, so that most files repeat some of them
    pool = draw(st.lists(_literal(), min_size=1, max_size=3))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        name = draw(st.sampled_from(["f", "g", "h", "fg"]))
        lines.append(draw(_indent) + f"{name} = {draw(st.sampled_from(pool))}" + draw(_comment))
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["junk", "f =", "= [[1]]", "", "dim: x"])))
    if draw(st.integers(0, 5)):
        dim = draw(st.sampled_from(["0", "1", "2", "3"]))
        lines.insert(draw(st.integers(0, len(lines))), "dim: " + dim)
    return "\n".join(lines)


class TestRepAgainstOracle:
    @DIFF
    @given(_rep_text())
    def test_same_assignment_or_same_message(self, text):
        assert _outcome(parse_rep, text) == _outcome(oracle_parse_rep, text)

    @pytest.mark.parametrize("entry", ["1/2", "-3", "0.5", "1e-3", "1_0"])
    def test_entries_read_exactly(self, entry):
        text = f"dim: 1\nf = [[{entry}]]\ng = [[{entry}]]\n"
        assert _outcome(parse_rep, text) == _outcome(oracle_parse_rep, text)
        assert parse_rep(text)[1]["g"].rows == ((Fraction(entry),),)

    def test_equal_literals_share_one_matrix(self):
        _, assign = parse_rep("dim: 2\nf = [[0, 1], [0, 0]]\ng = [[0, 1], [0, 0]]\nh = [[1, 0], [0, 0]]")
        assert assign["f"] is assign["g"]
        assert assign["h"] == RatMat.from_rows([[1, 0], [0, 0]])

    def test_symbols_equal_the_per_element_definition(self, golden3):
        table = golden3.table
        mats = [RatMat.from_rows(r) for r in ([[0, 1], [0, 0]], [[1, 0], [0, 0]], [[0, 0], [1, 0]])]
        assign = {f: mats[i % 3] for i, f in enumerate(sorted(table.elements))}
        rep = Representation(table, 2, assign)
        expected = {}
        for f, s in assign.items():
            expected["S", f] = s
            expected["S*", f] = s.T
            expected["Q", f] = s.T @ s
            expected["P", f] = s @ s.T
        assert rep._symbols == expected
