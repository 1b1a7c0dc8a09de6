"""Line-oriented text formats: .sgpd tables, .mat01 matrices, .kgr
skeletons, .rep matrix assignments.

All formats are UTF-8, whitespace-tolerant, and treat '#' to end of line
as a comment.  Writers emit sorted, byte-stable output.  The .sgpd format
has two optional extension lines, `boundary:` and `artifact:`, so that
truncation-built tables round-trip with their metadata.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .core import SemigroupoidTable, SgpdError
from .kgraph import Edge, KGraphSkeleton
from .markov import Matrix01
from .matrices import RatMat


class FormatError(SgpdError):
    pass


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _int(text: str, lineno: int, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FormatError(f"line {lineno}: bad {what} {text.strip()!r}") from None


_COMPOSE = re.compile(r"compose:\s*(\S+)\s+(\S+)\s*->\s*(\S+)")


def parse_sgpd(text: str) -> SemigroupoidTable:
    """One pass over the lines: each line is dispatched on the keyword
    before its first ':' (artifact lines, the bulk of a truncation, first)."""
    elements: set[str] = set()
    product: dict[tuple[str, str], str] = {}
    boundary: set[str] = set()
    artifacts: list[tuple[str, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        key, colon, rest = line.partition(":")
        key = key.lstrip() if colon else None
        if key == "artifact":
            parts = rest.split()
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: artifact line needs two tokens")
            artifacts.append((parts[0], parts[1]))
        elif key == "compose":
            m = _COMPOSE.fullmatch(line.strip())
            if not m:
                raise FormatError(f"line {lineno}: bad compose line {line.strip()!r}")
            f, g, fg = m.groups()
            if product.setdefault((f, g), fg) != fg:
                raise FormatError(
                    f"line {lineno}: {f} {g} -> {fg} contradicts {f} {g} -> {product[f, g]}"
                )
        elif key == "elements":
            elements.update(rest.split())
        elif key == "boundary":
            boundary.update(rest.split())
        elif line.strip():
            raise FormatError(f"line {lineno}: unrecognised line {line.strip()!r}")
    if not elements:
        raise FormatError("no elements declared")
    try:
        return SemigroupoidTable(
            frozenset(elements), product, frozenset(boundary), frozenset(artifacts)
        )
    except SgpdError as exc:
        raise FormatError(str(exc)) from exc


def render_sgpd(table: SemigroupoidTable) -> str:
    lines = ["elements: " + " ".join(sorted(table.elements))]
    for (f, g), h in sorted(table.product.items()):
        lines.append(f"compose: {f} {g} -> {h}")
    if table.boundary:
        lines.append("boundary: " + " ".join(sorted(table.boundary)))
    for f, g in sorted(table.artifact_pairs):
        lines.append(f"artifact: {f} {g}")
    return "\n".join(lines) + "\n"


def parse_mat01(text: str) -> Matrix01:
    rows: list[list[int]] = []
    labels: tuple[str, ...] | None = None
    n: int | None = None
    for lineno, line in _lines(text):
        if n is None:
            if not line.isdecimal():
                raise FormatError(f"line {lineno}: expected the matrix size")
            n = int(line)
        elif line.startswith("labels:"):
            if labels is not None:
                raise FormatError(f"line {lineno}: second 'labels:' line")
            labels = tuple(line[len("labels:") :].split())
        else:
            try:
                row = [int(x) for x in line.split()]
            except ValueError:
                raise FormatError(f"line {lineno}: bad matrix row {line!r}") from None
            rows.append(row)
    if n is None:
        raise FormatError("empty matrix file")
    if len(rows) != n or any(len(r) != n for r in rows):
        raise FormatError(f"expected {n} rows of {n} entries")
    if labels is not None and len(labels) != n:
        raise FormatError("label count does not match the size")
    try:
        return Matrix01.from_rows(rows, labels)
    except (SgpdError, ValueError) as exc:
        raise FormatError(str(exc)) from exc


def render_mat01(matrix: Matrix01) -> str:
    lines = [str(len(matrix.alphabet)), "labels: " + " ".join(matrix.alphabet)]
    lines.extend(" ".join(str(x) for x in row) for row in matrix.entries)
    return "\n".join(lines) + "\n"


def parse_kgr(text: str) -> KGraphSkeleton:
    k: int | None = None
    objects: tuple[str, ...] | None = None
    edges: list[Edge] = []
    squares: list[tuple[tuple[str, str], tuple[str, str]]] = []
    for lineno, line in _lines(text):
        if line.startswith("k:"):
            if k is not None:
                raise FormatError(f"line {lineno}: second 'k:' line")
            k = _int(line[2:], lineno, "rank")
        elif line.startswith("objects:"):
            if objects is not None:
                raise FormatError(f"line {lineno}: second 'objects:' line")
            objects = tuple(line[len("objects:") :].split())
        elif line.startswith("edge:"):
            parts = line[len("edge:") :].split()
            if len(parts) != 4:
                raise FormatError(f"line {lineno}: edge needs name color src dst")
            name, color, src, dst = parts
            try:
                edges.append(Edge(name, int(color), src, dst))
            except ValueError:
                raise FormatError(f"line {lineno}: bad color {color!r}") from None
        elif line.startswith("square:"):
            m = re.fullmatch(
                r"square:\s*(\S+)\s+(\S+)\s*=\s*(\S+)\s+(\S+)", line
            )
            if not m:
                raise FormatError(f"line {lineno}: bad square line {line!r}")
            squares.append(((m.group(1), m.group(2)), (m.group(3), m.group(4))))
        else:
            raise FormatError(f"line {lineno}: unrecognised line {line!r}")
    if k is None:
        raise FormatError("missing rank line 'k: <n>'")
    try:
        return KGraphSkeleton(k, objects or (), tuple(edges), tuple(squares))
    except (SgpdError, ValueError) as exc:
        raise FormatError(str(exc)) from exc


def render_kgr(skeleton: KGraphSkeleton) -> str:
    lines = [f"k: {skeleton.k}", "objects: " + " ".join(skeleton.objects)]
    for e in skeleton.edges:
        lines.append(f"edge: {e.name} {e.color} {e.src} {e.dst}")
    for (a, b), (c, d) in skeleton.squares:
        lines.append(f"square: {a} {b} = {c} {d}")
    return "\n".join(lines) + "\n"


_MATRIX_TOKEN = re.compile(r"\s*(\[|\]|,|[^\s\[\],]+)")


def parse_matrix_literal(text: str) -> RatMat:
    tokens = _MATRIX_TOKEN.findall(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise FormatError(f"bad matrix literal {text!r}")
        pos += 1
        return tok

    def parse_row():
        take("[")
        row = []
        while peek() != "]":
            if row:
                take(",")
            tok = take()
            try:
                row.append(Fraction(tok))
            except (ValueError, ZeroDivisionError):
                raise FormatError(f"bad rational {tok!r}") from None
        take("]")
        return tuple(row)

    take("[")
    rows = []
    while peek() != "]":
        if rows:
            take(",")
        rows.append(parse_row())
    take("]")
    if pos != len(tokens):
        raise FormatError(f"trailing data in matrix literal {text!r}")
    try:
        return RatMat(tuple(rows))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


_REP_LINE = re.compile(r"(\S+)\s*=\s*(\[.*\])")


def parse_rep(text: str) -> tuple[int, dict[str, RatMat]]:
    """Each distinct literal text is parsed once per call; elements written
    with the same literal share one (immutable) matrix."""
    dim: int | None = None
    assign: dict[str, RatMat] = {}
    parsed: dict[str, RatMat] = {}
    for lineno, line in _lines(text):
        if line.startswith("dim:"):
            dim = _int(line[4:], lineno, "dimension")
        else:
            m = _REP_LINE.fullmatch(line)
            if not m:
                raise FormatError(f"line {lineno}: expected 'element = [[...]]'")
            name, literal = m.group(1), m.group(2)
            if name in assign:
                raise FormatError(f"line {lineno}: duplicate matrix for {name!r}")
            mat = parsed.get(literal)
            if mat is None:
                mat = parsed[literal] = parse_matrix_literal(literal)
            assign[name] = mat
    if dim is None:
        raise FormatError("missing 'dim:' line")
    for name, mat in assign.items():
        if mat.shape != (dim, dim):
            raise FormatError(
                f"matrix for {name!r} has shape {mat.shape}, expected {(dim, dim)}"
            )
    return dim, assign


def render_rep(dim: int, assign: dict[str, RatMat]) -> str:
    lines = [f"dim: {dim}"]
    for name in sorted(assign):
        lines.append(f"{name} = {assign[name]}")
    return "\n".join(lines) + "\n"
