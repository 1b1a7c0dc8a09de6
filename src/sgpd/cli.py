"""Command-line front end.

Every verb prints a machine-readable section of stable `key: value` lines
followed by a blank line and a human-readable summary; `--json` prints the
machine section alone as JSON, and the one line of a failed verb as a
JSON object of `verb`, `result` and `message` (a malformed command line
too, with `verb` null when no verb was read).  Identical inputs produce
byte-identical machine sections.  Exit codes: 0 all checks passed, 1 a
violation was found (witnesses printed), 2 malformed input or flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import formats
from .core import (
    SemigroupoidTable,
    SgpdError,
    common_followers,
    is_monic,
    validate_associativity,
)
from .covers import BoundExceededError, target_coverings
from .kgraph import build_kgraph, rfns_check, slice_partition_check
from .markov import build_markov, graphable
from .relations import emit_cuntz_krieger, emit_generic, emit_kumjian_pask
from .reps import DimensionMismatch, Representation, check_axioms, check_tight
from .springs import despring, find_springs


class Report:
    def __init__(self):
        self.machine: dict[str, object] = {}
        self.human: list[str] = []

    def add(self, key: str, value) -> None:
        self.machine[key] = value

    def note(self, line: str) -> None:
        self.human.append(line)

    def render(self, as_json: bool) -> str:
        if as_json:
            return json.dumps(self.machine) + "\n"
        lines = [f"{k}: {v}" for k, v in self.machine.items()]
        if self.human:
            lines.append("")
            lines.extend(self.human)
        return "\n".join(lines) + "\n"


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise formats.FormatError(f"cannot read {path}: {exc}") from exc


def _load_table(path: str) -> SemigroupoidTable:
    return formats.parse_sgpd(_read(path))


def cmd_validate(args, report: Report) -> int:
    table = _load_table(args.table)
    result = validate_associativity(table)
    report.add("elements", len(table.elements))
    report.add("composable", len(table.composable))
    report.add("checked-triples", result.checked_triples)
    report.add("result", "pass" if result.ok else "fail")
    if result.ok:
        report.note("Associativity holds on every applicable triple.")
        return 0
    v = result.violation
    report.add("witness-triple", " ".join(v.triple))
    report.add("witness-case", v.case)
    report.add("witness-kind", v.kind)
    if v.pair:
        report.add("witness-pair", " ".join(v.pair))
    if v.products:
        report.add("witness-products", " ".join(v.products))
    report.note(
        f"Triple ({', '.join(v.triple)}) violates case ({v.case}): {v.kind}"
        + (f" at pair ({', '.join(v.pair)})" if v.pair else "")
        + (f", products {v.products[0]} != {v.products[1]}" if v.products else "")
    )
    return 1


def cmd_analyze(args, report: Report) -> int:
    table = _load_table(args.table)
    result = validate_associativity(table)
    report.add("elements", len(table.elements))
    report.add("composable", len(table.composable))
    report.add("boundary", len(table.boundary))
    report.add("artifact-pairs", len(table.artifact_pairs))
    report.add("associative", "yes" if result.ok else "no")
    if not result.ok:
        report.note("Table fails associativity; run `sgpd validate` for the witness.")
        return 1
    springs = find_springs(table)
    report.add("springs", " ".join(sorted(springs.springs)) or "-")
    report.add("derived-dead", " ".join(sorted(springs.derived_dead)) or "-")
    non_monic = [
        f for f in sorted(table.elements) if is_monic(table, f) is not True
    ]
    report.add("non-monic", " ".join(non_monic) or "-")
    report.note(
        f"{len(table.elements)} elements, {len(springs.springs)} springs, "
        f"{len(non_monic)} non-monic elements."
    )
    return 0


def cmd_despring(args, report: Report) -> int:
    table = _load_table(args.table)
    extension = despring(table, args.mode)
    report.add("mode", args.mode)
    report.add("springs", sum(len(c) for c in extension.idempotents.values()))
    report.add("adjoined", len(extension.idempotents))
    for token in sorted(extension.idempotents):
        report.add(f"class-{token}", " ".join(sorted(extension.idempotents[token])))
    rendered = formats.render_sgpd(extension.extended)
    if args.output:
        Path(args.output).write_text(rendered, encoding="utf-8")
        report.add("output", args.output)
    else:
        report.note(rendered.rstrip("\n"))
    if not extension.idempotents:
        report.note("No springs; the table is unchanged.")
    return 0


def cmd_markov(args, report: Report) -> int:
    if args.maxlen < 1:
        raise formats.FormatError("--maxlen must be at least 1")
    matrix = formats.parse_mat01(_read(args.matrix))
    report.add("alphabet", " ".join(matrix.alphabet))
    code = 0
    if args.graphable:
        verdict = graphable(matrix)
        report.add("graphable", "yes" if verdict is True else "no")
        if verdict is not True:
            report.add(
                "obstruction", f"{verdict.i} {verdict.j} {verdict.i2} {verdict.j2}"
            )
            report.note("Not an edge matrix: " + verdict.chain())
            code = 1
    truncation = build_markov(matrix, args.maxlen)
    table = truncation.table
    report.add("maxlen", args.maxlen)
    report.add("words", len(table.elements))
    report.add("boundary", len(table.boundary))
    springs = find_springs(table)
    report.add("springs", " ".join(sorted(springs.springs)) or "-")
    if args.out:
        Path(args.out).write_text(formats.render_sgpd(table), encoding="utf-8")
        report.add("out", args.out)
    report.note(
        f"{len(table.elements)} admissible words up to length {args.maxlen}; "
        f"{len(springs.springs)} springs."
    )
    return code


def cmd_kgraph(args, report: Report) -> int:
    skeleton = formats.parse_kgr(_read(args.kgr))
    max_degree = _parse_degree(args.maxdeg, skeleton.k)
    kg = build_kgraph(skeleton, max_degree)
    report.add("rank", skeleton.k)
    report.add("morphisms", len(kg.normal_form))
    report.add("boundary", len(kg.table.boundary))
    rfns = rfns_check(kg)
    report.add("rfns", "pass" if rfns is True else f"fail {rfns.vertex} {rfns.n}")
    code = 0 if rfns is True else 1
    bad_slice = None
    for v, n in kg.slice_keys():
        verdict = slice_partition_check(kg, v, n)
        if verdict is not True:
            bad_slice = (v, n, verdict)
            break
    report.add("slice-partitions", "pass" if bad_slice is None else "fail")
    if bad_slice is not None:
        v, n, verdict = bad_slice
        report.add("slice-witness", f"{v} {n} {verdict.kind} {verdict.detail}")
        code = 1
    if args.out:
        Path(args.out).write_text(formats.render_sgpd(kg.table), encoding="utf-8")
        report.add("out", args.out)
    report.note(
        f"{len(kg.normal_form)} morphisms within degree {tuple(max_degree)}; "
        + ("all degree slices partition." if bad_slice is None else "slice check failed.")
    )
    return code


def cmd_covers(args, report: Report) -> int:
    table = _load_table(args.table)
    required = [x for x in args.target_fg[0].split(",") if x]
    forbidden = [x for x in args.target_fg[1].split(",") if x]
    unknown = sorted(set(required + forbidden) - table.elements)
    if unknown:
        raise formats.FormatError(f"--target-fg names unknown elements {unknown}")
    target = common_followers(table, required, forbidden, full=True)
    report.add("target", " ".join(sorted(target)) or "-")
    try:
        specs = target_coverings(table, target, args.max_size)
    except BoundExceededError as exc:
        report.add("result", "bound-exceeded")
        report.add("oversized", " ".join(exc.oversized or []))
        report.note(str(exc))
        return 1
    report.add("minimal-coverings", len(specs))
    for idx, spec in enumerate(specs):
        report.add(f"covering-{idx}", " ".join(sorted(spec.candidate)) or "-")
    report.note(f"{len(specs)} inclusion-minimal coverings within size {args.max_size}.")
    return 0


def cmd_rep(args, report: Report) -> int:
    table = _load_table(args.table)
    dim, assign = formats.parse_rep(_read(args.rep))
    try:
        rep = Representation(table, dim, assign)
    except DimensionMismatch as exc:
        raise formats.FormatError(str(exc)) from exc
    report.add("dim", dim)
    axioms = check_axioms(rep)
    report.add("axioms", "pass" if axioms.ok else "fail")
    if not axioms.ok:
        f = axioms.failure
        report.add("axiom-witness", f"{f.tag} {' '.join(f.elements)}")
        report.add("axiom-got", str(f.got))
        report.add("axiom-want", str(f.want))
        report.note(
            f"Axiom {f.tag} fails at ({', '.join(f.elements)}): "
            f"got {f.got}, want {f.want}"
        )
        return 1
    if args.tight:
        tight = check_tight(rep, args.max_fg, args.max_cover)
        report.add("tight", "pass" if tight.tight else "fail")
        report.add("families-checked", tight.families_checked)
        report.add("coverings-checked", tight.coverings_checked)
        if not tight.tight:
            w = tight.failures[0]
            report.add("tight-witness-required", " ".join(w.required) or "-")
            report.add("tight-witness-forbidden", " ".join(w.forbidden) or "-")
            report.add("tight-witness-covering", " ".join(w.covering) or "-")
            report.add("tight-lhs", str(w.lhs))
            report.add("tight-rhs", str(w.rhs))
            report.note(
                f"Not tight: required {{{', '.join(w.required)}}}, forbidden "
                f"{{{', '.join(w.forbidden)}}}, covering {{{', '.join(w.covering)}}}: "
                f"join {w.lhs} != product {w.rhs}"
            )
            return 1
    report.note("All requested checks passed.")
    return 0


def cmd_relations(args, report: Report) -> int:
    if args.style == "generic":
        if not args.table:
            raise formats.FormatError("--style generic needs a table argument")
        table = _load_table(args.table)
        pres = emit_generic(
            table, tight=not args.toeplitz, max_fg=args.max_fg, max_cover=args.max_cover
        )
    elif args.style == "ck":
        if not args.matrix:
            raise formats.FormatError("--style ck needs --matrix")
        pres = emit_cuntz_krieger(formats.parse_mat01(_read(args.matrix)))
    else:
        if not args.kgr or not args.maxdeg:
            raise formats.FormatError("--style kp needs --kgr and --maxdeg")
        skeleton = formats.parse_kgr(_read(args.kgr))
        kg = build_kgraph(skeleton, _parse_degree(args.maxdeg, skeleton.k))
        pres = emit_kumjian_pask(kg, max_cover=args.max_cover)
    report.add("style", pres.style)
    report.add("generators", len(pres.generators))
    report.add("relations", len(pres.relations))
    if not args.json:  # --json drops the note, so the text is never rendered
        report.note(pres.render().rstrip("\n"))
    return 0


def _parse_degree(text: str, k: int) -> tuple[int, ...]:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise formats.FormatError(f"bad degree vector {text!r}") from None
    if len(parts) != k or any(x < 0 for x in parts):
        raise formats.FormatError(
            f"degree vector {text!r} must have {k} nonnegative components"
        )
    return parts


def _bound(text: str) -> int:
    """A search bound (--max-fg, --max-cover, --max-size): an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


class _UsageError(Exception):
    """argparse's message for a malformed command line, and the parser (or
    subparser) that refused it."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """An argument parser, and through `add_subparsers` each of its
    subparsers, that raises `_UsageError` where argparse would print usage
    and exit, so `run` can report the message as JSON."""

    def error(self, message):
        raise _UsageError(self, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sgpd",
        description="Semigroupoid, Markov-word and k-graph structure checks.",
    )
    parser.add_argument("--json", action="store_true", help="machine section only, as JSON")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="check a table against the associativity axiom")
    p.add_argument("table")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="summarise springs, monicity and size")
    p.add_argument("table")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("despring", help="adjoin idempotents until no springs remain")
    p.add_argument("table")
    p.add_argument("--mode", choices=["finest", "universal"], default="finest")
    p.add_argument("-o", "--output", help="write the extended table here")
    p.set_defaults(func=cmd_despring)

    p = sub.add_parser("markov", help="build the word table of a 0-1 matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--maxlen", type=int, default=4)
    p.add_argument("--graphable", action="store_true", help="test edge-matrix realisability")
    p.add_argument("--out", help="export the table as .sgpd")
    p.set_defaults(func=cmd_markov)

    p = sub.add_parser("kgraph", help="build and check a k-graph truncation")
    p.add_argument("action", choices=["check"])
    p.add_argument("kgr")
    p.add_argument("--maxdeg", required=True, help="comma-separated degree bound")
    p.add_argument("--out", help="export the table as .sgpd")
    p.set_defaults(func=cmd_kgraph)

    p = sub.add_parser("covers", help="enumerate minimal coverings of a selector set")
    p.add_argument("table")
    p.add_argument(
        "--target-fg",
        nargs=2,
        metavar=("REQUIRED", "FORBIDDEN"),
        default=["", ""],
        help="comma-separated element lists (empty for none)",
    )
    p.add_argument("--max-size", type=_bound, default=6)
    p.set_defaults(func=cmd_covers)

    p = sub.add_parser("rep", help="check a matrix representation")
    p.add_argument("action", choices=["check"])
    p.add_argument("table")
    p.add_argument("rep")
    p.add_argument("--tight", action="store_true")
    p.add_argument("--max-fg", type=_bound, default=2)
    p.add_argument("--max-cover", type=_bound, default=6)
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("relations", help="emit a relation presentation")
    p.add_argument("table", nargs="?", help="table for --style generic")
    p.add_argument("--style", choices=["generic", "ck", "kp"], required=True)
    p.add_argument("--toeplitz", action="store_true", help="omit tightness relations")
    p.add_argument("--matrix", help="matrix for --style ck")
    p.add_argument("--kgr", help="skeleton for --style kp")
    p.add_argument("--maxdeg", help="degree bound for --style kp")
    p.add_argument("--max-fg", type=_bound, default=2)
    p.add_argument("--max-cover", type=_bound, default=6)
    p.set_defaults(func=cmd_relations)

    return parser


def run(argv=None) -> tuple[int, str]:
    parser = build_parser()
    args = argparse.Namespace()
    try:
        parser.parse_args(argv, args)
    except SystemExit as exc:
        return (2 if exc.code not in (0, None) else 0), ""
    except _UsageError as exc:
        if args.json:
            return 2, _failure(args, "error", exc)
        exc.parser.print_usage(sys.stderr)
        sys.stderr.write(f"{exc.parser.prog}: error: {exc}\n")
        return 2, ""
    report = Report()
    report.add("verb", args.verb)
    try:
        code = args.func(args, report)
    except (formats.FormatError, OSError) as exc:
        return 2, _failure(args, "error", exc)
    except BoundExceededError as exc:
        return 1, _failure(args, "bound-exceeded", exc)
    except SgpdError as exc:
        return 1, _failure(args, "violation", exc)
    return code, report.render(args.json)


def _failure(args, result: str, exc: Exception) -> str:
    """The one line of a failed verb: `error: ...`, `bound exceeded: ...` or
    `violation: ...`, or with --json an object of the verb, the result and
    the message."""
    if args.json:
        return json.dumps({"verb": args.verb, "result": result, "message": str(exc)}) + "\n"
    return f"{result.replace('-', ' ')}: {exc}\n"


def main(argv=None) -> int:
    code, text = run(argv)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
