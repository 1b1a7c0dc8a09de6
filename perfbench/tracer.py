"""Span tracer that wraps sgpd's public functions and methods from outside.

The program's source is not touched.  ``install`` replaces each traced
function with a wrapper in every ``sgpd.*`` module namespace that binds it
(the modules import by name, e.g. ``from .core import intersects``), and
each traced method on its class; ``uninstall`` puts the originals back.

Inner calls run to hundreds of thousands per pass, so the tracer keeps
per-name aggregates computed from one span stack instead of span records:
calls, self time (span duration minus the time covered by child spans),
and a few work counts read from arguments and results.  Aggregates are
kept per job kind, so a single job's counts can be read back.

Reading the work counts is the benchmark's own work: its time is charged
to no span and is kept in ``count_s`` instead.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Agg:
    calls: int = 0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)
    distinct: set = field(default_factory=set)

    def add(self, key: str, n) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


# ---- work counts: each reads (agg, args, result) after a successful call


def _triples(agg, args, result):
    agg.add("triples", result.checked_triples)


def _results(agg, args, result):
    agg.add("results", len(result))


def _distinct(tag):
    """Count distinct (tag, table or representation, argument) calls; the
    object ids are unique only within one job, so the set resets per job."""

    def work(agg, args, result):
        agg.distinct.add((tag, id(args[0]), args[1]))

    return work


def _matmul(agg, args, result):
    a, b = args[0].rows, args[1].rows
    agg.add("scalar_mults", len(a) * len(b) * (len(b[0]) if b else 0))
    col_nnz = [sum(1 for row in a if row[k] != 0) for k in range(len(b))]
    agg.add("nonzero_mults", sum(c * sum(1 for x in row if x != 0) for c, row in zip(col_nnz, b)))


def _tight(agg, args, result):
    agg.add("families", result.families_checked)
    agg.add("coverings", result.coverings_checked)


def _markov(agg, args, result):
    agg.add("words", len(result.table.elements))
    agg.add("artifact_pairs", len(result.table.artifact_pairs))


def _kgraph(agg, args, result):
    agg.add("morphisms", len(result.normal_form))


def _evaluated(agg, args, result):
    agg.add("relations", len(args[0].relations))


def _parsed_bytes(agg, args, result):
    agg.add("bytes", len(args[0].encode()))


# (module, attribute or Class.method, aggregate name, work count).  The
# module is sgpd's, or else the standard library's (argparse, which the CLI
# parses its argv with).  Names that no metric reports (is_covering,
# graphable, ...) are traced so that their time leaves their caller's self
# time and shows in the summary.
TARGETS = [
    ("cli", "run", "cli.run", None),
    ("cli", "build_parser", "cli.build_parser", None),
    ("argparse", "ArgumentParser.parse_args", "cli.parse_args", None),
    ("cli", "_read", "cli.read", None),
    ("cli", "Report.render", "cli.report", None),
    ("core", "validate_associativity", "core.validate_associativity", _triples),
    ("core", "d_set", "core.d_set", None),
    ("core", "divides", "core.divides", None),
    ("core", "intersects", "core.intersects", None),
    ("core", "common_followers", "core.common_followers", None),
    ("covers", "minimal_coverings", "covers.minimal_coverings", _results),
    ("covers", "is_partition", "covers.is_partition", _distinct("P")),
    ("covers", "is_covering", "covers.is_covering", None),
    ("matrices", "RatMat.__matmul__", "matrices.matmul", _matmul),
    ("matrices", "RatMat.__add__", "matrices.addsub", None),
    ("matrices", "RatMat.__sub__", "matrices.addsub", None),
    ("reps", "check_axioms", "reps.check_axioms", None),
    ("reps", "check_tight", "reps.check_tight", _tight),
    ("reps", "Representation.initial", "reps.projection", _distinct("initial")),
    ("reps", "Representation.final", "reps.projection", _distinct("final")),
    ("markov", "build_markov", "markov.build_markov", _markov),
    ("markov", "graphable", "markov.graphable", None),
    ("markov", "graphable_oracle", "markov.graphable_oracle", None),
    ("kgraph", "build_kgraph", "kgraph.build_kgraph", _kgraph),
    ("kgraph", "rfns_check", "kgraph.rfns_check", None),
    ("kgraph", "slice_partition_check", "kgraph.slice_partition_check", None),
    ("kgraph", "degree_slice", "kgraph.degree_slice", None),
    ("kgraph", "KGraphSkeleton.edge", "kgraph.edge", None),
    ("relations", "emit_generic", "relations.emit_generic", None),
    ("relations", "emit_kumjian_pask", "relations.emit_kumjian_pask", None),
    ("relations", "emit_cuntz_krieger", "relations.emit_cuntz_krieger", None),
    ("relations", "evaluate", "relations.evaluate", _evaluated),
    ("relations", "cross_check", "relations.cross_check", None),
    ("relations", "eval_term", "relations.eval_term", None),
    ("relations", "render_term", "relations.render_term", None),
    ("relations", "Presentation.render", "relations.render", None),
    ("formats", "parse_sgpd", "formats.parse", _parsed_bytes),
    ("formats", "parse_mat01", "formats.parse", _parsed_bytes),
    ("formats", "parse_kgr", "formats.parse", _parsed_bytes),
    ("formats", "parse_rep", "formats.parse", _parsed_bytes),
    ("formats", "render_sgpd", "formats.render", None),
    ("springs", "find_springs", "springs.find_springs", None),
    ("springs", "despring", "springs.despring", None),
]


def _ratio(num, den):
    return num / den if den else 0.0


def _self(name):
    return lambda t: t.total(name).self_s


def _calls(name):
    return lambda t: t.total(name).calls


def _count(name, key):
    return lambda t: t.total(name).counts.get(key, 0)


def _distinct_ratio(name):
    return lambda t: _ratio(t.distinct(name), t.total(name).calls)


def _metrics():
    """(metric name, unit, getter) for every per-layer metric."""
    both = ("calls", "self_s")
    out = []
    for name, fields in [
        ("core.divides", both), ("core.intersects", both), ("core.d_set", both),
        ("core.common_followers", both), ("core.validate_associativity", both),
        ("covers.minimal_coverings", both), ("covers.is_partition", both),
        ("matrices.matmul", both), ("matrices.addsub", both),
        ("reps.check_axioms", both), ("reps.check_tight", both),
        ("reps.projection", ("calls",)), ("markov.build_markov", both),
        ("markov.graphable_oracle", ("self_s",)), ("kgraph.build_kgraph", both),
        ("kgraph.slice_partition_check", both), ("kgraph.edge", ("calls",)),
        ("relations.emit_generic", ("self_s",)), ("relations.emit_kumjian_pask", ("self_s",)),
        ("relations.emit_cuntz_krieger", ("self_s",)), ("relations.evaluate", ("self_s",)),
        ("relations.eval_term", both), ("relations.render_term", both),
        ("formats.parse", both), ("formats.render", ("self_s",)),
        ("springs.find_springs", both), ("springs.despring", ("self_s",)),
        ("cli.run", both), ("cli.build_parser", ("self_s",)),
    ]:
        if "calls" in fields:
            out.append((f"{name}.calls", "count", _calls(name)))
        if "self_s" in fields:
            out.append((f"{name}.self_s", "s", _self(name)))
    out += [
        ("core.validate_associativity.triples", "count",
         _count("core.validate_associativity", "triples")),
        ("covers.minimal_coverings.results", "count", _count("covers.minimal_coverings", "results")),
        ("covers.is_partition.distinct_ratio", "ratio", _distinct_ratio("covers.is_partition")),
        ("matrices.matmul.scalar_mults", "count", _count("matrices.matmul", "scalar_mults")),
        ("matrices.matmul.nonzero_share", "ratio",
         lambda t: _ratio(t.total("matrices.matmul").counts.get("nonzero_mults", 0),
                          t.total("matrices.matmul").counts.get("scalar_mults", 0))),
        ("reps.check_tight.families", "count", _count("reps.check_tight", "families")),
        ("reps.check_tight.coverings", "count", _count("reps.check_tight", "coverings")),
        ("reps.projection.distinct_ratio", "ratio", _distinct_ratio("reps.projection")),
        ("markov.build_markov.words", "count", _count("markov.build_markov", "words")),
        ("markov.build_markov.artifact_pairs", "count",
         _count("markov.build_markov", "artifact_pairs")),
        ("kgraph.build_kgraph.morphisms", "count", _count("kgraph.build_kgraph", "morphisms")),
        ("relations.evaluated", "count", _count("relations.evaluate", "relations")),
        ("formats.parse.bytes", "bytes", _count("formats.parse", "bytes")),
    ]
    return out


METRICS = _metrics()

# Entry points whose self time is whatever their untraced callees cost
# (argparse, a verb's body, report rendering).  Counting them would let any
# hot untraced function pass for covered, so coverage leaves them out.
DISPATCH = frozenset({"cli.run", "relations.cross_check"})


class Tracer:
    """Aggregates spans of the traced functions, per job kind."""

    def __init__(self):
        self.by_kind: dict[str, dict[str, Agg]] = {}
        self.distinct_counts: dict[str, int] = {}
        self._current: dict[str, Agg] = {}
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []
        self.count_s = 0.0  # time spent reading work counts

    # ---- job boundaries

    def start_job(self, kind: str) -> None:
        self._current = self.by_kind.setdefault(kind, {})

    def end_job(self) -> None:
        # distinct sets hold object ids, which are only unique within a job
        for name, agg in self._current.items():
            self.distinct_counts[name] = self.distinct_counts.get(name, 0) + len(agg.distinct)
            agg.distinct.clear()

    # ---- results

    def total(self, name: str) -> Agg:
        out = Agg()
        for aggs in self.by_kind.values():
            agg = aggs.get(name)
            if agg:
                out.calls += agg.calls
                out.self_s += agg.self_s
                for key, n in agg.counts.items():
                    out.add(key, n)
        return out

    def distinct(self, name: str) -> int:
        return self.distinct_counts.get(name, 0)

    def layer_self_total(self) -> float:
        """Self time of every traced name but the DISPATCH entry points."""
        return sum(a.self_s for aggs in self.by_kind.values()
                   for name, a in aggs.items() if name not in DISPATCH)

    def metrics(self) -> dict[str, tuple[float, str]]:
        return {name: (get(self), unit) for name, unit, get in METRICS}

    # ---- patching

    def _wrap(self, fn, name, work):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                agg = self._current.get(name)
                if agg is None:
                    agg = self._current[name] = Agg()
                agg.calls += 1
                agg.self_s += duration - frame[0]
            if work is not None:
                # charged to neither this span nor its parent
                t1 = perf_counter()
                work(agg, args, result)
                spent = perf_counter() - t1
                self.count_s += spent
                if stack:
                    stack[-1][0] += spent
            return result

        return wrapper

    def install(self) -> None:
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "sgpd" or name.startswith("sgpd."))
        }
        for module, attr, name, work in TARGETS:
            mod = modules.get(f"sgpd.{module}") or sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name, work))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(original, name, work)
            for m in modules.values():
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
