"""Golden pins for the axiom catalogue and the presentations built on it.

Each representation below is built by hand so that its first axiom failure
falls on one check tag.  The pinned (tag, elements, got, want) and the
SHA-256 digests of rendered presentations are golden output: the checker
and the emitter share one clause list, and neither may change what the
other reports or renders.

Two tags cannot be a first failure in exact arithmetic: `annihilation`
checks Q_f P_g = S_f* (S_f S_g) S_g* = 0 on exactly the pairs where
`product-zero` has already checked S_f S_g = 0, and `annihilation-derived`
restates associativity.  The annihilation clause is still pinned through
the emitted presentations.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from sgpd.core import SemigroupoidTable
from sgpd.markov import Matrix01, build_markov
from sgpd.matrices import RatMat
from sgpd.relations import emit_cuntz_krieger, emit_generic, emit_kumjian_pask
from sgpd.reps import Representation, check_axioms

A, B = Fraction(3, 5), Fraction(4, 5)


def _table(elements, product=(), artifacts=()):
    return SemigroupoidTable(
        frozenset(elements), dict(product), frozenset(), frozenset(artifacts)
    )


def _rep(table, dim, rows):
    return Representation(table, dim, {f: RatMat.from_rows(r) for f, r in rows.items()})


FIRST_FAILURES = [
    (
        _rep(_table({"f"}), 1, {"f": [[2]]}),
        ("partial-isometry", ("f",), "[[8]]", "[[2]]"),
    ),
    (
        _rep(_table({"e"}, {("e", "e"): "e"}), 2, {"e": [[0, 1], [0, 0]]}),
        ("product", ("e", "e"), "[[0, 0], [0, 0]]", "[[0, 1], [0, 0]]"),
    ),
    (
        _rep(_table({"f"}), 1, {"f": [[1]]}),
        ("product-zero", ("f", "f"), "[[1]]", "[[0]]"),
    ),
    (
        # S = e3 v*: nilpotent with equal final projections, initial
        # projections on the non-orthogonal lines e1 and (3/5, 4/5, 0)
        _rep(_table({"f", "g"}), 3, {
            "f": [[0, 0, 0], [0, 0, 0], [1, 0, 0]],
            "g": [[0, 0, 0], [0, 0, 0], [A, B, 0]],
        }),
        (
            "commute-QQ", ("f", "g"),
            "[[9/25, 12/25, 0], [0, 0, 0], [0, 0, 0]]",
            "[[9/25, 0, 0], [12/25, 0, 0], [0, 0, 0]]",
        ),
    ),
    (
        # an artifact pair exempts S_f S_f from the product-zero clause
        _rep(_table({"f"}, artifacts={("f", "f")}), 2, {"f": [[A, B], [0, 0]]}),
        ("commute-QP", ("f", "f"), "[[9/25, 0], [12/25, 0]]", "[[9/25, 12/25], [0, 0]]"),
    ),
    (
        _rep(_table({"f", "g"}, artifacts={(x, y) for x in "fg" for y in "fg"}), 3, {
            "f": [[0, 0, 0], [1, 0, 0], [0, 0, 0]],
            "g": [[0, 0, 0], [A, 0, 0], [B, 0, 0]],
        }),
        (
            "commute-PP", ("f", "g"),
            "[[0, 0, 0], [0, 9/25, 12/25], [0, 0, 0]]",
            "[[0, 0, 0], [0, 9/25, 0], [0, 12/25, 0]]",
        ),
    ),
    (
        _rep(_table({"f", "g"}), 2, {"f": [[0, 1], [0, 0]], "g": [[0, 1], [0, 0]]}),
        ("disjoint", ("f", "g"), "[[1, 0], [0, 0]]", "[[0, 0], [0, 0]]"),
    ),
    (
        _rep(_table({"f", "g", "fg"}, {("f", "g"): "fg"}), 2, {
            "f": [[0, 0], [0, 0]], "g": [[0, 1], [0, 0]], "fg": [[0, 0], [0, 0]],
        }),
        ("domination", ("f", "g"), "[[0, 0], [0, 0]]", "[[1, 0], [0, 0]]"),
    ),
]


@pytest.mark.parametrize(
    "rep, pinned", FIRST_FAILURES, ids=[p[0] for _, p in FIRST_FAILURES]
)
def test_first_failure(rep, pinned):
    report = check_axioms(rep)
    assert not report
    f = report.failure
    assert (f.tag, f.elements, str(f.got), str(f.want)) == pinned


def _digest(pres) -> str:
    return hashlib.sha256(pres.render().encode()).hexdigest()


GENERIC_DIGESTS = {
    ("c", True): "2f1d70ac50b67f8a2f4dbe884901d45b1d7589dbfb11fc39c1b34b9e343989de",
    ("c", False): "a9cc7603fe701b1f81d2ee0bfa2507ade5c8c23f80e6c8e247dcc5c7c8dab0de",
    ("e", True): "c801e2d805efc7a129d73ad3e8a71e967adca0b53a2ab047d674039dc7b17b44",
    ("e", False): "a80175fd5a645de12e9009239015fcf9ca63323216d6026698e799bb61b9bcfc",
    ("golden3", True): "f7678c1558f742b69f1315eb124b83e3de9f47128be35ea6d733f3d4ed650230",
    ("golden3", False): "aa181479c032b6d241798faded01a845c3da0810dee489e9d167d5386dc9eb13",
}


@pytest.mark.parametrize("name, tight", sorted(GENERIC_DIGESTS))
def test_generic_presentation_digest(name, tight, fix_c, fix_e, golden):
    table = {"c": fix_c.table, "e": fix_e, "golden3": build_markov(golden, 3).table}[name]
    assert _digest(emit_generic(table, tight=tight)) == GENERIC_DIGESTS[(name, tight)]


def test_kumjian_pask_presentation_digest(fix_d):
    assert _digest(emit_kumjian_pask(fix_d)) == (
        "218a427dfa911ae387124c1836434f54b208d29ef0f5c07429b65a359621410a"
    )


CK_DIGESTS = {
    "golden": (
        [[1, 1], [1, 0]], None,
        "9f4358c8d530dce6c991b1d86c38da5fd747b9730517e94a8600c00c87c15e5f",
    ),
    "unsorted-labels": (
        [[0, 1, 1], [1, 0, 1], [1, 1, 1]], ("c", "a", "b"),
        "e570eb53b19cf12bac1e7eb0c7cfc6baebfb786ea43d508b805d52b3e3d7af39",
    ),
    "zero-row": (
        [[1, 1], [0, 0]], None,
        "9f965d44cf2b21390f9e4dfe85351e0e2374a4e8fda41c0eeac4613591f66050",
    ),
}


@pytest.mark.parametrize("name", sorted(CK_DIGESTS))
def test_cuntz_krieger_presentation_digest(name):
    rows, labels, digest = CK_DIGESTS[name]
    assert _digest(emit_cuntz_krieger(Matrix01.from_rows(rows, labels))) == digest
