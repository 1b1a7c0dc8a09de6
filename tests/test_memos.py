"""Differential tests for the memoised checks: `check_tight` (one join and
one partition self-check per distinct covering, complements and
projections computed once) and `evaluate` (one value per distinct
sub-term).

Each is compared against the unmemoised computation written out here:
projections recomputed at every use, the join folded afresh for every
covering of every family, products started from the identity, and every
relation evaluated on its own by plain recursion.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import matmul

import pytest

import sgpd.reps
from sgpd.cli import run
from sgpd.covers import is_partition, selector_families
from sgpd.formats import render_rep, render_sgpd
from sgpd.matrices import RatMat
from sgpd.relations import (
    Add,
    Adj,
    Compl,
    Gen,
    Join,
    Mul,
    One,
    Zero,
    emit_generic,
    emit_kumjian_pask,
    evaluate,
)
from sgpd.reps import (
    PreconditionUnmet,
    Representation,
    TightFailure,
    TightnessReport,
    check_tight,
    projection_atoms,
)

from conftest import all_ones_rep, unitary_rep, zero_edge_rep, zero_rep


# ---- references: the unmemoised computations


def ref_initial(rep, f):
    s = rep.assign[f]
    return s.T @ s


def ref_final(rep, f):
    s = rep.assign[f]
    return s @ s.T


def ref_join(projections, dim):
    out = RatMat.zeros(dim)
    for p in projections:
        out = out + p - out @ p
    return out


def ref_check_tight(rep, max_fg=2, max_cover=6):
    identity = RatMat.identity(rep.dim)
    failures = []
    families = coverings_checked = 0
    for required, forbidden, coverings in selector_families(rep.table, max_fg, max_cover):
        families += 1
        rhs = identity
        for f in required:
            rhs = rhs @ ref_initial(rep, f)
        for g in forbidden:
            rhs = rhs @ (identity - ref_initial(rep, g))
        for spec in coverings:
            coverings_checked += 1
            covering = tuple(sorted(spec.candidate))
            finals = [ref_final(rep, h) for h in covering]
            lhs = ref_join(finals, rep.dim)
            if is_partition(rep.table, spec) is True:
                if sum(finals, RatMat.zeros(rep.dim)) != lhs:
                    raise PreconditionUnmet(
                        "join and sum disagree on a partition; final "
                        "projections are not orthogonal (axioms violated?)"
                    )
            if lhs != rhs:
                failures.append(TightFailure(required, forbidden, covering, lhs, rhs))
    return TightnessReport(not failures, tuple(failures), families, coverings_checked)


def ref_eval(term, lookup, dim):
    if isinstance(term, Gen):
        return lookup[term.name]
    if isinstance(term, Adj):
        return lookup[term.name].T
    if isinstance(term, One):
        return RatMat.identity(dim)
    if isinstance(term, Zero):
        return RatMat.zeros(dim)
    if isinstance(term, Mul):
        out = RatMat.identity(dim)
        for t in term.factors:
            out = out @ ref_eval(t, lookup, dim)
        return out
    if isinstance(term, Add):
        out = RatMat.zeros(dim)
        for t in term.terms:
            out = out + ref_eval(t, lookup, dim)
        return out
    if isinstance(term, Join):
        return ref_join([ref_eval(t, lookup, dim) for t in term.terms], dim)
    if isinstance(term, Compl):
        return RatMat.identity(dim) - ref_eval(term.term, lookup, dim)
    raise TypeError(term)


def ref_violations(pres, rep):
    lookup = {g: rep.assign[g] for g in pres.generators}
    return tuple(
        r
        for r in pres.relations
        if ref_eval(r.lhs, lookup, rep.dim) != ref_eval(r.rhs, lookup, rep.dim)
    )


# ---- inputs


def nilpotent_rep(table):
    return Representation(table, 2, {"f": RatMat.from_rows([[0, 1], [0, 0]])})


def word_rep(kg, letters):
    """Each morphism sent to the product of its edges' matrices, objects to
    the identity."""
    dim = next(iter(letters.values())).shape[0]
    assign = {
        t: reduce(matmul, (letters[e] for e in word), RatMat.identity(dim))
        for t, word in kg.normal_form.items()
    }
    return Representation(kg.table, dim, assign)


ROTATION = RatMat.from_rows([[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]])
HALF = RatMat.from_rows([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]])


# ---- check_tight


def test_tight_report_matches_unmemoised(fix_c, fix_d, fix_e, golden3):
    cases = [
        (zero_edge_rep(fix_c), 2),
        (nilpotent_rep(fix_e), 2),
        (zero_edge_rep(fix_d), 2),
        (unitary_rep(fix_d), 2),
        (zero_rep(golden3.table, 2), 2),
        (zero_rep(golden3.table, 2), 1),
    ]
    for rep, max_fg in cases:
        got = check_tight(rep, max_fg)
        assert got == ref_check_tight(rep, max_fg)
    # the failing cases carry every failure, each with its matrices
    assert len(check_tight(zero_edge_rep(fix_c)).failures) > 1
    assert len(check_tight(zero_edge_rep(fix_d)).failures) > 1
    assert check_tight(nilpotent_rep(fix_e)).failures[0].rhs == RatMat.from_rows([[0, 0], [0, 1]])


def test_atom_matrix_built_once_per_mask(fix_d):
    atoms = projection_atoms(unitary_rep(fix_d))
    for mask in (0, atoms.full):
        assert atoms.matrix(mask) is atoms.matrix(mask)
    assert atoms.matrix(atoms.full) == RatMat.identity(atoms.dim)


def test_tight_self_check_raises_like_unmemoised(golden3):
    rep = all_ones_rep(golden3.table)
    with pytest.raises(PreconditionUnmet) as want:
        ref_check_tight(rep)
    with pytest.raises(PreconditionUnmet) as got:
        check_tight(rep)
    assert str(got.value) == str(want.value)


def test_cli_builds_atoms_once(tmp_path, monkeypatch, golden3):
    # `rep check --tight` runs check_axioms, then check_tight, on one
    # representation; both read the same atoms
    calls = []

    def counted(rep):
        calls.append(rep)
        return projection_atoms(rep)

    monkeypatch.setattr(sgpd.reps, "projection_atoms", counted)
    table, rep = tmp_path / "g.sgpd", tmp_path / "g.rep"
    table.write_text(render_sgpd(golden3.table))
    rep.write_text(render_rep(2, {t: RatMat.zeros(2) for t in golden3.table.elements}))
    code, text = run(["rep", "check", str(table), str(rep), "--tight"])
    assert code == 0 and "tight: pass" in text
    assert len(calls) == 1


def test_projections_match_products(fix_d):
    rep = word_rep(fix_d, {"b": ROTATION, "r": HALF})
    for f in sorted(fix_d.normal_form):
        assert rep.initial(f) == ref_initial(rep, f)
        assert rep.final(f) == ref_final(rep, f)


# ---- evaluate


def test_evaluate_matches_per_relation(fix_c, fix_d):
    cases = [
        (fix_c, zero_edge_rep(fix_c)),
        (fix_c, unitary_rep(fix_c)),
        (fix_d, word_rep(fix_d, {"b": ROTATION, "r": ROTATION @ ROTATION})),
        (fix_d, word_rep(fix_d, {"b": ROTATION, "r": HALF})),
    ]
    violated = 0
    for kg, rep in cases:
        for pres in (emit_generic(kg.table, tight=True), emit_kumjian_pask(kg)):
            got = evaluate(pres, rep)
            assert got == ref_violations(pres, rep)
            violated += len(got)
    assert violated > 0
