import random
from itertools import chain, combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from sgpd import covers
from sgpd.core import SemigroupoidTable, common_followers, d_set, intersects
from sgpd.covers import (
    BoundExceededError,
    CandidateNotSubset,
    CoverSpec,
    NotACovering,
    check_maximality,
    is_covering,
    is_partition,
    minimal_coverings,
    prune_covering,
    selector_families,
    selector_groups,
    target_coverings,
)
from sgpd.kgraph import build_kgraph
from sgpd.markov import build_markov

from conftest import random_dag_table, random_matrix01

FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def subsets(items):
    items = sorted(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


@pytest.fixture(scope="module")
def golden2(golden):
    return build_markov(golden, 2).table


class TestIsCovering:
    def test_letters_cover_all_words(self, golden2):
        spec = CoverSpec(golden2.elements, frozenset({"1", "2"}))
        assert is_covering(golden2, spec) is True

    def test_empty_covers_empty(self, golden2):
        assert is_covering(golden2, CoverSpec(frozenset(), frozenset())) is True

    def test_uncovered_witness(self, golden2):
        verdict = is_covering(golden2, CoverSpec(golden2.elements, frozenset({"2"})))
        assert not verdict
        assert verdict.element == "1"

    def test_candidate_subset_enforced(self, golden2):
        with pytest.raises(CandidateNotSubset):
            CoverSpec(frozenset({"1"}), frozenset({"2"}))


class TestIsPartition:
    def test_letters_partition(self, golden2):
        assert is_partition(golden2, CoverSpec(golden2.elements, frozenset({"1", "2"}))) is True

    def test_intersecting_pair_witness(self, golden2):
        verdict = is_partition(golden2, CoverSpec(golden2.elements, frozenset({"1", "12"})))
        assert not verdict
        assert (verdict.a, verdict.b) == ("1", "12")

    def test_empty(self, golden2):
        assert is_partition(golden2, CoverSpec(frozenset(), frozenset())) is True


class TestMaximality:
    def test_letters_maximal(self, golden2):
        assert check_maximality(golden2, golden2.elements, {"1", "2"}) is True

    def test_single_letter_not_maximal(self, golden2):
        assert check_maximality(golden2, golden2.elements, {"1"}) is False

    def test_empty_over_empty(self, golden2):
        assert check_maximality(golden2, frozenset(), frozenset()) is True

    def test_rejects_intersecting_antichain(self, golden2):
        with pytest.raises(NotACovering):
            check_maximality(golden2, golden2.elements, {"1", "12"})

    def test_equivalence_with_is_partition_exhaustive(self):
        rng = random.Random(5050)
        for _ in range(12):
            table = random_dag_table(rng, max_elements=5)
            for target in subsets(table.elements):
                target = frozenset(target)
                for cand in subsets(target):
                    cand = frozenset(cand)
                    pairwise_disjoint = all(
                        intersects(table, a, b) is None
                        for a, b in combinations(sorted(cand), 2)
                    )
                    if not pairwise_disjoint:
                        continue
                    part = is_partition(table, CoverSpec(target, cand)) is True
                    maximal = check_maximality(table, target, cand)
                    assert part == maximal


class TestPrune:
    def test_removes_multiples(self, golden2):
        spec = CoverSpec(golden2.elements, frozenset({"1", "12", "2"}))
        assert prune_covering(golden2, spec).candidate == {"1", "2"}

    def test_division_free_unchanged(self, golden2):
        spec = CoverSpec(golden2.elements, frozenset({"1", "2"}))
        assert prune_covering(golden2, spec).candidate == {"1", "2"}

    def test_iterated_removal(self, golden2):
        spec = CoverSpec(golden2.elements, frozenset({"11", "12", "2", "1"}))
        assert prune_covering(golden2, spec).candidate == {"1", "2"}

    def test_requires_covering(self, golden2):
        with pytest.raises(NotACovering):
            prune_covering(golden2, CoverSpec(golden2.elements, frozenset({"2"})))

    def test_idempotent_and_division_free(self, golden2):
        spec = CoverSpec(golden2.elements, frozenset({"1", "12", "21", "2"}))
        once = prune_covering(golden2, spec)
        assert prune_covering(golden2, once).candidate == once.candidate
        members = sorted(once.candidate)
        for a in members:
            for b in members:
                if a != b:
                    from sgpd.core import divides

                    assert not divides(golden2, a, b)


class TestMinimalCoverings:
    def test_cycle_singletons(self, fix_c):
        target = d_set(fix_c.table, "v")
        specs = minimal_coverings(fix_c.table, target)
        candidates = [set(s.candidate) for s in specs]
        assert {"v"} in candidates and {"e"} in candidates

    def test_empty_target(self, golden2):
        specs = minimal_coverings(golden2, frozenset())
        assert len(specs) == 1 and specs[0].candidate == frozenset()

    def test_letter_partition_found(self, golden2):
        specs = minimal_coverings(golden2, golden2.elements, max_size=3)
        assert {"1", "2"} in [set(s.candidate) for s in specs]

    def test_all_results_are_minimal_coverings(self, golden2):
        specs = minimal_coverings(golden2, golden2.elements, max_size=3)
        for spec in specs:
            assert is_covering(golden2, spec) is True
            for h in spec.candidate:
                smaller = CoverSpec(spec.target, spec.candidate - {h})
                assert is_covering(golden2, smaller) is not True

    def test_bound_exceeded_is_loud(self):
        table = SemigroupoidTable.build({"a", "b", "c"}, {})
        with pytest.raises(BoundExceededError) as info:
            minimal_coverings(table, table.elements, max_size=2)
        assert info.value.oversized == ["a", "b", "c"]

    def test_empty_pool_means_no_coverings(self, golden2):
        specs = minimal_coverings(golden2, frozenset({"1"}), pool=frozenset())
        assert specs == []

    def test_superset_of_covering_still_covers(self, golden2):
        specs = minimal_coverings(golden2, golden2.elements, max_size=3)
        for spec in specs:
            for extra in sorted(golden2.elements - spec.candidate):
                bigger = CoverSpec(spec.target, spec.candidate | {extra})
                assert is_covering(golden2, bigger) is True

    def test_deterministic_order(self, golden2):
        a = minimal_coverings(golden2, golden2.elements, max_size=3)
        b = minimal_coverings(golden2, golden2.elements, max_size=3)
        assert [tuple(sorted(s.candidate)) for s in a] == [
            tuple(sorted(s.candidate)) for s in b
        ]


# ---- the enumerators MMCS and the per-subset targets replaced, as oracles


def ref_minimal_hitting_sets(families):
    """Branch on the first unhit family with earlier siblings banned, then
    drop the non-minimal sets (no search cap)."""
    results = []

    def rec(chosen, banned):
        unhit = [fam for fam in families if not fam & chosen]
        if not unhit:
            results.append(chosen)
            return
        fam = min(unhit, key=lambda s: (len(s - banned), sorted(s)))
        local_ban = set(banned)
        for h in sorted(fam - banned):
            rec(chosen | {h}, frozenset(local_ban))
            local_ban.add(h)

    rec(frozenset(), frozenset())
    minimal = [s for s in results if not any(t < s for t in results)]
    return sorted(set(minimal), key=lambda s: tuple(sorted(s)))


def ref_minimal_coverings(table, target, max_size, pool=None):
    """minimal_coverings with the old enumerator in place of MMCS."""
    with mock.patch.object(covers, "_minimal_hitting_sets", ref_minimal_hitting_sets):
        return minimal_coverings(table, target, max_size, pool)


def ref_selector_families(table, max_fg, max_cover):
    active = sorted(table.elements - table.boundary)
    sizes = range(1, min(max_fg, len(active)) + 1)
    subsets = [c for size in sizes for c in combinations(active, size)]
    cache = {}
    for required in subsets:
        for forbidden in [()] + subsets:
            target = common_followers(table, required, forbidden, full=True)
            if target not in cache:
                cache[target] = target_coverings(table, target, max_cover)
            yield required, forbidden, cache[target]


def outcome(call, *args):
    """The result, or the message and witness of a BoundExceededError."""
    try:
        return call(*args)
    except BoundExceededError as err:
        return ("bound", str(err), err.oversized)


# ---- inputs

LETTERS = st.sampled_from("abcdefghi")


@st.composite
def hypergraphs(draw):
    """Families over a few letters, with duplicate, nested and singleton
    families mixed in, in random order."""
    families = draw(st.lists(st.frozensets(LETTERS, min_size=1, max_size=3), max_size=10))
    extra = []
    for fam in families:
        kind = draw(st.sampled_from(["none", "duplicate", "nested", "singleton"]))
        if kind == "duplicate":
            extra.append(fam)
        elif kind == "nested":
            extra.append(draw(st.frozensets(st.sampled_from(sorted(fam)), min_size=1)))
            extra.append(draw(st.frozensets(LETTERS)) | fam)
        elif kind == "singleton":
            extra.append(frozenset({draw(LETTERS)}))
    return draw(st.permutations(families + extra))


TABLES = st.one_of(
    st.integers(0, 2**32).map(lambda seed: random_dag_table(random.Random(seed))),
    st.tuples(st.integers(0, 2**32), st.integers(1, 3), st.integers(1, 3)).map(
        lambda t: build_markov(random_matrix01(random.Random(t[0]), t[1]), t[2]).table
    ),
)


def kgraph_tables(fix_c, fix_d):
    return [fix_c.table, fix_d.table, build_kgraph(fix_d.skeleton, (3, 2)).table]


# ---- differential tests


@FUZZ
@given(hypergraphs())
def test_hitting_sets_match_reference(families):
    assert covers._minimal_hitting_sets(list(families)) == ref_minimal_hitting_sets(
        list(families)
    )


def test_minimal_set_with_two_members_of_one_family():
    families = [frozenset("ab"), frozenset("ac"), frozenset("bd")]
    assert covers._minimal_hitting_sets(families) == [
        frozenset("ab"), frozenset("ad"), frozenset("bc")
    ]


def _targets_and_pools(table, data):
    elements = sorted(table.elements)
    target = data.draw(st.frozensets(st.sampled_from(elements), max_size=12))
    pool = data.draw(
        st.sampled_from([None, target - table.boundary, frozenset(elements[::2])])
    )
    return target, pool


@FUZZ
@given(TABLES, st.integers(1, 6), st.data())
def test_minimal_coverings_match_reference(table, max_size, data):
    target, pool = _targets_and_pools(table, data)
    assert outcome(minimal_coverings, table, target, max_size, pool) == outcome(
        ref_minimal_coverings, table, target, max_size, pool
    )


@FUZZ
@given(st.sampled_from([0, 1, 2]), st.integers(1, 6), st.data())
def test_kgraph_coverings_match_reference(fix_c, fix_d, which, max_size, data):
    table = kgraph_tables(fix_c, fix_d)[which]
    target, pool = _targets_and_pools(table, data)
    assert outcome(minimal_coverings, table, target, max_size, pool) == outcome(
        ref_minimal_coverings, table, target, max_size, pool
    )


def test_whole_carrier_coverings_match_reference(golden, fix_c, fix_d):
    tables = [build_markov(golden, n).table for n in (2, 3, 4)]
    tables += kgraph_tables(fix_c, fix_d)
    for table in tables:
        for max_size in (2, 4, 16):
            for pool in (None, table.elements - table.boundary):
                assert outcome(
                    minimal_coverings, table, table.elements, max_size, pool
                ) == outcome(ref_minimal_coverings, table, table.elements, max_size, pool)


def test_search_cap_has_no_witness(monkeypatch, golden):
    table = build_markov(golden, 3).table
    monkeypatch.setattr(covers, "NODE_CAP", 3)
    with pytest.raises(BoundExceededError) as info:
        minimal_coverings(table, table.elements, max_size=16)
    assert str(info.value) == "covering enumeration exceeded the search cap"
    assert info.value.oversized is None


@FUZZ
@given(TABLES, st.integers(1, 2))
def test_selector_families_match_per_family_targets(table, max_fg):
    assert outcome(lambda: list(selector_families(table, max_fg, 16))) == outcome(
        lambda: list(ref_selector_families(table, max_fg, 16))
    )


@FUZZ
@given(TABLES, st.integers(1, 2), st.integers(0, 2**32))
def test_selector_groups_partition_the_families(table, max_fg, seed):
    """Expanded, the groups are the selector families, each once, with its
    coverings and with the AND of its required labels less the OR of its
    forbidden ones as the mask; the groups come in the order of their first
    family, and a bound is exceeded with the same error."""
    rng = random.Random(seed)
    label = {f: rng.randrange(8) for f in table.elements}

    def mask(required, forbidden):
        out = 7
        for f in required:
            out &= label[f]
        for g in forbidden:
            out &= ~label[g]
        return out

    families = outcome(
        lambda: [(r, f, mask(r, f), c) for r, f, c in selector_families(table, max_fg, 4)]
    )
    groups = outcome(lambda: list(selector_groups(table, max_fg, 4, label)))
    if not isinstance(families, list):
        assert groups == families
        return
    position = {(r, f): i for i, (r, f, _, _) in enumerate(families)}
    expanded = [(r, f, m, c) for rs, fs, m, c in groups for r in rs for f in fs]
    assert sorted(expanded, key=lambda fam: position[fam[:2]]) == families
    firsts = [position[rs[0], fs[0]] for rs, fs, _, _ in groups]
    assert firsts == sorted(firsts)
