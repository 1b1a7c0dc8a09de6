import random
from itertools import combinations
from itertools import product as iproduct

import pytest

import sgpd.markov
from sgpd.core import d_set, intersects, validate_associativity
from sgpd.covers import BoundExceededError, CoverSpec, prune_covering
from sgpd.markov import (
    InadmissibleWord,
    LemmaWitness,
    Matrix01,
    SpringRow,
    UnknownLetter,
    build_markov,
    enumerate_partitions,
    enumerate_words,
    first_letter_decomposition_check,
    follow_weight,
    follower_letters,
    graphable,
    graphable_oracle,
    word_disjoint,
    word_token,
    words_from,
    _transfer_matrix_count,
)
from sgpd.springs import find_springs

from conftest import random_matrix01


class TestBuild:
    def test_golden_words_maxlen2(self, golden):
        table = build_markov(golden, 2).table
        assert table.elements == {"1", "2", "11", "12", "21"}

    def test_single_loop(self, loop):
        table = build_markov(loop, 3).table
        assert table.elements == {"1", "11", "111"}

    def test_zero_matrix_singleton_spring(self):
        matrix = Matrix01.from_rows([[0]])
        trunc = build_markov(matrix, 2)
        assert trunc.table.elements == {"1"}
        assert find_springs(trunc.table).springs == {"1"}

    def test_word_count_matches_census(self):
        rng = random.Random(11)
        for _ in range(10):
            matrix = random_matrix01(rng, rng.randint(1, 4))
            trunc = build_markov(matrix, 4)
            assert validate_associativity(trunc.table).ok

    def test_boundary_flags_maximal_words(self, golden):
        trunc = build_markov(golden, 3)
        assert trunc.table.boundary == {
            word_token(golden, w) for w in trunc.words.values() if len(w) == 3
        }

    def test_multichar_labels_tokenise_unambiguously(self):
        matrix = Matrix01.from_rows([[1, 1], [1, 1]], alphabet=("ab", "c"))
        trunc = build_markov(matrix, 2)
        assert "ab.c" in trunc.table.elements


class TestWordCap:
    def test_count_equals_enumeration_below_cap(self):
        rng = random.Random(23)
        for _ in range(60):
            matrix = random_matrix01(rng, rng.randint(1, 5))
            max_len = rng.randint(1, 7)
            words = enumerate_words(matrix, max_len)
            if len(words) <= sgpd.markov.WORD_CAP:
                assert _transfer_matrix_count(matrix, max_len) == len(words)

    def test_count_passes_cap_without_enumerating(self):
        ones = Matrix01.from_rows([[1, 1, 1]] * 3)
        assert sgpd.markov.WORD_CAP < _transfer_matrix_count(ones, 7) <= 3279
        # counting stops at the cap, so a huge bound costs nothing
        loop = Matrix01.from_rows([[1]])
        for matrix in (ones, loop):
            assert _transfer_matrix_count(matrix, 10**9) > sgpd.markov.WORD_CAP

    def test_count_stops_when_no_word_extends(self):
        nilpotent = Matrix01.from_rows([[0, 1], [0, 0]])
        assert _transfer_matrix_count(nilpotent, 10**9) == 3
        assert len(build_markov(nilpotent, 10**9).table.elements) == 3

    def test_cap_is_inclusive(self, monkeypatch):
        full2 = Matrix01.from_rows([[1, 1], [1, 1]])  # 62 words up to length 5
        monkeypatch.setattr(sgpd.markov, "WORD_CAP", 62)
        assert len(build_markov(full2, 5).table.elements) == 62
        monkeypatch.setattr(sgpd.markov, "WORD_CAP", 61)
        with pytest.raises(BoundExceededError, match="more than 61 admissible words"):
            build_markov(full2, 5)

    def test_ladder_cells_are_under_the_cap(self):
        ones = Matrix01.from_rows([[1, 1, 1]] * 3)
        assert _transfer_matrix_count(ones, 6) == 1092 <= sgpd.markov.WORD_CAP


class TestWordDisjoint:
    def test_prefix_not_disjoint(self, golden):
        assert word_disjoint(golden, ("1",), ("1", "2")) is False

    def test_distinct_letters_disjoint(self, golden):
        assert word_disjoint(golden, ("1",), ("2",)) is True

    def test_self_not_disjoint(self, golden):
        assert word_disjoint(golden, ("1", "2"), ("1", "2")) is False

    def test_rejects_inadmissible(self, golden):
        with pytest.raises(InadmissibleWord):
            word_disjoint(golden, ("2", "2"), ("1",))

    def test_agrees_with_table_intersects(self, golden):
        trunc = build_markov(golden, 3)
        tokens = sorted(trunc.table.elements)
        for a in tokens:
            for b in tokens:
                exact = word_disjoint(golden, trunc.words[a], trunc.words[b])
                assert exact == (intersects(trunc.table, a, b) is None)


class TestFollowWeight:
    def test_single_requirement(self, golden):
        assert follow_weight(golden, ["1"], [], "2") == 1

    def test_empty_products(self, golden):
        assert follow_weight(golden, [], [], "1") == 1
        assert follow_weight(golden, [], [], "2") == 1

    def test_forbidden_junction(self, golden):
        assert follow_weight(golden, ["2"], [], "2") == 0

    def test_letters_examples(self, golden):
        assert follower_letters(golden, ["1"], []) == {"1", "2"}
        assert follower_letters(golden, ["2"], []) == {"1"}
        assert follower_letters(golden, [], ["1"]) == frozenset()

    def test_letters_agree_with_table_selector(self, golden):
        from sgpd.core import common_followers

        trunc = build_markov(golden, 3)
        for required in ([], ["1"], ["2"], ["1", "2"]):
            for forbidden in ([], ["1"], ["2"]):
                letters = follower_letters(golden, required, forbidden)
                selected = common_followers(trunc.table, required, forbidden, full=True)
                one_letter = {t for t in selected if len(trunc.words[t]) == 1}
                assert letters == one_letter


class TestGraphable:
    def test_paper_matrix_obstruction(self, golden):
        verdict = graphable(golden)
        assert not verdict
        assert (verdict.i, verdict.j, verdict.i2, verdict.j2) == ("2", "1", "1", "2")
        assert "A(2,2) should be 1 but is 0" in verdict.chain()
        assert graphable_oracle(golden) is False

    def test_full_matrix_is_graph(self):
        matrix = Matrix01.from_rows([[1, 1], [1, 1]])
        assert graphable(matrix) is True
        assert graphable_oracle(matrix) is True

    def test_disjoint_loops(self):
        matrix = Matrix01.from_rows([[1, 0], [0, 1]])
        assert graphable(matrix) is True
        assert graphable_oracle(matrix) is True

    def test_zero_matrix(self):
        matrix = Matrix01.from_rows([[0, 0], [0, 0]])
        assert graphable(matrix) is True
        assert graphable_oracle(matrix) is True

    def test_criterion_matches_oracle_on_2x2(self):
        for bits in iproduct((0, 1), repeat=4):
            matrix = Matrix01.from_rows([bits[:2], bits[2:]])
            assert (graphable(matrix) is True) == graphable_oracle(matrix)

    def test_witness_is_least_in_loop_order(self):
        # (1, 3, 2, 2) is the least violating quadruple in (i, j, i2, j2)
        # order; the witness is the least in (i, j2, i2, j) order
        matrix = Matrix01.from_rows([[0, 0, 1], [0, 1, 1], [1, 0, 1]])
        verdict = graphable(matrix)
        assert (verdict.i, verdict.j, verdict.i2, verdict.j2) == ("1", "3", "3", "1")
        assert graphable_oracle(matrix) is False


def _random_labelled_matrix(rng):
    """1-4 letters, often a zero row, sometimes multi-character labels."""
    n = rng.randint(1, 4)
    rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.4:
        rows[rng.randrange(n)] = [0] * n
    labels = rng.sample(["a", "b", "ab", "c", "x1", "zz"], n) if rng.random() < 0.5 else None
    return Matrix01.from_rows(rows, labels)


def _entry(matrix, a, b):
    """The matrix entry A(a, b), read from `entries`."""
    return matrix.entries[matrix.alphabet.index(a)][matrix.alphabet.index(b)]


class TestFollowerWalk:
    """The follower map and the walks on it against the definitions read
    from `entries`: every pair of words tested on its junction entry, and
    follower sets as products of entries and complements."""

    @staticmethod
    def ref_pairs(matrix, max_len):
        words = enumerate_words(matrix, max_len)
        tokens = {w: word_token(matrix, w) for w in words}
        product, artifacts = {}, set()
        for a in words:
            for b in words:
                if _entry(matrix, a[-1], b[0]) != 1:
                    continue
                if len(a) + len(b) <= max_len:
                    product[(tokens[a], tokens[b])] = tokens[a + b]
                else:
                    artifacts.add((tokens[a], tokens[b]))
        boundary = frozenset(tokens[w] for w in words if len(w) == max_len)
        return frozenset(tokens.values()), product, frozenset(artifacts), boundary

    def test_build_matches_all_pairs(self):
        rng = random.Random(20)
        for _ in range(150):
            matrix = _random_labelled_matrix(rng)
            max_len = rng.randint(1, 5)
            table = build_markov(matrix, max_len).table
            elements, product, artifacts, boundary = self.ref_pairs(matrix, max_len)
            assert table.elements == elements
            assert table.product == product
            assert table.artifact_pairs == artifacts
            assert table.boundary == boundary
            # build_markov proves associativity by concatenation and does not check it
            assert validate_associativity(table).ok

    def test_follows_is_the_one_columns(self):
        rng = random.Random(21)
        for _ in range(100):
            matrix = _random_labelled_matrix(rng)
            for a, row in zip(matrix.alphabet, matrix.entries):
                assert matrix.follows[a] == tuple(
                    b for b, x in zip(matrix.alphabet, row) if x == 1
                )
                assert matrix.row_is_zero(a) == (not any(row))

    def test_followers_match_products_of_entries(self):
        rng = random.Random(22)
        for _ in range(60):
            matrix = _random_labelled_matrix(rng)
            letters = matrix.alphabet
            subsets = [c for r in range(len(letters) + 1) for c in combinations(letters, r)]
            for required in subsets:
                for forbidden in subsets:
                    weights = {}
                    for j in letters:
                        w = 1
                        for x in required:
                            w *= _entry(matrix, x, j)
                        for y in forbidden:
                            w *= 1 - _entry(matrix, y, j)
                        weights[j] = w
                        assert follow_weight(matrix, required, forbidden, j) == w
                    want = frozenset(j for j, w in weights.items() if w)
                    assert follower_letters(matrix, required, forbidden) == want


class TestUnknownLetter:
    """Every reader of the follower map names the unknown letter."""

    MESSAGE = "letter 'z' not in alphabet"

    @pytest.mark.parametrize(
        "call",
        [
            lambda m: m.entry("z", "1"),
            lambda m: m.entry("1", "z"),
            lambda m: m.row_is_zero("z"),
            lambda m: m.admissible(("1", "z")),
            lambda m: m.admissible(("z",)),
            lambda m: word_disjoint(m, ("1",), ("z",)),
            lambda m: follow_weight(m, [], [], "z"),
            lambda m: follow_weight(m, ["z"], [], "1"),
            lambda m: follow_weight(m, [], ["z"], "1"),
            lambda m: follower_letters(m, ["z"], []),
            lambda m: follower_letters(m, [], ["z"]),
            lambda m: enumerate_partitions(m, "z", 3),
            lambda m: first_letter_decomposition_check(m, "z", 3),
        ],
    )
    def test_raises_with_the_letter(self, golden, call):
        with pytest.raises(UnknownLetter) as info:
            call(golden)
        assert str(info.value) == self.MESSAGE


class TestSpringsOfTruncation:
    def test_spring_census(self, dead_row):
        trunc = build_markov(dead_row, 4)
        report = find_springs(trunc.table)
        for token in trunc.table.elements:
            word = trunc.words[token]
            if dead_row.row_is_zero(word[-1]):
                assert token in report.springs
            else:
                assert token not in report.springs

    def test_prune_yields_prefix_incomparable(self, golden):
        trunc = build_markov(golden, 3)
        table = trunc.table
        spec = CoverSpec(
            table.elements, frozenset({"1", "11", "12", "2", "21", "211"})
        )
        pruned = prune_covering(table, spec)
        members = sorted(pruned.candidate)
        for a in members:
            for b in members:
                if a != b:
                    assert word_disjoint(golden, trunc.words[a], trunc.words[b])


class TestPartitionEnumeration:
    def test_loop_partitions_are_singletons(self, loop):
        parts = enumerate_partitions(loop, "1", 3)
        assert parts == sorted(
            [
                frozenset({("1",)}),
                frozenset({("1", "1")}),
                frozenset({("1", "1", "1")}),
            ],
            key=lambda s: (len(s), sorted(s)),
        )

    def test_golden_partition_count_maxlen3(self, golden):
        # tree-cut census: 1 + f(11)*f(12) with f(11)=5's subtree etc.
        assert len(enumerate_partitions(golden, "1", 3)) == 5
        assert len(enumerate_partitions(golden, "2", 3)) == 3

    def test_every_enumerated_set_is_a_partition(self, golden):
        trunc = build_markov(golden, 3)
        from sgpd.covers import is_partition

        universe = {
            word_token(golden, w) for w in words_from(golden, "1", 3)
        }
        for part in enumerate_partitions(golden, "1", 3):
            tokens = frozenset(word_token(golden, w) for w in part)
            assert is_partition(trunc.table, CoverSpec(universe, tokens)) is True


class TestFirstLetterDecomposition:
    def test_golden_passes(self, golden):
        assert first_letter_decomposition_check(golden, "1", 3) is True
        assert first_letter_decomposition_check(golden, "2", 3) is True

    def test_loop_passes(self, loop):
        assert first_letter_decomposition_check(loop, "1", 3) is True

    def test_mutated_non_partition_is_caught(self, loop):
        bad = [frozenset({("1",), ("1", "1")})]
        verdict = first_letter_decomposition_check(loop, "1", 3, partitions=bad)
        assert not verdict
        assert verdict.kind == "intersecting-pair"

    def test_spring_row_rejected(self, dead_row):
        with pytest.raises(SpringRow):
            first_letter_decomposition_check(dead_row, "2", 3)


def ref_is_partition_of_words(matrix, members, universe):
    """The partition check with every pair of words walked through
    `word_disjoint` (admissibility included)."""
    members = sorted(members)
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if not word_disjoint(matrix, a, b):
                return LemmaWitness("intersecting-pair", (a, b))
    for w in universe:
        if all(word_disjoint(matrix, w, h) for h in members):
            return LemmaWitness("uncovered-word", (w,))
    return True


class TestPartitionOfWords:
    """The partition check compares prefixes of words known to be
    admissible; it must give the verdicts and witnesses of the walk over
    every pair, which checks admissibility as it goes: on every enumerated
    partition and on random sets of words at lengths 1-5, and through the
    whole decomposition check at lengths 1-4."""

    MATRICES = {"golden": [[1, 1], [1, 0]], "full2": [[1, 1], [1, 1]]}

    @pytest.mark.parametrize("name", sorted(MATRICES))
    def test_matches_pairwise_walk(self, monkeypatch, name):
        matrix = Matrix01.from_rows(self.MATRICES[name])
        rng = random.Random(3)
        kinds = set()
        for n in range(1, 6):
            for letter in matrix.alphabet:
                universe = words_from(matrix, letter, n)
                parts = enumerate_partitions(matrix, letter, n)
                parts += [frozenset(rng.sample(universe, rng.randint(1, len(universe)))) for _ in range(20)]
                for part in parts:
                    got = sgpd.markov._is_partition_of_words(part, universe)
                    assert got == ref_is_partition_of_words(matrix, part, universe)
                    kinds.add(True if got is True else got.kind)
                want = first_letter_decomposition_check(matrix, letter, n, parts)
                if n == 5:  # the walk over every stripped partition takes seconds
                    continue
                with monkeypatch.context() as patch:
                    patch.setattr(
                        sgpd.markov,
                        "_is_partition_of_words",
                        lambda members, universe: ref_is_partition_of_words(matrix, members, universe),
                    )
                    assert first_letter_decomposition_check(matrix, letter, n, parts) == want
                assert first_letter_decomposition_check(matrix, letter, n) is True
        assert kinds == {True, "intersecting-pair", "uncovered-word"}

    def test_inadmissible_member_raises(self, golden):
        parts = [frozenset({("1",)}), frozenset({("1", "1"), ("1", "2", "2")})]
        with pytest.raises(InadmissibleWord, match=r"^\('1', '2', '2'\) is not admissible$"):
            first_letter_decomposition_check(golden, "1", 3, parts)
        with pytest.raises(InadmissibleWord, match=r"^\('1', '2', '2'\) is not admissible$"):
            first_letter_decomposition_check(golden, "1", 3, [parts[1]])


class TestDegreeAdapter:
    def test_markov_word_length_is_rank_one_up_to_zero_splits(self, golden):
        from sgpd.kgraph import degree_check

        trunc = build_markov(golden, 3)
        degrees = {t: (len(trunc.words[t]),) for t in trunc.table.elements}
        report = degree_check(trunc.table, degrees)
        assert report.additive
        # additivity holds and positive splits are unique; the only
        # failures are existence at the trivial end splits (no length-0
        # words exist) and cut factorizations at the truncation edge
        for violation in report.violations:
            assert violation.kind == "no-factorization"
            f, n = violation.detail
            assert n == (0,) or n == degrees[f]
