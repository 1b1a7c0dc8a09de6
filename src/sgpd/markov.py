"""Markov semigroupoids: admissible words of a finite 0-1 matrix.

Words compose by concatenation when the matrix allows the junction letter
pair, as every walk of the letter graph reads it from the follower map
`Matrix01.follows` (letter -> the letters that may follow it).  A
truncation materialises all words up to a length bound: a word pairs with
the words that start with a follower of its last letter, composably when
the lengths fit and as an artifact pair when they overflow the bound.
Maximal-length words are flagged as boundary, so downstream spring and
tightness analysis never mistakes a cut word for a genuine dead end.

Word-level disjointness is decided exactly and independently of any bound:
two admissible words intersect precisely when one is an initial segment of
the other.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product as iproduct
from typing import Iterable, Sequence

from .core import Record, SemigroupoidTable, SgpdError, Witness
from .covers import BoundExceededError

# admissible words a truncation may have; build_markov counts them first and
# refuses more (the all-ones 3x3 matrix at length 6, 1,092 words, takes
# seconds to build, and the build grows faster than the square of the count)
WORD_CAP = 2_000


class EmptyAlphabet(SgpdError):
    pass


class UnknownLetter(SgpdError):
    pass


class InadmissibleWord(SgpdError):
    pass


class SpringRow(SgpdError):
    """The requested row of the matrix is zero; the letter heads no words."""


class _Follows(dict):
    """letter -> its followers; an unknown letter raises UnknownLetter."""

    def __missing__(self, letter):
        raise UnknownLetter(f"letter {letter!r} not in alphabet")


class Matrix01(Record):
    alphabet: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.alphabet:
            raise EmptyAlphabet("alphabet must be nonempty")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate letters")
        n = len(self.alphabet)
        if len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise ValueError("entries must be square over the alphabet")
        if any(x not in (0, 1) for r in self.entries for x in r):
            raise ValueError("entries must be 0 or 1")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], alphabet=None) -> "Matrix01":
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        if alphabet is None:
            alphabet = tuple(str(i + 1) for i in range(len(rows)))
        return cls(tuple(alphabet), rows)

    @cached_property
    def follows(self) -> _Follows:
        """Each letter -> the 1-columns of its row, in alphabet order; besides
        validation and `formats.render_mat01`, the only reader of `entries`."""
        return _Follows(
            (a, tuple(b for b, x in zip(self.alphabet, row) if x))
            for a, row in zip(self.alphabet, self.entries)
        )

    def entry(self, i: str, j: str) -> int:
        row, _ = self.follows[i], self.follows[j]
        return int(j in row)

    def row_is_zero(self, letter: str) -> bool:
        return not self.follows[letter]

    def admissible(self, word: Sequence[str]) -> bool:
        if not word:
            return False
        rows = [self.follows[a] for a in word]
        return all(b in row for row, b in zip(rows, word[1:]))


def word_token(matrix: Matrix01, word: Sequence[str]) -> str:
    sep = "" if all(len(a) == 1 for a in matrix.alphabet) else "."
    return sep.join(word)


class MarkovTruncation(Record):
    matrix: Matrix01
    max_len: int
    table: SemigroupoidTable
    words: dict[str, tuple[str, ...]]  # token -> letters


def enumerate_words(matrix: Matrix01, max_len: int) -> list[tuple[str, ...]]:
    """All admissible words of length 1..max_len, ordered by length then
    alphabet position."""
    words: list[tuple[str, ...]] = []
    level = [(a,) for a in matrix.alphabet]
    for _ in range(max_len):
        if not level:
            break
        words.extend(level)
        level = [w + (b,) for w in level for b in matrix.follows[w[-1]]]
    return words


def build_markov(matrix: Matrix01, max_len: int) -> MarkovTruncation:
    """Truncated word table.  The words are counted by the transfer matrix
    first: past WORD_CAP this raises BoundExceededError before enumerating,
    and otherwise the enumeration is cross-checked against the count.
    The product is concatenation, so the table is associative by
    construction and is made with the plain constructor."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    expected = _transfer_matrix_count(matrix, max_len)
    if expected > WORD_CAP:
        raise BoundExceededError(
            f"more than {WORD_CAP} admissible words up to length {max_len}"
        )
    words = enumerate_words(matrix, max_len)
    if len(words) != expected:
        raise SgpdError(
            f"word census mismatch: enumerated {len(words)}, expected {expected}"
        )
    tokens = {w: word_token(matrix, w) for w in words}
    if len(set(tokens.values())) != len(words):
        raise SgpdError("word tokens collide; alphabet labels are ambiguous")
    # each word pairs only with the words starting with a follower of its last letter
    starting = {c: [w for w in words if w[0] == c] for c in matrix.alphabet}
    product = {}
    artifacts = set()
    for a in words:
        ta, room = tokens[a], max_len - len(a)
        for c in matrix.follows[a[-1]]:
            for b in starting[c]:
                if len(b) <= room:
                    product[(ta, tokens[b])] = tokens[a + b]
                else:
                    artifacts.add((ta, tokens[b]))
    boundary = frozenset(tokens[w] for w in words if len(w) == max_len)
    table = SemigroupoidTable(frozenset(tokens.values()), product, boundary, frozenset(artifacts))
    return MarkovTruncation(matrix, max_len, table, {t: w for w, t in tokens.items()})


def _transfer_matrix_count(matrix: Matrix01, max_len: int) -> int:
    """The number of admissible words of length 1..max_len, from powers of
    the transfer matrix.  The count stops once no word extends, and once it
    passes WORD_CAP, returning some number above the cap.  A step costs the
    alphabet size times (1 + the words it counts), so the whole count costs
    O(alphabet size x WORD_CAP) however large max_len is."""
    follows = matrix.follows
    total = len(follows)
    ends = dict.fromkeys(follows, 1)  # words of the current length by last letter
    for _ in range(max_len - 1):
        if total > WORD_CAP or not any(ends.values()):
            break
        longer = dict.fromkeys(follows, 0)
        for a, count in ends.items():
            if count:
                for b in follows[a]:
                    longer[b] += count
        ends = longer
        total += sum(ends.values())
    return total


def word_disjoint(matrix: Matrix01, a: Sequence[str], b: Sequence[str]) -> bool:
    """Exact, bound-independent: disjoint iff neither word is an initial
    segment of the other."""
    a, b = tuple(a), tuple(b)
    for w in (a, b):
        if not matrix.admissible(w):
            raise InadmissibleWord(f"{w} is not admissible")
    return not _nested(a, b)


def _nested(a: Sequence[str], b: Sequence[str]) -> bool:
    """One word is an initial segment of the other."""
    shorter = min(len(a), len(b))
    return a[:shorter] == b[:shorter]


def follow_weight(
    matrix: Matrix01, required: Iterable[str], forbidden: Iterable[str], letter: str
) -> int:
    """1 when `letter` may follow every letter of `required` and none of
    `forbidden`, else 0 (a product of entries and complements)."""
    matrix.follows[letter]  # an unknown letter raises UnknownLetter
    return int(letter in follower_letters(matrix, required, forbidden))


def follower_letters(
    matrix: Matrix01, required: Iterable[str], forbidden: Iterable[str]
) -> frozenset[str]:
    """The letters that may follow every letter of `required` and none of
    `forbidden`: a meet of follower sets, less their union."""
    follows = matrix.follows
    meet = set(matrix.alphabet).intersection(*(follows[x] for x in required))
    return frozenset(meet.difference(*(follows[y] for y in forbidden)))


class GraphObstruction(Witness):
    """Entries (i,j)=1, (i2,j)=1, (i2,j2)=1 but (i,j2)=0: any source/range
    assignment would force s(i)=r(j2) and contradict the zero entry."""

    i: str
    j: str
    i2: str
    j2: str

    def chain(self) -> str:
        return (
            f"s({self.i})=r({self.j}) via A({self.i},{self.j})=1, "
            f"r({self.j})=s({self.i2}) via A({self.i2},{self.j})=1, "
            f"s({self.i2})=r({self.j2}) via A({self.i2},{self.j2})=1, "
            f"so A({self.i},{self.j2}) should be 1 but is 0"
        )


def graphable(matrix: Matrix01):
    """True when the matrix is the edge matrix of some graph, i.e. there
    are maps s, r into a vertex set with A(i,j)=1 iff s(i)=r(j).

    Decided by the block criterion (nonzero rows sharing a 1-column must be
    identical); otherwise returns the violating quadruple that comes first
    in alphabet order when compared in the order (i, j2, i2, j), which is
    not always the least in the order (i, j, i2, j2).  `graphable_oracle`
    searches for actual assignments and must agree.
    """
    letters, follows = matrix.alphabet, matrix.follows
    for i in letters:
        row = follows[i]
        for j2 in letters:
            if j2 in row:
                continue
            for i2 in (r for r in letters if j2 in follows[r]):
                for j in row:
                    if j in follows[i2]:
                        return GraphObstruction(i, j, i2, j2)
    return True


def graphable_oracle(matrix: Matrix01) -> bool:
    """Brute-force search over source assignments with ranges derived.

    Only the partition induced by s matters, so s ranges over functions
    into at most |G| vertex ids; fresh vertices for zero rows / columns are
    always available and need no search.
    """
    letters, follows = matrix.alphabet, matrix.follows
    # the i with A(i,j)=1 for each j, and the i with A(i,j)=0
    hits = {j: [i for i in letters if j in follows[i]] for j in letters}
    misses = {j: [i for i in letters if j not in follows[i]] for j in letters}
    n = len(letters)
    for assignment in iproduct(range(n), repeat=n):
        s = dict(zip(letters, assignment))
        for j in letters:
            # r(j) is s(i) for every hit i; with no hits r(j) gets a fresh
            # vertex, never equal to any s(i)
            targets = {s[i] for i in hits[j]}
            if len(targets) > 1 or any(s[i] in targets for i in misses[j]):
                break
        else:
            return True
    return False


def words_from(matrix: Matrix01, letter: str, max_len: int) -> list[tuple[str, ...]]:
    """Words of length <= max_len starting with the given letter."""
    return [w for w in enumerate_words(matrix, max_len) if w[0] == letter]


def enumerate_partitions(
    matrix: Matrix01, letter: str, max_len: int
) -> list[frozenset[tuple[str, ...]]]:
    """All partitions of the words starting with `letter` whose members
    have length <= max_len, via cuts of the extension tree: each node is
    either taken whole or replaced by the cuts of all its children."""
    matrix.follows[letter]  # an unknown letter raises UnknownLetter

    def cuts(word: tuple[str, ...]) -> list[frozenset[tuple[str, ...]]]:
        out = [frozenset([word])]
        if len(word) < max_len:
            children = [word + (b,) for b in matrix.follows[word[-1]]]
            if children:
                combos = [frozenset()]
                for child in children:
                    combos = [
                        acc | part for acc in combos for part in cuts(child)
                    ]
                out.extend(combos)
        return out

    return sorted(cuts((letter,)), key=lambda s: (len(s), sorted(s)))


class LemmaWitness(Witness):
    kind: str
    detail: tuple


def _is_partition_of_words(members, universe):
    """True, or why the admissible words `members` do not partition the
    admissible words `universe`: the first intersecting pair of members in
    sorted order, else the first universe word that meets no member.

    In sorted order a word precedes its extensions and every word between
    them, so the first member with an extension among the later members
    is followed by one: only neighbours need comparing."""
    members = sorted(members)
    for a, b in zip(members, members[1:]):
        if _nested(a, b):
            return LemmaWitness("intersecting-pair", (a, b))
    for w in universe:
        if not any(_nested(w, h) for h in members):
            return LemmaWitness("uncovered-word", (w,))
    return True


def _admissible_parts(matrix: Matrix01, partitions: Iterable[frozenset[tuple[str, ...]]]):
    """Each partition, once its words are admissible; InadmissibleWord names
    the first word of a partition, in sorted order, that is not."""
    for part in partitions:
        for w in sorted(part):
            if not matrix.admissible(w):
                raise InadmissibleWord(f"{tuple(w)} is not admissible")
        yield part


def first_letter_decomposition_check(
    matrix: Matrix01,
    letter: str,
    max_len: int,
    partitions: Iterable[frozenset[tuple[str, ...]]] | None = None,
):
    """Every partition of the words starting with `letter` either is the
    singleton {letter} or decomposes by second letter: the block of each
    continuation letter is nonempty and, stripped of the first letter, is
    again a partition one level down.  Returns True or the first failure.
    The words of caller-supplied partitions are checked admissible, each
    partition before it is decided; enumerated words are admissible.
    """
    continuations = matrix.follows[letter]
    if not continuations:
        raise SpringRow(f"row of {letter!r} is zero")
    if partitions is None:
        partitions = enumerate_partitions(matrix, letter, max_len)
    else:
        partitions = _admissible_parts(matrix, partitions)
    universe = words_from(matrix, letter, max_len)
    stripped_universe = {j: words_from(matrix, j, max_len - 1) for j in continuations}
    for part in partitions:
        verdict = _is_partition_of_words(part, universe)
        if verdict is not True:
            return verdict
        if part == frozenset([(letter,)]):
            continue
        if any(len(w) < 2 for w in part):
            return LemmaWitness("short-member", (min(part),))
        blocks = {j: {w for w in part if w[1] == j} for j in continuations}
        for j in continuations:
            if not blocks[j]:
                return LemmaWitness("missing-continuation", (j,))
        for j in continuations:
            stripped = frozenset(w[1:] for w in blocks[j])
            verdict = _is_partition_of_words(stripped, stripped_universe[j])
            if verdict is not True:
                return LemmaWitness("stripped-not-partition", (j, verdict))
    return True
