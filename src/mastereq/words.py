"""Truncated word algebras: the symmetric coalgebra S(V) and the tensor variant T(V).

Words are tuples of basis labels of an underlying graded space.  Symmetric
words are kept in a canonical normal form: factors sorted stably by
(degree, declaration index), with the Koszul sign of the sorting permutation
recorded; a repeated odd factor normalizes to zero.  `normalize` brings an
arbitrary label list into this form.  Tensor words keep their order.  Both
flavors are cut at a hard word length N; products that would overflow raise
`TruncationOverflow` instead of silently truncating.

The symmetric product merges the normal forms of its two factors, in time
linear in their lengths; the tensor product is the shuffle product.  The
coproduct is the unshuffle coproduct; one pass over the subsets of a word's
positions also gives its first-letter part, the unshuffles whose left factor
holds position 0.  The empty word is the unit and coaugmentation;
the counit is the coefficient of the empty word.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping, Sequence

from .diagnostics import PreconditionError
from .graded import ONE, ZERO, GradedVectorSpace, Scalar, koszul_sign

__all__ = [
    "Word",
    "TruncationOverflow",
    "WordAlgebra",
    "SymmetricWordAlgebra",
    "TensorWordAlgebra",
    "vec_add_into",
    "word_tuples_within",
    "normal_form",
]

Word = tuple[str, ...]


class TruncationOverflow(ArithmeticError):
    """A product left the word-length truncation window.

    Checks must not be asserted on inputs whose expansion overflows; callers
    either budget their inputs or surface this flag in reports.
    """

    def __init__(self, left: Word, right: Word, max_len: int):
        self.left = left
        self.right = right
        self.max_len = max_len
        super().__init__(
            f"product of words of lengths {len(left)} and {len(right)} "
            f"exceeds truncation {max_len}"
        )


# -- sparse-vector helper (dict word -> Scalar) -------------------------------

def vec_add_into(acc: dict, key, coeff: Scalar) -> None:
    c = acc.get(key, ZERO) + coeff
    if c:
        acc[key] = c
    else:
        acc.pop(key, None)


def word_tuples_within(words: Sequence[Word], n: int, budget: int) -> Iterator[tuple[Word, ...]]:
    """The tuples of `itertools.combinations_with_replacement(words, n)` of
    total length at most `budget`, in the same order.

    The order is guaranteed: lexicographic in the positions of `words`, so
    all tuples that share a prefix come one after another, and a prefix
    never returns once the listing has moved past it.
    `operators.operator_order_check` relies on this to build each prefix's
    commutator table once.

    Tuples are built index by index; a prefix is dropped as soon as even the
    shortest completion from the words left to it would exceed the budget,
    so the tuples over budget are never listed.
    """
    lengths = [len(w) for w in words]
    # shortest[i] = min(lengths[i:]), non-decreasing in i
    shortest = list(itertools.accumulate(reversed(lengths), min))[::-1]

    def extend(start: int, k: int, room: int, prefix: list[Word]) -> Iterator[tuple[Word, ...]]:
        if k == 0:
            yield tuple(prefix)
            return
        for i in range(start, len(words)):
            if k * shortest[i] > room:
                break
            if lengths[i] + (k - 1) * shortest[i] > room:
                continue
            prefix.append(words[i])
            yield from extend(i, k - 1, room - lengths[i], prefix)
            prefix.pop()

    if budget >= 0:
        yield from extend(0, n, budget, [])


def normal_form(space: GradedVectorSpace, labels: Sequence[str]) -> tuple[Word | None, int]:
    """Canonical form of an unordered word on `space`; (None, 0) if it collapses:
    the word sorted by `space.sort_key` and the Koszul sign of the sorting
    permutation, which only inversions of two odd factors flip.  No word basis
    is needed, so bracket tables are normalized without a window."""
    key = space.sort_key  # label -> (degree, declaration index)
    order = sorted(range(len(labels)), key=lambda i: key[labels[i]])
    odd = [i for i in order if key[labels[i]][0] % 2]
    # equal factors sort next to each other
    for i, j in zip(odd, odd[1:]):
        if labels[i] == labels[j]:
            return None, ZERO
    inversions = sum(1 for k, i in enumerate(odd) for j in odd[k + 1:] if i > j)
    return tuple(labels[i] for i in order), (-ONE if inversions % 2 else ONE)


class WordAlgebra:
    """Shared interface of the symmetric and tensor word algebras."""

    symmetric: bool

    def __init__(self, space: GradedVectorSpace, max_len: int):
        if max_len < 1:
            raise PreconditionError(
                f"word-length truncation N = {max_len} is below 1: the window holds no letter")
        self.space = space
        self.max_len = max_len
        self._sort_key = space.sort_key
        # listed by length, shortest first: the words of length <= L are a prefix
        self._degree: dict[Word, int] = self._basis()
        self.words: tuple[Word, ...] = tuple(self._degree)
        self._coproduct_cache: dict[Word, tuple[list, list]] = {}

    # -- basis ----------------------------------------------------------

    unit: Word = ()

    def __contains__(self, word: Word) -> bool:
        return word in self._degree

    def degree(self, word: Word) -> int:
        return self._degree[word]

    def length(self, word: Word) -> int:
        return len(word)

    def label(self, word: Word) -> str:
        if not word:
            return "1"
        return self._joiner.join(word)

    def word_of_label(self, label: str) -> Word:
        if label == "1":
            return ()
        return tuple(label.split(self._joiner))

    def augmentation_ideal_words(self) -> tuple[Word, ...]:
        return tuple(w for w in self.words if w)

    def generator_words(self) -> tuple[Word, ...]:
        """Words that generate the augmentation ideal under the product.

        Operator-order certificates test iterated commutators on tuples of
        these words only (see `operators.operator_order_check`).
        """
        raise NotImplementedError

    # -- multiplication ---------------------------------------------------

    def mul_words(self, w1: Word, w2: Word) -> dict[Word, Scalar]:
        raise NotImplementedError

    def mul(self, v1: Mapping[Word, Scalar], v2: Mapping[Word, Scalar]) -> dict[Word, Scalar]:
        out: dict[Word, Scalar] = {}
        for w1, c1 in v1.items():
            if not c1:
                continue
            for w2, c2 in v2.items():
                c = c1 * c2
                if not c:
                    continue
                for w, s in self.mul_words(w1, w2).items():
                    vec_add_into(out, w, s * c)
        return out

    # -- comultiplication -------------------------------------------------

    def coproduct(self, word: Word) -> list[tuple[Word, Word, Scalar]]:
        """Full coproduct of a basis word as a list of (left, right, coeff)."""
        cached = self._coproduct_cache.get(word)
        if cached is None:
            cached = self._coproduct_cache[word] = self._shuffle_coproduct(word)
        return cached[0]

    def first_letter_coproduct(self, word: Word) -> list[tuple[Word, Word, Scalar]]:
        """The part of the coproduct of a nonempty basis word whose left factor
        holds its first letter (position 0, not merely an equal letter): the
        blocks of that letter in the set partitions of the word's positions,
        as `coalgebra.conv_exp` takes them.
        """
        cached = self._coproduct_cache.get(word)
        if cached is None:
            cached = self._coproduct_cache[word] = self._shuffle_coproduct(word)
        return cached[1]

    def _shuffle_coproduct(self, word: Word) -> tuple[list, list]:
        """The unshuffle coproduct and its first-letter part, from one pass
        over the subsets of positions."""
        degs = [self.space.degree(x) for x in word]
        full: dict[tuple[Word, Word], Scalar] = {}
        first: dict[tuple[Word, Word], Scalar] = {}
        n = len(word)
        for mask in range(1 << n):
            chosen = [i for i in range(n) if mask >> i & 1]
            rest = [i for i in range(n) if not mask >> i & 1]
            key = (tuple(word[i] for i in chosen), tuple(word[i] for i in rest))
            # the sign of pulling the chosen positions to the front
            sign = koszul_sign(chosen + rest, degs)
            full[key] = full.get(key, ZERO) + sign
            if mask & 1:
                first[key] = first.get(key, ZERO) + sign
        return ([(l, r, c) for (l, r), c in full.items() if c],
                [(l, r, c) for (l, r), c in first.items() if c])

    def _basis(self) -> dict[Word, int]:
        """The basis words, shortest first, each with its degree."""
        raise NotImplementedError

    _joiner = "?"


class SymmetricWordAlgebra(WordAlgebra):
    """Symmetric words with Koszul normalization; concatenation product.

    Doubles as the truncated symmetric coalgebra S(V) (unshuffle coproduct)
    and as the free graded-commutative algebra on V, cut at length N.
    """

    symmetric = True
    _joiner = "·"  # middle dot

    def __init__(self, space: GradedVectorSpace, max_len: int):
        self._odd_letters = frozenset(x for x in space.labels if space.degree(x) % 2)
        super().__init__(space, max_len)

    def normalize(self, labels: Sequence[str]) -> tuple[Word | None, int]:
        """`normal_form` on this algebra's space."""
        return normal_form(self.space, labels)

    def _basis(self) -> dict[Word, int]:
        """The normal forms, level by level: a word of length n extends one
        of length n - 1 by a letter that sorts at or after its last letter,
        strictly after an odd one, and adds that letter's degree.  Each level
        lists its words in `itertools.combinations_with_replacement` order
        of the sorted letters."""
        letters = sorted(self.space.labels, key=self._sort_key.__getitem__)
        degrees = [self.space.degree(x) for x in letters]
        basis = {(): 0}
        # (word, degree, index of the first letter it may be extended by)
        level: list[tuple[Word, int, int]] = [((), 0, 0)]
        for _ in range(self.max_len):
            level = [(w + (letters[i],), d + degrees[i], i + degrees[i] % 2)
                     for w, d, start in level for i in range(start, len(letters))]
            basis.update((w, d) for w, d, _ in level)
        return basis

    def generator_words(self) -> tuple[Word, ...]:
        """The letters: the free graded-commutative algebra is generated by V."""
        return tuple(w for w in self.words if len(w) == 1)

    def mul_words(self, w1: Word, w2: Word) -> dict[Word, Scalar]:
        """The product of two basis words of this algebra, by merging them.

        Precondition: `w1` and `w2` are basis words, that is normal forms
        (sorted by `space.sort_key`, no odd letter twice); `normalize` handles
        arbitrary label lists.  One forward scan of `w2` puts each letter of
        `w1` after the letters of `w2` that sort below it; on a tie the
        letter of `w1` goes first, as in the stable sort of `normalize`.
        Each odd letter of `w1` crosses the odd letters of `w2` placed
        before it, and the sign is the parity of these crossings.  An odd
        letter in both factors makes the product zero; that is found before
        the length check, so a vanishing product never overflows.
        """
        if not w1:
            return {w2: ONE}
        if not w2:
            return {w1: ONE}
        key = self._sort_key
        odd = self._odd_letters
        merged: Word = ()
        n, k = len(w2), 0
        # odd letters of w2 placed so far
        odd_before = crossings = 0
        for x in w1:
            kx = key[x]
            start = k
            while k < n and key[w2[k]] < kx:
                odd_before += w2[k] in odd
                k += 1
            if x in odd:
                # the tie puts x first, so an odd x in w2 comes right after it
                if k < n and w2[k] == x:
                    return {}
                crossings += odd_before
            merged += w2[start:k] + (x,)
        if len(w1) + n > self.max_len:
            raise TruncationOverflow(w1, w2, self.max_len)
        return {merged + w2[k:]: -ONE if crossings % 2 else ONE}


class TensorWordAlgebra(WordAlgebra):
    """Ordered tensor words with the shuffle product.

    Order is preserved (no normal form); the shuffle product interleaves the
    two factors with Koszul signs, which is graded-commutative and
    associative, so the same operator-order and QME machinery applies.
    """

    symmetric = False
    _joiner = "⊗"  # tensor sign

    def _basis(self) -> dict[Word, int]:
        letters = self.space.labels
        return {w: sum(map(self.space.degree, w))
                for n in range(self.max_len + 1) for w in itertools.product(letters, repeat=n)}

    def generator_words(self) -> tuple[Word, ...]:
        """Every word of the augmentation ideal.

        The letters do not generate the shuffle algebra: it is free
        commutative on the Lyndon words, so a⊗b is a generator of its own
        (a ш b = a⊗b + b⊗a reaches only the symmetric part).  The set of all
        words contains the Lyndon words, so it generates as well.
        """
        return self.augmentation_ideal_words()

    def mul_words(self, w1: Word, w2: Word) -> dict[Word, Scalar]:
        p, q = len(w1), len(w2)
        if p + q > self.max_len:
            raise TruncationOverflow(w1, w2, self.max_len)
        degs2 = [self.space.degree(x) for x in w2]
        # tail[i]: total degree of w1[i:], the letters a w2 letter taken at i jumps over
        tail = list(itertools.accumulate((self.space.degree(x) for x in reversed(w1)),
                                         initial=0))[::-1]
        out: dict[Word, Scalar] = {}
        for positions in itertools.combinations(range(p + q), p):
            chosen = set(positions)
            word: list[str] = []
            i = j = 0
            exp = 0
            for k in range(p + q):
                if k in chosen:
                    word.append(w1[i])
                    i += 1
                else:
                    exp += degs2[j] * tail[i]
                    word.append(w2[j])
                    j += 1
            sign = ONE if exp % 2 == 0 else -ONE
            vec_add_into(out, tuple(word), sign)
        return out
