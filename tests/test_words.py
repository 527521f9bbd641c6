import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mastereq.graded import GradedVectorSpace, koszul_sign
from mastereq.words import SymmetricWordAlgebra, TensorWordAlgebra, TruncationOverflow, word_tuples_within

ODD3 = GradedVectorSpace([("x", 1), ("y", 1), ("z", 1)])
MIXED = GradedVectorSpace([("a", 0), ("b", 1), ("c", 2), ("e", -1)])


def sym(space=ODD3, n=4):
    return SymmetricWordAlgebra(space, n)


def test_normalize_sorts_and_signs():
    A = sym()
    word, sign = A.normalize(["y", "x"])
    assert word == ("x", "y")
    assert sign == -1  # two odd letters swapped


@given(degrees=st.lists(st.integers(-1, 2), min_size=1, max_size=4), data=st.data())
def test_normalize_sign_is_the_koszul_sign_of_its_sort(degrees, data):
    space = GradedVectorSpace((f"x{i}", d) for i, d in enumerate(degrees))
    A = SymmetricWordAlgebra(space, 6)
    labels = data.draw(st.lists(st.sampled_from(space.labels), max_size=6))
    # the normal form sorts stably by (degree, declaration index)
    order = sorted(range(len(labels)), key=lambda i: (space.degree(labels[i]), space.labels.index(labels[i])))
    word, sign = A.normalize(labels)
    if word is None:
        assert sign == 0
        assert any(a == b and space.degree(a) % 2 for a, b in itertools.combinations(labels, 2))
        return
    assert word == tuple(labels[i] for i in order)
    assert type(sign) is int
    assert sign == koszul_sign(order, [space.degree(x) for x in labels])


def test_normalize_repeated_odd_is_zero():
    A = sym()
    word, sign = A.normalize(["x", "x"])
    assert word is None and sign == 0


def test_normalize_idempotent():
    A = sym(MIXED)
    word, sign = A.normalize(["c", "b", "a", "e"])
    word2, sign2 = A.normalize(list(word))
    assert word2 == word and sign2 == 1


def test_word_degree_is_sum():
    A = sym(MIXED)
    w, _ = A.normalize(["a", "b", "c"])
    assert A.degree(w) == 3


def test_word_enumeration_excludes_odd_squares():
    A = sym()
    assert ("x", "x") not in A.words
    # three odd letters: lengths 0..3 give 1+3+3+1 words
    assert len(A.words) == 8


def _basis_oracle(A):
    """The normal forms by filtering `itertools.combinations_with_replacement`
    of the sorted letters for repeated odd letters, length by length."""
    letters = sorted(A.space.labels, key=A.space.sort_key.__getitem__)
    odd = {x for x in letters if A.space.degree(x) % 2}
    return [combo for n in range(A.max_len + 1)
            for combo in itertools.combinations_with_replacement(letters, n)
            if not any(a == b and a in odd for a, b in zip(combo, combo[1:]))]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(degrees=st.lists(st.integers(-3, 3), min_size=1, max_size=5), n=st.integers(1, 5))
def test_level_wise_basis_is_the_filtered_combinations(degrees, n):
    space = GradedVectorSpace((f"x{i}", d) for i, d in enumerate(degrees))
    A = SymmetricWordAlgebra(space, n)
    assert list(A.words) == _basis_oracle(A)
    assert all(A.degree(w) == sum(space.degree(x) for x in w) for w in A.words)
    assert all(w in A for w in A.words) and ("x0",) * (n + 1) not in A


def test_level_wise_basis_on_mixed_letters_and_every_length():
    for n in range(1, 6):
        A = SymmetricWordAlgebra(MIXED, n)
        assert list(A.words) == _basis_oracle(A)
        assert all(A.degree(w) == sum(MIXED.degree(x) for x in w) for w in A.words)
    T = TensorWordAlgebra(MIXED, 3)
    assert list(T.words) == [w for k in range(4) for w in itertools.product(MIXED.labels, repeat=k)]
    assert all(T.degree(w) == sum(MIXED.degree(x) for x in w) for w in T.words)


def test_coproduct_counit_word():
    A = sym()
    assert A.coproduct(()) == [((), (), 1)]


def test_coproduct_primitive():
    A = sym()
    terms = sorted(A.coproduct(("x",)))
    assert terms == [((), ("x",), 1), (("x",), (), 1)]


def test_coproduct_two_odd_letters():
    # Delta(xy) = xy(x)1 + x(x)y - y(x)x + 1(x)xy for odd x, y
    A = sym()
    got = {(l, r): c for l, r, c in A.coproduct(("x", "y"))}
    assert got == {
        (("x", "y"), ()): 1,
        ((), ("x", "y")): 1,
        (("x",), ("y",)): 1,
        (("y",), ("x",)): -1,
    }


def test_coproduct_counts_terms():
    A = sym(MIXED)
    for w in A.words:
        if len(w) <= 3:
            total = sum(abs(c) for _, _, c in A.coproduct(w))
            assert total == 2 ** len(w)


def test_coproduct_coassociative_and_cocommutative():
    A = sym(MIXED, 4)
    for w in A.words:
        # cocommutativity: flip with Koszul sign
        flipped = {}
        for l, r, c in A.coproduct(w):
            sign = -1 if (A.degree(l) * A.degree(r)) % 2 else 1
            flipped[(r, l)] = flipped.get((r, l), 0) + sign * c
        direct = {}
        for l, r, c in A.coproduct(w):
            direct[(l, r)] = direct.get((l, r), 0) + c
        assert {k: v for k, v in flipped.items() if v} == {k: v for k, v in direct.items() if v}
        # coassociativity
        left = {}
        for l, r, c in A.coproduct(w):
            for l2, r2, c2 in A.coproduct(l):
                key = (l2, r2, r)
                left[key] = left.get(key, 0) + c * c2
        right = {}
        for l, r, c in A.coproduct(w):
            for l2, r2, c2 in A.coproduct(r):
                key = (l, l2, r2)
                right[key] = right.get(key, 0) + c * c2
        assert {k: v for k, v in left.items() if v} == {k: v for k, v in right.items() if v}


def test_counit_axiom():
    A = sym(MIXED, 3)
    for w in A.words:
        left = {}
        for l, r, c in A.coproduct(w):
            if l == ():
                left[r] = left.get(r, 0) + c
        assert {k: v for k, v in left.items() if v} == {w: 1}


def test_product_overflow_flagged():
    A = sym(MIXED, 2)
    with pytest.raises(TruncationOverflow):
        A.mul_words(("a", "a"), ("a",))


def test_product_of_odd_repeats_vanishes_before_overflow():
    # (x·y)·(x) contains x twice: zero, never an overflow even at the cut
    A = sym(ODD3, 2)
    assert A.mul_words(("x", "y"), ("x",)) == {}


@settings(derandomize=True, max_examples=300)
@given(degrees=st.lists(st.integers(-1, 2), min_size=1, max_size=4), n=st.integers(2, 5),
       data=st.data())
def test_symmetric_product_merge_matches_normalize(degrees, n, data):
    # normalize sorts the concatenation from scratch: the oracle of the merge
    space = GradedVectorSpace((f"x{i}", d) for i, d in enumerate(degrees))
    A = SymmetricWordAlgebra(space, n)
    u = data.draw(st.sampled_from(A.words))  # words[0] is the unit
    v = data.draw(st.sampled_from(A.words))
    word, sign = A.normalize(list(u) + list(v))
    if word is not None and len(word) > n:
        with pytest.raises(TruncationOverflow):
            A.mul_words(u, v)
        return
    got = A.mul_words(u, v)
    assert got == ({} if word is None else {word: sign})
    assert all(type(c) is int for c in got.values())


@settings(derandomize=True, max_examples=60, deadline=None)
@given(degrees=st.lists(st.integers(-1, 2), min_size=1, max_size=4), n=st.integers(1, 5))
def test_one_letter_product_matches_normalize_on_every_word(degrees, n):
    # every letter times every basis word, the product the CE Delta builds:
    # the merge against sorting the concatenation, odd repeats ({}) and
    # overflows at N included
    space = GradedVectorSpace((f"x{i}", d) for i, d in enumerate(degrees))
    A = SymmetricWordAlgebra(space, n)
    for y in space.labels:
        for x in A.words:
            word, sign = A.normalize([y, *x])
            if word is not None and len(word) > n:
                with pytest.raises(TruncationOverflow):
                    A.mul_words((y,), x)
                continue
            got = A.mul_words((y,), x)
            assert got == ({} if word is None else {word: sign})
            assert all(type(c) is int for c in got.values())


def test_symmetric_product_graded_commutative():
    A = sym(MIXED, 4)
    for w1 in A.words:
        for w2 in A.words:
            if len(w1) + len(w2) > 4 or not w1 or not w2:
                continue
            ab = A.mul_words(w1, w2)
            ba = A.mul_words(w2, w1)
            sign = -1 if (A.degree(w1) * A.degree(w2)) % 2 else 1
            assert ab == {w: sign * c for w, c in ba.items()}


def test_tensor_shuffle_product():
    space = GradedVectorSpace([("u", 1), ("v", 1)])
    T = TensorWordAlgebra(space, 3)
    got = T.mul_words(("u",), ("v",))
    assert got == {("u", "v"): Fraction(1), ("v", "u"): Fraction(-1)}


def test_tensor_shuffle_associative_and_commutative():
    space = GradedVectorSpace([("u", 1), ("v", 0)])
    T = TensorWordAlgebra(space, 4)

    def mulv(v1, v2):
        return T.mul(v1, v2)

    words = [w for w in T.words if 0 < len(w) <= 2]
    for w1, w2 in itertools.product(words[:6], repeat=2):
        if len(w1) + len(w2) > 4:
            continue
        ab = T.mul_words(w1, w2)
        ba = T.mul_words(w2, w1)
        sign = -1 if (T.degree(w1) * T.degree(w2)) % 2 else 1
        assert ab == {w: sign * c for w, c in ba.items()}
    for w1 in words[:4]:
        for w2 in words[:4]:
            for w3 in words[:4]:
                if len(w1) + len(w2) + len(w3) > 4:
                    continue
                left = mulv(T.mul_words(w1, w2), {w3: Fraction(1)})
                right = mulv({w1: Fraction(1)}, T.mul_words(w2, w3))
                assert left == right


def _shuffle_oracle(T, w1, w2):
    """The shuffle product with each crossing's degree sum recomputed from scratch."""
    p, q = len(w1), len(w2)
    degs1 = [T.space.degree(x) for x in w1]
    degs2 = [T.space.degree(x) for x in w2]
    out = {}
    for positions in itertools.combinations(range(p + q), p):
        chosen = set(positions)
        word = []
        i = j = 0
        exp = 0
        for k in range(p + q):
            if k in chosen:
                word.append(w1[i])
                i += 1
            else:
                # this letter of w2 jumps over the remaining letters of w1
                exp += degs2[j] * sum(degs1[i:])
                word.append(w2[j])
                j += 1
        sign = 1 if exp % 2 == 0 else -1
        key = tuple(word)
        c = out.get(key, 0) + sign
        if c:
            out[key] = c
        else:
            out.pop(key, None)
    return out


@settings(derandomize=True, max_examples=200)
@given(degrees=st.lists(st.integers(-1, 2), min_size=1, max_size=3), n=st.integers(2, 4),
       data=st.data())
def test_tensor_shuffle_matches_oracle(degrees, n, data):
    space = GradedVectorSpace((f"x{i}", d) for i, d in enumerate(degrees))
    T = TensorWordAlgebra(space, n)
    u = data.draw(st.sampled_from(T.words))
    v = data.draw(st.sampled_from([w for w in T.words if len(u) + len(w) <= n]))
    assert list(T.mul_words(u, v).items()) == list(_shuffle_oracle(T, u, v).items())


def test_tensor_words_keep_order():
    space = GradedVectorSpace([("u", 1), ("v", 1)])
    T = TensorWordAlgebra(space, 3)
    assert ("u", "v") in T.words and ("v", "u") in T.words
    assert ("u", "u") in T.words  # repeats allowed in tensor words


@given(lengths=st.lists(st.integers(1, 4), max_size=7), n=st.integers(0, 4), budget=st.integers(-1, 9))
def test_word_tuples_within_is_filtered_combinations(lengths, n, budget):
    # word lengths in any order, not only sorted as in a word algebra
    words = [("w",) * (k - 1) + (str(i),) for i, k in enumerate(lengths)]
    naive = [vs for vs in itertools.combinations_with_replacement(words, n)
             if sum(len(v) for v in vs) <= budget]
    assert list(word_tuples_within(words, n, budget)) == naive


@settings(derandomize=True, max_examples=120, deadline=None)
@given(degrees=st.lists(st.integers(-1, 2), min_size=1, max_size=3), n=st.integers(1, 4),
       tensor=st.booleans(), data=st.data())
def test_first_letter_coproduct_is_the_position_subsets_holding_position_zero(degrees, n, tensor, data):
    # oracle: every subset S of positions with 0 in S, signed by the odd letters
    # of the rest that the letters of S jump over on their way to the front
    space = GradedVectorSpace((f"x{i}", d) for i, d in enumerate(degrees))
    A = (TensorWordAlgebra if tensor else SymmetricWordAlgebra)(space, n)
    w = data.draw(st.sampled_from(A.words[1:]))
    expected = {}
    for k in range(len(w)):
        for rest in itertools.combinations(range(1, len(w)), k):
            chosen = [i for i in range(len(w)) if i not in rest]
            jumps = sum(space.degree(w[i]) * space.degree(w[j]) for i in rest for j in chosen if i < j)
            key = (tuple(w[i] for i in chosen), tuple(w[i] for i in rest))
            expected[key] = expected.get(key, 0) + (-1) ** (jumps % 2)
    got = {(l, r): c for l, r, c in A.first_letter_coproduct(w)}
    assert got == {key: c for key, c in expected.items() if c}


def test_first_letter_coproduct_counts_positions_not_letters():
    # a repeated even letter: both positions give a⊗a, only one holds position 0
    A = sym(MIXED, 3)
    assert dict(((l, r), c) for l, r, c in A.coproduct(("a", "a"))) == {
        ((), ("a", "a")): 1, (("a",), ("a",)): 2, (("a", "a"), ()): 1}
    assert A.first_letter_coproduct(("a", "a")) == [(("a",), ("a",), 1), (("a", "a"), (), 1)]
