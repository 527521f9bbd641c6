"""The scalar rule: exact rationals, `int` when integral, `Fraction` otherwise.

`graded.as_scalar` is the one canonicaliser.  Every kernel result checked
here holds only `int` or `Fraction` coefficients, never a `float` or a
`bool`.  Where a routine canonicalises its output (every `HbarSeries`
operation, row reduction) a `Fraction` there has a denominator above 1.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mastereq.artin import power_ring
from mastereq.coalgebra import conv_exp, conv_log
from mastereq.graded import ONE, ZERO, GradedVectorSpace, as_scalar, koszul_sign
from mastereq.linalg import nullspace, rref, solve_linear
from mastereq.series import HbarSeries, SeriesContext
from mastereq.words import SymmetricWordAlgebra, TensorWordAlgebra

SPACE = GradedVectorSpace([("a", 0), ("b", 1), ("c", 2), ("e", -1)])
SCALARS = st.one_of(st.integers(-3, 3),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4))


def _assert_exact(values, canonical=False):
    for c in values:
        assert type(c) in (int, Fraction), repr(c)
        if canonical and type(c) is Fraction:
            assert c.denominator > 1, repr(c)


def test_as_scalar_is_int_exactly_when_integral():
    assert ZERO == 0 and ONE == 1 and type(ZERO) is int and type(ONE) is int
    for value in (0, -7, Fraction(6, 3), Fraction(-4, 1), "5", "10/5"):
        c = as_scalar(value)
        assert type(c) is int and c == Fraction(value)
    for value in (Fraction(1, 2), Fraction(-7, 3), "3/4"):
        c = as_scalar(value)
        assert type(c) is Fraction and c == Fraction(value)
    for bad in (0.5, 1.0, True, False):
        with pytest.raises(TypeError):
            as_scalar(bad)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.fractions(max_denominator=12))
def test_as_scalar_canonicalises_fractions(value):
    c = as_scalar(value)
    assert c == value
    assert (type(c) is int) == (value.denominator == 1)
    assert type(c) in (int, Fraction)


def test_rref_divides_exactly():
    reduced, pivots = rref([[2, 1]])
    assert reduced == [[1, Fraction(1, 2)]] and pivots == [0]
    assert [type(x) for x in reduced[0]] == [int, Fraction]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=5), st.data())
def test_signs_are_int(degrees, data):
    perm = data.draw(st.permutations(list(range(len(degrees)))))
    assert type(koszul_sign(perm, degrees)) is int
    A = SymmetricWordAlgebra(SPACE, 6)
    labels = data.draw(st.lists(st.sampled_from(SPACE.labels), max_size=6))
    word, sign = A.normalize(labels)
    assert type(sign) is int
    T = TensorWordAlgebra(SPACE, 4)
    w1, w2 = data.draw(st.lists(st.sampled_from(T.words), min_size=2, max_size=2))
    if len(w1) + len(w2) <= T.max_len:
        _assert_exact(T.mul_words(w1, w2).values(), canonical=True)
    _assert_exact([c for _, _, c in T.coproduct(w1)], canonical=True)


def _series(data, ring, words, ideal_only):
    labels = ring.ideal_labels if ideal_only else ring.labels
    keys = st.tuples(st.sampled_from(words), st.sampled_from(labels), st.integers(0, 1))
    return HbarSeries(data.draw(st.dictionaries(keys, SCALARS, max_size=4)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_series_products_and_exponentials_are_exact(data):
    A = SymmetricWordAlgebra(SPACE, 4)
    short = [w for w in A.words if len(w) <= 2]
    ring = power_ring(3)
    ctx = SeriesContext(A, ring, hbar_cutoff=3)
    s1, s2 = _series(data, ring, short, False), _series(data, ring, short, False)
    for s in (s1, s2):
        _assert_exact(s.terms.values(), canonical=True)
    _assert_exact(ctx.mul(s1, s2).terms.values(), canonical=True)
    S = _series(data, ring, short, True)
    E = SeriesContext(A, ring, hbar_cutoff=6).exp_over_hbar(S)
    _assert_exact(E.terms.values(), canonical=True)
    for c in (Fraction(1, 2), 2, -1):
        _assert_exact(S.scale(c).terms.values(), canonical=True)
    for total in (s1.add(s2), s1.add(s1)):  # doubling clears every denominator 2
        _assert_exact(total.terms.values(), canonical=True)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_a_cleared_series_is_an_int_numerator_over_the_least_denominator(data):
    A = SymmetricWordAlgebra(SPACE, 4)
    s = _series(data, power_ring(3), [w for w in A.words if len(w) <= 2], False)
    num, den = s.cleared()
    assert type(den) is int and den == math.lcm(1, *(Fraction(c).denominator for c in s.terms.values()))
    assert all(type(c) is int for c in num.terms.values())
    assert list(num.terms) == list(s.terms) and num.scale(Fraction(1, den)) == s


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_convolution_exp_and_log_are_exact(data):
    source = SymmetricWordAlgebra(GradedVectorSpace([("a", 0), ("b", 0)]), 3)
    target = SymmetricWordAlgebra(GradedVectorSpace([("u", 0), ("v", 0)]), 3)
    ctx = SeriesContext(target)
    letters = [w for w in target.words if len(w) == 1]
    f = {}
    for w in source.words:
        if w and data.draw(st.booleans()):
            terms = data.draw(st.dictionaries(st.sampled_from(letters), SCALARS, max_size=2))
            f[w] = HbarSeries({(u, "1", 0): c for u, c in terms.items()})
    F = conv_exp(source, ctx, f)
    for series in F.values():
        _assert_exact(series.terms.values(), canonical=True)
    log = conv_log(source, ctx, F)
    for series in log.values():
        _assert_exact(series.terms.values(), canonical=True)
    assert log == {w: s for w, s in f.items() if not s.is_zero()}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_row_reduction_on_int_rows_is_exact(n_rows, n_cols, data):
    entries = st.lists(st.integers(-4, 4), min_size=n_cols, max_size=n_cols)
    rows = data.draw(st.lists(entries, min_size=n_rows, max_size=n_rows))
    rhs = data.draw(st.lists(st.integers(-4, 4), min_size=n_rows, max_size=n_rows))
    reduced, _ = rref(rows)
    for row in reduced:
        _assert_exact(row, canonical=True)
    for vec in nullspace(rows):
        _assert_exact(vec, canonical=True)
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)
    sol = solve_linear(rows, rhs)
    if sol is not None:
        _assert_exact(sol, canonical=True)
        assert [sum(a * x for a, x in zip(row, sol)) for row in rows] == rhs
