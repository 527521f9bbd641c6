import itertools
from fractions import Fraction

import pytest

from mastereq.graded import DegreeError, GradedVectorSpace, koszul_sign

HEIS3 = GradedVectorSpace([("x", 0), ("y", 0), ("z", 0)])


def test_shift_identity():
    assert HEIS3.shift(0) == HEIS3


def test_shift_moves_degrees():
    V = GradedVectorSpace([("x", 2)])
    assert V.shift(1).degree("x") == 1


def test_shift_round_trip():
    assert HEIS3.shift(3).shift(-3) == HEIS3


def test_koszul_identity_perm():
    assert koszul_sign([0, 1, 2], [1, 5, -2]) == 1


def test_koszul_swap_odd():
    assert koszul_sign([1, 0], [1, 1]) == -1


def test_koszul_three_cycle():
    # moving (x1,x2,x3) of degrees (1,1,2) to (x3,x1,x2): two adjacent swaps
    # each contributing (-1)^{1*2}
    assert koszul_sign([2, 0, 1], [1, 1, 2]) == 1


def _check_multiplicative(n, degree_vectors):
    perms = list(itertools.permutations(range(n)))
    for degs in degree_vectors:
        for sigma in perms:
            for tau in perms:
                composed = [tau[sigma[k]] for k in range(n)]
                tau_degs = [degs[tau[k]] for k in range(n)]
                lhs = koszul_sign(composed, list(degs))
                rhs = koszul_sign(list(sigma), tau_degs) * koszul_sign(list(tau), list(degs))
                assert lhs == rhs


def test_koszul_multiplicative_exhaustive_small():
    # lengths <= 3: every permutation pair, every degree vector in {-2..2}
    for n in range(1, 4):
        _check_multiplicative(n, itertools.product([-2, -1, 0, 1, 2], repeat=n))


def test_koszul_multiplicative_lengths_four_five():
    # signs only see parities, so {-1, 2} covers all degree behavior; length 4
    # is parity-exhaustive, length 5 covers the generating parity patterns
    _check_multiplicative(4, itertools.product([-1, 2], repeat=4))
    patterns5 = [(-1,) * 5, (2,) * 5, (-1, 2, -1, 2, -1), (1, 1, -2, 1, -2)]
    _check_multiplicative(5, patterns5)


def test_koszul_length_mismatch():
    with pytest.raises(ValueError):
        koszul_sign([0, 1], [1])


def test_map_table_rejects_float():
    with pytest.raises(TypeError):
        HEIS3.map_table({("x", "y"): 0.5}, 0)


def test_map_degree_checked():
    V = GradedVectorSpace([("a", 0), ("b", 2)])
    with pytest.raises(DegreeError, match="d entry 'a' -> 'b' has degree 2, not 1"):
        V.map_table({("a", "b"): 1}, 1, "d")
    with pytest.raises(KeyError):
        V.map_table({("a", "c"): 1}, 1)
    # zero entries are dropped before their degree is read
    assert V.map_table({("a", "b"): 0, ("b", "b"): Fraction(2, 2)}, 0) == {("b", "b"): 1}


def test_exact_rational_arithmetic_properties():
    import random
    rng = random.Random(11)
    for _ in range(50):
        a, b, c = (Fraction(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
