import contextlib
import io
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mastereq import cli, multivectors
from mastereq.diagnostics import timed
from mastereq.bv import BVAlgebra, antibracket
from mastereq.cli import _unimodular_examples
from mastereq.coalgebra import Coderivation
from mastereq.diagnostics import PreconditionError
from mastereq.operators import Operator
from mastereq.multivectors import (
    Polyvector,
    polyvector_fields,
    schouten_direct,
    unimodular_poisson_check,
)


def vec(dim, terms):
    return Polyvector(dim, terms).vector


def bivector_heis3():
    # coadjoint Poisson structure of heis3: x3 xi1 xi2
    return Polyvector(3, {((0, 0, 1), 0b011): 1})


def test_product_signs():
    A = polyvector_fields(2).bv.algebra
    p = vec(2, {((0, 0), 0b01): 1})  # xi1
    q = vec(2, {((0, 0), 0b10): 1})  # xi2
    assert A.mul(p, q) == vec(2, {((0, 0), 0b11): 1})
    assert A.mul(q, p) == vec(2, {((0, 0), 0b11): -1})
    assert not A.mul(p, p)


def test_left_xi_derivative_signs():
    dxi = polyvector_fields(3).dxi
    w = vec(3, {((0, 0, 0), 0b111): 1})  # xi1 xi2 xi3
    assert dxi[0].apply(w) == vec(3, {((0, 0, 0), 0b110): 1})
    assert dxi[1].apply(w) == vec(3, {((0, 0, 0), 0b101): -1})
    assert dxi[2].apply(w) == vec(3, {((0, 0, 0), 0b011): 1})


def test_divergence_degree_budget():
    delta = polyvector_fields(2).bv.delta
    p = vec(2, {((3, 0), 0b01): 1})  # x1^3 xi1
    assert delta.apply(p) == {("x1", "x1"): Fraction(3)}
    with pytest.raises(PreconditionError):
        Polyvector(2, {((4, 0), 0): 1})


def test_a_product_leaving_the_window_names_it():
    # N = 3 + 2 = 5 in dimension 2; {S1, S0} = -3 x1^3 x2^2 xi1 has length 6
    S0 = Polyvector(2, {((3, 0), 0b11): 1})
    S1 = Polyvector(2, {((0, 3), 0): 1})
    with pytest.raises(PreconditionError, match="N = 5"):
        unimodular_poisson_check(S0, S1)
    F = polyvector_fields(3)
    big = vec(3, {((3, 0, 0), 0b111): 1})
    with pytest.raises(PreconditionError, match="N = 6"):
        schouten_direct(F, big, vec(3, {((0, 3, 0), 0): 1}))


def naive_divergence(dim, terms):
    """sum_i d/dx_i d/dxi_i on {(exponents, xi mask): coefficient}: the left
    d/dxi_i takes the sign of the xi's before xi_i, d/dx_i the exponent."""
    out = {}
    for (alpha, mask), c in terms.items():
        for i in range(dim):
            if mask >> i & 1 and alpha[i]:
                sign = -1 if bin(mask & ((1 << i) - 1)).count("1") % 2 else 1
                key = (tuple(a - (j == i) for j, a in enumerate(alpha)), mask ^ 1 << i)
                out[key] = out.get(key, 0) + sign * alpha[i] * c
    return vec(dim, out)


@st.composite
def polyvectors(draw, dim, xi_degree, poly_degree):
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        alpha = [0] * dim
        for _ in range(draw(st.integers(0, poly_degree))):
            alpha[draw(st.integers(0, dim - 1))] += 1
        mask = draw(st.sampled_from([m for m in range(1 << dim) if bin(m).count("1") == xi_degree]))
        terms[(tuple(alpha), mask)] = draw(st.integers(-3, 3))
    return terms


@st.composite
def bracket_pairs(draw):
    dim = draw(st.integers(1, 3))
    ka, kb = (draw(st.integers(0, dim)) for _ in range(2))
    # the antibracket forms a b, so the two lengths stay within N = 3 + dim
    pa = draw(st.integers(0, min(3, 3 + dim - ka - kb)))
    pb = min(3, 3 + dim - ka - kb - pa)
    return dim, draw(polyvectors(dim, ka, pa)), draw(polyvectors(dim, kb, pb))


@settings(max_examples=150, deadline=None)
@given(bracket_pairs())
def test_schouten_routes_agree_random(case):
    dim, ta, tb = case
    F = polyvector_fields(dim)
    a, b = vec(dim, ta), vec(dim, tb)
    assert schouten_direct(F, a, b) == antibracket(F.bv, a, b)
    assert F.bv.delta.apply(a) == naive_divergence(dim, ta)


def test_schouten_on_vector_fields_is_lie_bracket():
    # with this generating-operator convention, {X, Y} = -[X, Y]_Lie on
    # vector fields: [x1 d1, d1]_Lie = -d1, so {x1 xi1, xi1} = +xi1
    F = polyvector_fields(1)
    X = vec(1, {((1,), 0b1): 1})
    Y = vec(1, {((0,), 0b1): 1})
    got = schouten_direct(F, X, Y)
    assert got == vec(1, {((0,), 0b1): 1})
    assert got == antibracket(F.bv, X, Y)


def test_unimodular_trivial():
    z = Polyvector.zero(3)
    report = unimodular_poisson_check(z, z)
    assert report["ok"] and report["unimodular"]


def test_unimodular_constant_symplectic():
    S0 = Polyvector(2, {((0, 0), 0b11): 1})
    report = unimodular_poisson_check(S0, Polyvector.zero(2))
    assert report["ok"] and report["unimodular"]


def test_unimodular_heis3_coadjoint():
    report = unimodular_poisson_check(bivector_heis3(), Polyvector.zero(3))
    assert report["routes_agree"]
    assert report["unimodular"]


def test_non_unimodular_affine_structure():
    # x2 xi1 xi2 is Poisson but its modular vector field -xi1 cannot be
    # cancelled by any polynomial S1
    S0 = Polyvector(2, {((0, 1), 0b11): 1})
    report = unimodular_poisson_check(S0, Polyvector.zero(2))
    assert report["routes_agree"] and report["poisson"]
    assert not report["unimodular"]


def test_bad_shapes_rejected():
    with pytest.raises(PreconditionError):
        unimodular_poisson_check(Polyvector(2, {((0, 0), 0b01): 1}), Polyvector.zero(2))


def flipped_dx1(F):
    # d/dx_1 with the wrong sign: one term of the contraction route
    A = F.bv.algebra
    return F._replace(dx=(Coderivation(A, 0, {("x1",): {(): -1}}), *F.dx[1:]))


def flipped_delta_entry(F):
    # Delta(x1 xi1 xi2) = xi2 turned into -xi2: one entry of the deviation route
    A, delta = F.bv.algebra, F.bv.delta
    entries = dict(delta.entries)
    entries[("x1", "xi1", "xi2")] = {("xi2",): -1}
    bad = Operator(A, -1, entries, delta.defined, name="divergence")
    return F._replace(bv=BVAlgebra(A, F.bv.d, bad))


@pytest.mark.parametrize("corrupt", [flipped_dx1, flipped_delta_entry])
def test_a_corrupted_route_disagrees_on_the_nonzero_example(monkeypatch, corrupt):
    S0, S1, _ = _unimodular_examples()["nonpoisson-dim3"]
    assert unimodular_poisson_check(S0, S1)["routes_agree"]
    bad = corrupt(polyvector_fields(3))
    monkeypatch.setattr(multivectors, "polyvector_fields", lambda dim: bad)
    assert not unimodular_poisson_check(S0, S1)["routes_agree"]


def test_unimodular_rows_build_no_polyvector_fields(monkeypatch):
    # the one-time build of each dimension's algebra happens before the rows
    # are timed, so no row carries it
    polyvector_fields.cache_clear()
    misses = []

    def counted(check):
        before = polyvector_fields.cache_info().misses
        result = timed(check)
        misses.append(polyvector_fields.cache_info().misses - before)
        return result

    monkeypatch.setattr(cli, "timed", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["identity-check", "unimodular-poisson", "--format", "machine"]) == 0
    assert misses == [0] * len(_unimodular_examples())
    assert polyvector_fields.cache_info().misses == 2  # d = 2 and d = 3
