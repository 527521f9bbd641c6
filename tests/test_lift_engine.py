"""The m-adic lifting engine `series.lift_perturbative`, through both solvers.

Seeds come from the CLI samplers `_closed_mc_seed` and `_closed_qme_seed`.
A solved lift is checked on the exponential route, which the engine never
computes: D exp(S) = 0 on the dual of the ring for Maurer-Cartan, and
dhat e^{S/hbar} = 0 for the QME.  An obstructed lift is checked against the
residual of the partial lift and against the linear part: some order-k ring
monomial of the obstruction is outside its image.  The rings are k[t]/t^M and
two two-variable rings.

The engine computes each order k over the quotient R/m^{k+1}.  The property
test checks that shortcut against the residual over R, and a mutant quotient
that also drops the order-k labels must fail both the property and the lift.
"""

import contextlib
import functools
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mastereq import artin, cli, series
from mastereq.artin import power_ring
from mastereq.bv import (
    BVAlgebra,
    bvinfty_qme_residual,
    qme_exp_check,
    qme_linear_part,
    qme_solve_perturbative,
)
from mastereq.constructions import ce_bv_from_dg_lie, ce_bvinfty_from_linfty
from mastereq.diagnostics import StructureError
from mastereq.graded import ZERO
from mastereq.linalg import solve_linear
from mastereq.linfty import (
    coderivation_dg_lie,
    emce_residual,
    mc_linear_part,
    mc_solve_perturbative,
    quillen_bijection_check,
)
from mastereq.sampling import random_mc_element, random_qme_element
from mastereq.series import HbarSeries
from mastereq.words import TruncationOverflow

from alg_fixtures import FIXTURES, ROOT, load, monomial_ring

HBAR_CUTOFF = 3

RINGS = {
    **{f"t^{M}": functools.partial(power_ring, M) for M in range(2, 9)},
    # at k[s,t]/(s^2,t^3) order 2 runs over a proper quotient
    "(s,t)^3": lambda: monomial_ring("k[s,t]/(s,t)^3", lambda a, b: a + b < 3),
    "(s^2,t^3)": lambda: monomial_ring("k[s,t]/(s^2,t^3)", lambda a, b: a < 2 and b < 3),
}
LIFT_RINGS = ["t^2", "t^3", "t^4", "t^5", "(s,t)^3", "(s^2,t^3)"]
QUOTIENT_RINGS = sorted(set(RINGS) - {"t^2"})

# lift3 and the coderivation algebra of sl2 lift; obst2 and that of heis3 obstruct
MC_STRUCTURES = {
    "lift3": lambda: load("lift3"),
    "obst2": lambda: load("obst2"),
    "coder-sl2": lambda: coderivation_dg_lie(load("sl2"), 2)[0],
    "coder-heis3": lambda: coderivation_dg_lie(load("heis3"), 3)[0],
}
# the CE complexes of lift3 and obst2 lift and obstruct; sl2 and l3demo seeds already solve
QME_STRUCTURES = {
    "ce-lift3": lambda: ce_bv_from_dg_lie(load("lift3"), 4),
    "ce-obst2": lambda: ce_bv_from_dg_lie(load("obst2"), 4),
    "ce-sl2": lambda: ce_bv_from_dg_lie(load("sl2"), 4),
    "l3demo": lambda: ce_bvinfty_from_linfty(load("l3demo"), 4, HBAR_CUTOFF),
}


@functools.cache
def _mc(name):
    return MC_STRUCTURES[name]()


@functools.cache
def _qme(name):
    return QME_STRUCTURES[name]()


def _assert_obstruction(ring, result, residual, linear):
    k = result.obstruction_order
    rho = residual(result.partial)
    for j in range(1, k):
        assert rho.ring_project(ring, j).is_zero()
    assert rho.ring_project(ring, k) == result.obstruction != HbarSeries()
    _, equations, rows = linear
    terms = result.obstruction.terms
    assert any(solve_linear(rows, [-terms.get((a, r, h), ZERO) for a, h in equations]) is None
               for r in ring.ideal_labels if ring.order(r) == k)


def _check_mc_lift(name, R, seed_value):
    gl = _mc(name)
    seed = cli._closed_mc_seed(gl, R, random.Random(seed_value))
    result = mc_solve_perturbative(gl, R, seed)
    if result.status == "solved":
        assert result.element.ring_project(R, 1) == seed
        assert quillen_bijection_check(gl, R, result.element)["d_exp_zero"]
    else:
        _assert_obstruction(R, result, lambda S: emce_residual(gl, R, S), mc_linear_part(gl))


def _check_qme_lift(name, R, seed_value):
    V = _qme(name)
    bvi = V.as_bvinfty(HBAR_CUTOFF) if isinstance(V, BVAlgebra) else V
    seed = cli._closed_qme_seed(bvi, R, random.Random(seed_value))
    result = qme_solve_perturbative(V, R, seed, HBAR_CUTOFF)
    if result.status == "solved":
        assert result.element.ring_project(R, 1) == seed
        assert qme_exp_check(V, R, result.element, HBAR_CUTOFF)["exp_zero"]
    else:
        linear = qme_linear_part(bvi, lambda w: all(w in op.defined for op in bvi.operators.values()))
        _assert_obstruction(R, result, lambda S: bvinfty_qme_residual(bvi, R, S), linear)


@functools.cache
def _ring(name):
    return RINGS[name]()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(MC_STRUCTURES)), st.sampled_from(LIFT_RINGS),
       st.integers(0, 2**32 - 1))
def test_mc_lift_solves_on_the_exp_route_or_is_obstructed(name, ring, seed_value):
    _check_mc_lift(name, _ring(ring), seed_value)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(QME_STRUCTURES)), st.sampled_from(LIFT_RINGS),
       st.integers(0, 2**32 - 1))
def test_qme_lift_solves_on_the_exp_route_or_is_obstructed(name, ring, seed_value):
    _check_qme_lift(name, _ring(ring), seed_value)


# -- the quotient shortcut --------------------------------------------------------

# (algebra, word-length cap of the random QME element): a cap of 2 reaches
# nonzero residuals on the CE complexes, where the sampler's own cap of
# N // (M-1) mostly draws closed elements
RESIDUALS = {
    "qme ce-sl2": ("ce-sl2", 2),
    "qme ce-lift3": ("ce-lift3", 2),
    "qme ce-obst2": ("ce-obst2", 2),
    "mc lift3": ("lift3", None),
    "mc obst2": ("obst2", None),
}


def _restricted(S, ring):
    """The terms of S whose ring label `ring` has."""
    return HbarSeries({key: c for key, c in S.terms.items() if key[1] in ring.labels})


def _order_k_parts(kind, R, seed_value):
    """(order k, order-k residual over artin.quotient(R, k), the same part of
    the residual over R) for a random element S, k = 1 .. M-1; the quotient
    sees S without its terms of order above k.  An element whose residual
    over R leaves the word window gives no parts."""
    structure, cap = RESIDUALS[kind]
    rng = random.Random(seed_value)
    if kind.startswith("qme"):
        V = _qme(structure)
        bvi = V.as_bvinfty(HBAR_CUTOFF)
        S = random_qme_element(bvi, R, rng, word_len_cap=cap)

        def residual(ring, S):
            return bvinfty_qme_residual(bvi, ring, S)
    else:
        gl = _mc(structure)
        S = random_mc_element(gl, R, rng)

        def residual(ring, S):
            return emce_residual(gl, ring, S)
    try:
        full = residual(R, S)
    except TruncationOverflow:
        return []
    parts = []
    for k in range(1, R.nilpotency):
        Q = artin.quotient(R, k)
        parts.append((k, residual(Q, _restricted(S, Q)).ring_project(R, k), full.ring_project(R, k)))
    return parts


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(RESIDUALS)), st.sampled_from(QUOTIENT_RINGS), st.integers(0, 2**32 - 1))
def test_order_k_residual_over_the_quotient_is_that_over_the_ring(kind, ring, seed_value):
    for k, over_quotient, over_ring in _order_k_parts(kind, _ring(ring), seed_value):
        assert over_quotient == over_ring, k


QUOTIENT = artin.quotient  # the kernel's, taken before a test patches it


def _mutant_quotient(ring, k):
    """R/m^k in place of R/m^{k+1}: the order-k labels are dropped too."""
    return QUOTIENT(ring, k - 1)


def test_a_quotient_that_drops_order_k_fails_the_property_and_the_lift(monkeypatch):
    monkeypatch.setattr(artin, "quotient", _mutant_quotient)
    monkeypatch.setattr(series, "quotient", _mutant_quotient)
    # the property: every order with a nonzero residual over R disagrees
    for kind, ring, seed_value in [("qme ce-lift3", "t^4", 4), ("qme ce-sl2", "(s^2,t^3)", 2),
                                   ("mc obst2", "t^4", 1), ("mc lift3", "(s^2,t^3)", 4)]:
        parts = _order_k_parts(kind, _ring(ring), seed_value)
        nonzero = [(k, q, r) for k, q, r in parts if not r.is_zero()]
        assert nonzero and all(q != r for _, q, r in nonzero), (kind, ring)
    # the lift: order 2 reads as solved, and the exp route or the solver's own
    # validation over R rejects the result
    for check, name in [(_check_mc_lift, "lift3"), (_check_qme_lift, "ce-lift3")]:
        with pytest.raises((AssertionError, StructureError)):
            check(name, _ring("t^4"), 3)


# -- the one change of outcome ----------------------------------------------------

W_T2 = HbarSeries({(("w",), "t^2", 0): Fraction(1, 2)})


def test_quotient_route_reports_the_obstruction_the_ring_route_overflowed_on():
    # CE(obst2) at N = 4 over k[t]/t^6: the residual over R forms products of
    # order up to 5 and leaves the window, although its order-2 part, which
    # the lift needs, fits.  The quotient route returns the obstruction.
    V = _qme("ce-obst2")
    bvi = V.as_bvinfty(HBAR_CUTOFF)
    R = power_ring(6)
    seed = cli._closed_qme_seed(bvi, R, random.Random(1))
    result = qme_solve_perturbative(V, R, seed, HBAR_CUTOFF)
    assert (result.status, result.obstruction_order, result.obstruction) == ("obstructed", 2, W_T2)
    with pytest.raises(TruncationOverflow, match="lengths 1 and 4 exceeds truncation 4"):
        bvinfty_qme_residual(bvi, R, result.partial)
    Q = artin.quotient(R, 2)
    assert bvinfty_qme_residual(bvi, Q, result.partial).ring_project(R, 2) == W_T2


def test_solve_qme_cli_still_recomputes_the_obstruction_over_the_ring(tmp_path, monkeypatch):
    # the report's obstruction-consistent row recomputes over R, so the CLI
    # exits as it did when the solver computed over R
    R = power_ring(6)
    products = [{"inputs": [a, b], "outputs": [c] if c else [], "coeff": "1"}
                for (a, b), val in R.table.items() for c in (list(val) or [None])]
    ring_file = tmp_path / "ring-t6.alg"
    ring_file.write_text(json.dumps({
        "format_version": 1, "kind": "artin-ring", "name": R.name,
        "basis": [[x, 0] for x in R.labels], "structure": {"product": products}}))
    monkeypatch.chdir(ROOT)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["solve-qme", str(FIXTURES / "obst2.alg"), str(ring_file), "--seed", "1"])
    assert code == 1
    assert err.getvalue() == ("truncation overflow: product of words of lengths 1 and 4 "
                              "exceeds truncation 4\n")
