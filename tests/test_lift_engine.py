"""The m-adic lifting engine `series.lift_perturbative`, through both solvers.

Seeds come from the CLI samplers `_closed_mc_seed` and `_closed_qme_seed`.
A solved lift is checked on the exponential route, which the engine never
computes: D exp(S) = 0 on the dual of the ring for Maurer-Cartan, and
dhat e^{S/hbar} = 0 for the QME.  An obstructed lift is checked against the
residual of the partial lift and against the linear part: some order-k ring
monomial of the obstruction is outside its image.
"""

import functools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from mastereq import cli
from mastereq.artin import power_ring
from mastereq.bv import (
    BVAlgebra,
    bvinfty_qme_residual,
    qme_exp_check,
    qme_linear_part,
    qme_solve_perturbative,
)
from mastereq.constructions import ce_bv_from_dg_lie, ce_bvinfty_from_linfty
from mastereq.graded import ZERO
from mastereq.linalg import solve_linear
from mastereq.linfty import (
    coderivation_dg_lie,
    emce_residual,
    mc_linear_part,
    mc_solve_perturbative,
    quillen_bijection_check,
)
from mastereq.series import HbarSeries

from alg_fixtures import load

HBAR_CUTOFF = 3

# lift3 and the coderivation algebra of sl2 lift; obst2 and that of heis3 obstruct
MC_STRUCTURES = {
    "lift3": lambda: load("lift3").to_linfty(),
    "obst2": lambda: load("obst2").to_linfty(),
    "coder-sl2": lambda: coderivation_dg_lie(load("sl2"), 2)[0].to_linfty(),
    "coder-heis3": lambda: coderivation_dg_lie(load("heis3"), 3)[0].to_linfty(),
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


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(MC_STRUCTURES)), st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_mc_lift_solves_on_the_exp_route_or_is_obstructed(name, M, seed_value):
    gl = _mc(name)
    R = power_ring(M)
    seed = cli._closed_mc_seed(gl, R, random.Random(seed_value))
    result = mc_solve_perturbative(gl, R, seed)
    if result.status == "solved":
        assert result.element.ring_project(R, 1) == seed
        assert quillen_bijection_check(gl, R, result.element)["d_exp_zero"]
    else:
        _assert_obstruction(R, result, lambda S: emce_residual(gl, R, S), mc_linear_part(gl))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(QME_STRUCTURES)), st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_qme_lift_solves_on_the_exp_route_or_is_obstructed(name, M, seed_value):
    V = _qme(name)
    bvi = V.as_bvinfty(HBAR_CUTOFF) if isinstance(V, BVAlgebra) else V
    R = power_ring(M)
    seed = cli._closed_qme_seed(bvi, R, random.Random(seed_value))
    result = qme_solve_perturbative(V, R, seed, HBAR_CUTOFF)
    if result.status == "solved":
        assert result.element.ring_project(R, 1) == seed
        assert qme_exp_check(V, R, result.element, HBAR_CUTOFF)["exp_zero"]
    else:
        linear = qme_linear_part(bvi, lambda w: all(w in op.defined for op in bvi.operators.values()))
        _assert_obstruction(R, result, lambda S: bvinfty_qme_residual(bvi, R, S), linear)
