import functools
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mastereq import bv as bv_module
from mastereq import linfty
from mastereq.artin import power_ring
from mastereq.bv import (
    BVAlgebra,
    BVInftyAlgebra,
    _shared_derived_brackets,
    _commutator_chain,
    _validate_qme_element,
    antibracket,
    bvinfty_qme_residual,
    conjugation_identity_check,
    derived_bracket,
    derived_brackets_linfty_check,
    qme_exp_check,
    qme_residual,
    qme_solve_perturbative,
)
from mastereq.cli import _closed_qme_seed
from mastereq.constructions import bv_from_bi_dg_lie, ce_bv_from_dg_lie, ce_bvinfty_from_linfty, qm_bidg_residual, corollary_bidg_check
from mastereq.diagnostics import CheckResult, InternalError, PreconditionError, StructureError
from mastereq.graded import GradedVectorSpace
from mastereq.linfty import DgLieAlgebra, mc_solve_perturbative
from mastereq.operators import Operator, iterated_commutator_apply, operator_order_check
from mastereq.sampling import random_qme_element
from mastereq.series import HbarSeries, SeriesContext, SolveResult
from mastereq.words import SymmetricWordAlgebra, TruncationOverflow, word_tuples_within

from alg_fixtures import load


def ce(name, n=4):
    return ce_bv_from_dg_lie(load(name), n)


def test_order_check_derivation():
    bv = ce("bidg4-dglie", 4)
    assert operator_order_check(bv.algebra, bv.d, 1).ok


def test_order_check_multiplication_operator():
    # L_a is order <= 0 under graded commutators: graded-commutative algebras
    # make [L_a, L_b] vanish identically
    bv = ce("heis3", 4)
    A = bv.algebra

    def mult_by_x(w):
        return A.mul_words(("x",), w)

    L = Operator.from_function(A, 1, mult_by_x, name="L_x")
    assert operator_order_check(A, L, 0).ok
    assert operator_order_check(A, L, 1).ok


def test_order_witness_for_ce_delta():
    bv = ce("heis3", 4)
    low = operator_order_check(bv.algebra, bv.delta, 1)
    assert not low.ok
    assert set(low.witness["test_vectors"]) == {"x", "y"}


def test_antibracket_zero_delta():
    bv = ce("abelian2", 4)
    for w1 in bv.algebra.words:
        for w2 in bv.algebra.words:
            if len(w1) + len(w2) <= 4:
                assert antibracket(bv, w1, w2) == {}


def test_antibracket_unit_degenerates():
    bv = ce("sl2", 4)
    for w in bv.algebra.words:
        assert antibracket(bv, (), w) == {}
        assert antibracket(bv, w, ()) == {}


def test_antibracket_graded_jacobi_and_leibniz():
    # shifted-degree antisymmetry and the Leibniz deviation on word triples
    bv = ce("sl2", 4)
    A = bv.algebra
    singles = [w for w in A.words if len(w) == 1]
    for a in singles:
        for b in singles:
            ab = antibracket(bv, a, b)
            ba = antibracket(bv, b, a)
            sign = -1 if ((A.degree(a) - 1) * (A.degree(b) - 1)) % 2 else 1
            assert ab == {w: -sign * c for w, c in ba.items()}
    # biderivation property of the antibracket on length-1 times length-2
    for a in singles:
        for b in singles:
            for c in singles:
                bc = A.mul_words(b, c)
                lhs = {}
                for w, coeff in bc.items():
                    for u, v in antibracket(bv, a, w).items():
                        lhs[u] = lhs.get(u, 0) + coeff * v
                rhs = {}
                for u, v in A.mul(antibracket(bv, a, b), {c: Fraction(1)}).items():
                    rhs[u] = rhs.get(u, 0) + v
                sgn = -1 if ((A.degree(a) - 1) * A.degree(b)) % 2 else 1
                for u, v in A.mul({b: Fraction(1)}, antibracket(bv, a, c)).items():
                    rhs[u] = rhs.get(u, 0) + sgn * v
                diff = dict(lhs)
                for u, v in rhs.items():
                    diff[u] = diff.get(u, 0) - v
                assert not any(diff.values()), (a, b, c)


def test_antibracket_equals_iterated_commutator_form():
    # the two displayed forms agree: {a,b} = (-1)^{|a|} [[Delta, L_a], L_b](1),
    # including on a fixture where d and Delta are both nonzero
    bv, _ = bv_from_bi_dg_lie(load("bidg4"), 4)
    A = bv.algebra
    words = [w for w in A.words if 0 < len(w) <= 2]
    for a in words[:8]:
        for b in words[:8]:
            if len(a) + len(b) > 3:
                continue
            commutator = iterated_commutator_apply(A, bv.delta, [a, b], ())
            sign = -1 if A.degree(a) % 2 else 1
            expect = {w: sign * c for w, c in commutator.items() if c}
            got = {w: c for w, c in antibracket(bv, a, b).items() if c}
            assert got == expect, (a, b)


def test_zero_morphism_on_bar_sources():
    # the zero morphism of the bar construction's tensor words intertwines
    # because the augmentation kills both operators
    from mastereq.constructions import bar_bv_from_associative
    from mastereq.morphisms import BVMorphism, check_bv_morphism
    bv = bar_bv_from_associative(load("dual-numbers"), 3)
    V = bv.as_bvinfty(3)
    phi = BVMorphism(V, V, {}, name="0")
    assert check_bv_morphism(phi)["ok"]


def test_antibracket_shifted_jacobi_on_word_triples():
    # {a,{b,c}} = {{a,b},c} + (-1)^{|a|'|b|'} {b,{a,c}} with |.|' = deg - 1,
    # over all word triples of total length <= 4
    bv = ce("sl2", 4)
    A = bv.algebra
    words = [w for w in A.words if w]
    for a in words:
        for b in words:
            for c in words:
                if len(a) + len(b) + len(c) > 4:
                    continue
                lhs = {}
                for w, coeff in antibracket(bv, b, c).items():
                    for u, v in antibracket(bv, a, w).items():
                        lhs[u] = lhs.get(u, 0) + coeff * v
                rhs = {}
                for w, coeff in antibracket(bv, a, b).items():
                    for u, v in antibracket(bv, w, c).items():
                        rhs[u] = rhs.get(u, 0) + coeff * v
                sign = -1 if ((A.degree(a) - 1) * (A.degree(b) - 1)) % 2 else 1
                for w, coeff in antibracket(bv, a, c).items():
                    for u, v in antibracket(bv, b, w).items():
                        rhs[u] = rhs.get(u, 0) + sign * coeff * v
                diff = dict(lhs)
                for u, v in rhs.items():
                    diff[u] = diff.get(u, 0) - v
                assert not any(diff.values()), (a, b, c)


def test_derived_bracket_derivation_only():
    # dhat with only Delta_1 = d: all brackets of arity >= 2 vanish
    bvi = ce_bvinfty_from_linfty(load("bidg4-dglie"), 4)
    only_d = type(bvi)(bvi.algebra, {1: bvi.operators[1]}, 3, name="d-only")
    singles = [w for w in bvi.algebra.words if len(w) == 1]
    for a in singles[:3]:
        for b in singles[:3]:
            assert derived_bracket(only_d, [a, b]).is_zero()


def test_derived_bracket_matches_antibracket_up_to_sign():
    bv = ce("sl2", 4)
    bvi = bv.as_bvinfty(3)
    singles = [w for w in bv.algebra.words if len(w) == 1]
    for a in singles:
        for b in singles:
            got = derived_bracket(bvi, [a, b])
            expect = antibracket(bv, a, b)
            sign = -1 if bv.algebra.degree(a) % 2 else 1
            assert got == HbarSeries({(w, "1", 0): sign * c for w, c in expect.items()}), (a, b)


def test_derived_bracket_arity3_matches_commutator_oracle():
    bvi = ce_bvinfty_from_linfty(load("l3demo"), 4)
    A = bvi.algebra
    vs = [("x1",), ("x2",), ("x3",)]
    got = derived_bracket(bvi, vs)
    # independent oracle: word-level iterated commutators, one operator at a time
    expect = HbarSeries()
    for n, op in bvi.operators.items():
        val = iterated_commutator_apply(A, op, vs, ())
        shift = (n - 1) - (len(vs) - 1)
        expect = expect.add(HbarSeries({(w, "1", shift): c for w, c in val.items()}))
    assert got == expect
    assert not got.is_zero()


def test_derived_brackets_linfty_check_fixtures():
    for name in ("heis3", "sl2", "aff2", "bidg4-dglie"):
        bvi = ce_bvinfty_from_linfty(load(name), 4)
        assert derived_brackets_linfty_check(bvi).ok, name
    bvi = ce_bvinfty_from_linfty(load("l3demo"), 4)
    assert derived_brackets_linfty_check(bvi).ok


@pytest.mark.parametrize("N", [4, 5])
def test_derived_bracket_tuples_match_filtered_combinations(N):
    # the budgeted generator against the definition it replaces: every tuple
    # of augmentation-ideal words up to arity 4, filtered by total length
    bvi = ce_bvinfty_from_linfty(load("l3demo"), N)
    budget = N - max(op.max_raise for op in bvi.operators.values())
    letters = [w for w in bvi.algebra.augmentation_ideal_words() if len(w) <= budget]
    for n in range(1, 5):
        naive = [vs for vs in itertools.combinations_with_replacement(letters, n)
                 if sum(len(v) for v in vs) <= budget]
        assert list(word_tuples_within(letters, n, budget)) == naive, n
    tuples = derived_brackets_linfty_check(bvi).bound["tuples"]
    assert tuples == {4: 250, 5: 678}[N]


def test_derived_brackets_corrupted_delta_detected():
    space = GradedVectorSpace([("x", 0), ("y", 0), ("z", 0)])
    bad = DgLieAlgebra(space, {}, {("x", "y"): {"z": 1}, ("x", "z"): {"x": 1}},
                       name="bad", validate=False)
    bvi = ce_bvinfty_from_linfty(bad, 4)
    result = derived_brackets_linfty_check(bvi)
    assert not result.ok
    assert result.witness is not None


def _random_operators(A, rng):
    """Delta_1..Delta_3 with random sparse entries, orders unchecked: a
    Delta_n of too high an order gives brackets negative hbar powers."""
    ops = {}
    for n in (1, 2, 3):
        entries = {}
        for w in A.words:
            if rng.random() < 0.3:
                entries[w] = {u: rng.choice([-2, -1, 1, 2]) for u in rng.sample(A.words, 2)
                              if len(u) <= len(w)}
        ops[n] = Operator(A, 3 - 2 * n, entries)
    return ops


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.sampled_from(["heis3", "lift3", "l3demo", "aff2"]), st.integers(0, 10**6))
def test_shared_derived_brackets_match_the_definition(name, seed):
    # every tuple, in the order the check passes them, against derived_bracket
    A = ce_bvinfty_from_linfty(load(name), 3).algebra
    rng = random.Random(seed)
    bvi = BVInftyAlgebra(A, _random_operators(A, rng), rng.choice([1, 2, 3]))
    letters = A.augmentation_ideal_words()
    for n in (1, 2, 3):
        bracket = _shared_derived_brackets(bvi, n)
        for vs in word_tuples_within(letters, n, A.max_len):
            value = HbarSeries(bracket(vs)).shift_hbar(-(n - 1))
            low = value.min_hbar()
            if low is not None and low < 0:
                with pytest.raises(StructureError) as err:
                    derived_bracket(bvi, list(vs))
                assert err.value.witness["min_power"] == low
            else:
                assert derived_bracket(bvi, list(vs)) == bvi.context().truncate(value), vs


def _order_three_delta2():
    # Delta_2 sends the one length-3 word to 1 and kills the rest: dhat^2 = 0,
    # but {x,y,z} = hbar^{-1} Delta_2(xyz) has a negative power
    A = ce_bvinfty_from_linfty(load("heis3"), 3).algebra
    top = next(w for w in A.words if len(w) == 3)
    return BVInftyAlgebra(A, {2: Operator(A, -1, {top: {(): 1}})}, 3, name="order3")


def test_derived_brackets_report_a_negative_power_the_definition_reproduces():
    bvi = _order_three_delta2()
    result = derived_brackets_linfty_check(bvi)
    assert not result.ok
    assert result.witness == {"words": ["x", "y", "z"], "min_power": -1}


def test_derived_brackets_disagreeing_tables_raise(monkeypatch):
    # the definition no longer reproduces the tables' negative power
    monkeypatch.setattr(bv_module, "derived_bracket", lambda bvi, words: HbarSeries())
    with pytest.raises(InternalError):
        derived_brackets_linfty_check(_order_three_delta2())


def test_qme_residual_zero():
    bv = ce("heis3", 4)
    R = power_ring(3)
    assert qme_residual(bv, R, HbarSeries()).is_zero()


def test_qme_residual_frozen_value():
    # S = (x·y)(x)t + hbar.1(x)t over CE(heis3), k[t]/t^3:
    # dS = 0, hbar Delta S = -hbar z t, {S,S}/2 = (x·y·z) t^2
    bv = ce("heis3", 4)
    R = power_ring(3)
    S = HbarSeries({(("x", "y"), "t", 0): 1, ((), "t", 1): 1})
    res = qme_residual(bv, R, S, 3)
    assert res == HbarSeries({(("z",), "t", 1): -1, (("x", "y", "z"), "t^2", 0): 1})


def test_qme_residual_requires_degree_two():
    bv = ce("heis3", 4)
    R = power_ring(3)
    with pytest.raises(PreconditionError):
        qme_residual(bv, R, HbarSeries({(("x",), "t", 0): 1}), 3)


def test_qme_classical_reduction():
    # Delta S = 0 and S classical: residual reduces to the classical one
    bv = ce("lift3", 4)
    R = power_ring(3)
    # lift3 letters in g[-1]: x,u degree 2, w degree 3; classical MC part:
    # S = x(x)t has Delta S = 0 (no pair), residual = {S,S}/2 + dS
    S = HbarSeries({(("x",), "t", 0): 1})
    res = qme_residual(bv, R, S, 3)
    from mastereq.linfty import emce_residual
    classical = emce_residual(load("lift3"), R, HbarSeries({("x", "t", 0): 1}))
    assert res == HbarSeries({((w,), r, h): c for (w, r, h), c in classical.terms.items()})


def test_bvinfty_residual_agrees_with_dg_bv():
    bv = ce("sl2", 4)
    R = power_ring(3)
    rng = random.Random(31)
    for _ in range(10):
        S = random_qme_element(bv, R, rng)
        assert qme_residual(bv, R, S, 3) == bvinfty_qme_residual(bv.as_bvinfty(3), R, S)


def _fraction_chain(bvi, ctx, args, degs, x):
    """[...[dhat, L_{args[0]}], ..., L_{args[-1]}](x) by the 2^j recursion over
    the rationals, with no denominators cleared: the unshared definition that
    `bv._commutator_chain` is checked against."""

    def prefix(j, y):
        if j < 0:
            return bvi.dhat(y, ctx)
        v = args[j]
        outer = prefix(j - 1, ctx.mul(v, y))
        inner = ctx.mul(v, prefix(j - 1, y))
        return outer.add(inner) if degs[j] % 2 and not sum(degs[:j]) % 2 else outer.sub(inner)

    return prefix(len(args) - 1, x)


def _residual_through_nilpotency(bvi, ring, S):
    """The QME residual with the K_j(1) sum run through j = M, the
    nilpotency order, K_M(1) included."""
    _validate_qme_element(bvi, ring, S)
    ctx = SeriesContext(bvi.algebra, ring, bvi.hbar_cutoff + ring.nilpotency)
    out = HbarSeries()
    for j in range(1, ring.nilpotency + 1):
        val = _fraction_chain(bvi, ctx, [S] * j, [2] * j, ctx.unit())
        if val.is_zero():
            continue
        out = out.add(val.shift_hbar(-(j - 1)).scale(Fraction(1, math.factorial(j))))
    return bvi.context(ring).truncate(out)


_ORACLE_ALGEBRAS = {
    "ce-sl2": lambda: ce("sl2", 4).as_bvinfty(3),
    "l3demo": lambda: ce_bvinfty_from_linfty(load("l3demo"), 4),
}


def _outcome(f, *args):
    try:
        return f(*args), None
    except Exception as exc:  # compared by type against the oracle
        return None, type(exc)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_ORACLE_ALGEBRAS)), st.integers(2, 5),
       st.one_of(st.none(), st.integers(1, 4)), st.integers(0, 2**32 - 1))
def test_residual_stops_at_nilpotency_minus_one(name, M, word_len_cap, seed):
    # caps above the sampler's default reach TruncationOverflow draws
    bvi = _ORACLE_ALGEBRAS[name]()
    R = power_ring(M)
    S = random_qme_element(bvi, R, random.Random(seed), word_len_cap=word_len_cap)
    got, got_exc = _outcome(bvinfty_qme_residual, bvi, R, S)
    want, want_exc = _outcome(_residual_through_nilpotency, bvi, R, S)
    assert (got, got_exc) == (want, want_exc)
    if want_exc is None:
        ctx = SeriesContext(bvi.algebra, R, bvi.hbar_cutoff + M)
        assert _fraction_chain(bvi, ctx, [S] * M, [2] * M, ctx.unit()).is_zero()


_CHAIN_DENOMINATORS = (1, 2, 3, 4, 6)


_CHAIN_ALGEBRAS = {
    "ce-lift3": lambda: ce("lift3", 5).as_bvinfty(3),
    "ce-sl2": lambda: ce("sl2", 4).as_bvinfty(3),
    "l3demo": lambda: ce_bvinfty_from_linfty(load("l3demo"), 4),
}


@functools.cache
def _chain_algebra(name):
    return _CHAIN_ALGEBRAS[name]()


def _rational_series(keys, rng):
    """Up to three of `keys`, each with a nonzero rational coefficient whose
    denominator is drawn from _CHAIN_DENOMINATORS."""
    return HbarSeries({key: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice(_CHAIN_DENOMINATORS))
                       for key in rng.sample(keys, min(3, len(keys)))})


def _chain_outcome(chain, *args):
    try:
        return chain(*args), None
    except Exception as exc:  # compared by type and message against the oracle
        return None, (type(exc), str(exc))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_CHAIN_ALGEBRAS)), st.integers(2, 5), st.data(),
       st.booleans(), st.booleans(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_the_integer_chain_equals_the_fraction_chain(name, M, data, distinct, rational_x, word_len_cap, seed):
    # K_j (one S repeated j times) or j distinct even arguments, each with its
    # own denominators, on non-unit words up to the cap (longer caps reach
    # TruncationOverflow); x is 1 or a series with Fraction coefficients
    j = data.draw(st.integers(1, M - 1))
    bvi = _chain_algebra(name)
    A = bvi.algebra
    R = power_ring(M)
    rng = random.Random(seed)
    ctx = SeriesContext(A, R, bvi.hbar_cutoff + M)
    even = [(w, r, h) for w in A.words if 0 < len(w) <= word_len_cap for r in R.ideal_labels
            for h in range(bvi.hbar_cutoff) if A.degree(w) + 2 * h == 2]
    args = [_rational_series(even, rng) for _ in range(j)] if distinct else [_rational_series(even, rng)] * j
    x = ctx.unit()
    if rational_x:
        x = _rational_series([(w, r, h) for w in A.words if len(w) <= 2
                              for r in R.labels for h in range(bvi.hbar_cutoff)], rng)
    got = _chain_outcome(_commutator_chain, bvi, ctx, args, [2] * j, x)
    assert got == _chain_outcome(_fraction_chain, bvi, ctx, args, [2] * j, x)


def test_k_j_runs_on_int_coefficients_only(monkeypatch):
    # every argument and every x the K_j recursion receives is an int series,
    # also for a half-integer S and the rational lifts of the solver
    bv = ce("lift3", 5)
    bvi = bv.as_bvinfty(3)
    R = power_ring(5)
    seen = []
    recursion = bv_module._commutator_prefix

    def spy(bvi, ctx, args, degs, j, x):
        seen.append(all(type(c) is int for s in (*args, x) for c in s.terms.values()))
        return recursion(bvi, ctx, args, degs, j, x)

    monkeypatch.setattr(bv_module, "_commutator_prefix", spy)
    S = random_qme_element(bv, R, random.Random(1)).scale(Fraction(1, 2))
    seed = _closed_qme_seed(bvi, R, random.Random(1)).scale(Fraction(1, 2))
    assert any(type(c) is Fraction for c in S.terms.values())
    assert any(type(c) is Fraction for c in seed.terms.values())
    for call in (lambda: bvinfty_qme_residual(bvi, R, S).is_zero() is False,
                 lambda: conjugation_identity_check(bv, R, S).ok,
                 lambda: qme_solve_perturbative(bv, R, seed).status == "solved"):
        seen.clear()
        assert call()
        assert seen and all(seen)


def test_qme_exp_check_equivalence_battery():
    rng = random.Random(101)
    R = power_ring(3)
    for name in ("heis3", "sl2", "aff2", "abelian2"):
        bv = ce(name, 4)
        solutions = 0
        for _ in range(20):
            S = random_qme_element(bv, R, rng)
            report = qme_exp_check(bv, R, S)
            assert report["ok"], (name, report)
            solutions += report["exp_zero"]
        assert solutions >= 0


def test_qme_exp_check_zero_solution():
    bv = ce("heis3", 4)
    report = qme_exp_check(bv, power_ring(3), HbarSeries())
    assert report["exp_zero"] and report["residual_zero"] and report["ok"]


# -- dhat^2 = 0 by hbar parts D_k against the series definition ------------------


def _series_square(bvi):
    """The dhat-squared row by its definition: dhat(dhat(w)) as hbar series
    on each word in (length, word) order, skipping a word where an operator is
    undefined on it or an application leaves the window."""
    A = bvi.algebra
    common = set(A.words).intersection(*(op.defined for op in bvi.operators.values()))
    skipped = []
    for w in sorted(A.words, key=lambda u: (len(u), u)):
        try:
            if w not in common:
                raise TruncationOverflow(w, (), A.max_len)
            value = bvi.dhat(bvi.dhat(HbarSeries({(w, "1", 0): 1})))
        except TruncationOverflow:
            skipped.append(A.label(w))
            continue
        if not value.is_zero():
            return False, {"word": A.label(w)}, skipped
    return True, None, skipped


def _commutator_rows(d, delta):
    """The dg-BV square rows as compositions: d d, delta delta and the graded
    commutator [delta, d] = delta d - (-1)^{|delta||d|} d delta."""
    sign = -1 if (delta.degree * d.degree) % 2 else 1
    dd = d.compose(delta)
    minus = Operator(dd.algebra, dd.degree, {w: {u: -sign * c for u, c in img.items()}
                                             for w, img in dd.entries.items()}, dd.defined)
    rows = {"d-squared": d.compose(d), "delta-squared": delta.compose(delta),
            "[delta,d]": delta.compose(d).add(minus)}
    return {name: (op.is_zero_on_defined().ok, op.is_zero_on_defined().witness)
            for name, op in rows.items()}


@st.composite
def operator_families(draw):
    """Delta_n for a random set of arities in 1..3 on a small symmetric word
    algebra: random sparse images of any length, each operator undefined on
    about a tenth of the words."""
    degrees = draw(st.lists(st.sampled_from((0, 1, 2)), min_size=1, max_size=3))
    A = SymmetricWordAlgebra(GradedVectorSpace((f"x{i}", d) for i, d in enumerate(degrees)),
                             draw(st.integers(1, 3)))
    words = list(A.words)
    ops = {}
    for n in sorted(draw(st.sets(st.integers(1, 3), min_size=1))):
        defined = {w for w in words if draw(st.integers(0, 9))}
        entries = {w: {u: draw(st.sampled_from((-1, 1, 2)))
                       for u in draw(st.lists(st.sampled_from(words), max_size=2))}
                   for w in words if draw(st.booleans())}
        ops[n] = Operator(A, 3 - 2 * n, entries, defined, f"Delta_{n}")
    return A, ops


def _without_order_checks():
    # undefined words inside the budget make the order rows refuse the
    # family; the rows compared here do not depend on them
    return mock.patch.object(bv_module, "operator_order_check",
                             lambda *args, name: CheckResult(name, True))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(operator_families(), st.integers(1, 4))
def test_dhat_squared_by_hbar_parts_equals_the_series_route(family, K):
    A, ops = family
    bvi = BVInftyAlgebra(A, ops, K)
    with _without_order_checks():
        row = next(r for r in bvi.certify() if r.name == "dhat-squared")
    assert row is bvi.square
    assert (row.ok, row.witness, row.bound["skipped"]) == _series_square(bvi)
    assert row.bound == {"word_length": A.max_len, "hbar_cutoff": K, "skipped": row.bound["skipped"]}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(operator_families())
def test_dg_bv_rows_are_the_hbar_parts_of_dhat_squared(family):
    A, ops = family
    d = ops.get(1, Operator.zero(A, 1))
    delta = ops.get(2, Operator.zero(A, -1))
    bv = BVAlgebra(A, d, delta)
    with _without_order_checks():
        rows = {r.name: (r.ok, r.witness) for r in bv.certify()}
    assert {name: rows[name] for name in ("d-squared", "delta-squared", "[delta,d]")} == \
        _commutator_rows(d, delta)
    assert (bv.square.ok, bv.square.witness, bv.square.bound["skipped"]) == _series_square(bv)


def test_a_family_of_wrong_degree_fails_its_degree_row_and_still_squares():
    # Delta_1 Delta_3 and Delta_2 Delta_2 have different degrees here, and
    # both are terms of D_2
    A = ce_bvinfty_from_linfty(load("heis3"), 3).algebra
    x, y, z = (w for w in A.words if len(w) == 1)
    ops = {1: Operator(A, 1, {x: {x: 1}}), 2: Operator(A, 0, {x: {y: 1}, y: {z: 1}}),
           3: Operator(A, -3, {y: {z: 1}})}
    bvi = BVInftyAlgebra(A, ops, 3)
    with _without_order_checks():
        rows = {r.name: r for r in bvi.certify()}
    assert [name for name, r in rows.items() if not r.ok][:1] == ["degree(Delta_2)=-1"]
    square = rows["dhat-squared"]
    assert (square.ok, square.witness, square.bound["skipped"]) == _series_square(bvi)


@pytest.mark.parametrize("name", ["ce-l3demo", "ce-heis3"])
@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_fixture_windows_square_to_zero_on_both_routes(name, K):
    bvi = load(name).as_bvinfty(K)
    assert bvi.hbar_cutoff == K
    assert (bvi.square.ok, bvi.square.witness, bvi.square.bound["skipped"]) == _series_square(bvi)
    assert bvi.square.ok


def test_qme_exp_check_honours_the_window_it_is_given():
    V = load("ce-l3demo")
    R = power_ring(3)
    S = random_qme_element(V, R, random.Random(0))
    assert qme_exp_check(V, R, S)["bound"]["hbar_cutoff"] == V.hbar_cutoff == 3
    assert qme_exp_check(V, R, S, 5)["bound"]["hbar_cutoff"] == 5
    assert V.as_bvinfty(5) is V.as_bvinfty(5) and V.as_bvinfty(3) is V.as_bvinfty() is V


def test_qme_exp_check_rejects_corrupted_structure():
    space = GradedVectorSpace([("x", 0), ("y", 0), ("z", 0)])
    bad = DgLieAlgebra(space, {}, {("x", "y"): {"z": 1}, ("y", "z"): {"y": 1}},
                       name="bad", validate=False)
    bv = ce_bv_from_dg_lie(bad, 4)
    with pytest.raises(PreconditionError):
        qme_exp_check(bv, power_ring(3), HbarSeries())


def test_conjugation_identity_zero_S():
    bv = ce("sl2", 4)
    result = conjugation_identity_check(bv, power_ring(3), HbarSeries())
    assert result.ok and not result.bound["skipped"]


def test_conjugation_identity_random_battery():
    rng = random.Random(55)
    R = power_ring(3)
    for name in ("heis3", "sl2", "aff2"):
        bv = ce(name, 4)
        for _ in range(10):
            S = random_qme_element(bv, R, rng)
            result = conjugation_identity_check(bv, R, S)
            assert result.ok, (name, result.witness)
            assert not result.bound["skipped"]


def test_conjugation_identity_bvinfty_generalization():
    rng = random.Random(56)
    R = power_ring(3)
    bvi = ce_bvinfty_from_linfty(load("l3demo"), 6)
    words = [w for w in bvi.algebra.words if len(w) <= 2]
    for _ in range(5):
        S = random_qme_element(bvi, R, rng, word_len_cap=1)
        result = conjugation_identity_check(bvi, R, S, test_words=words)
        assert result.ok, result.witness


# (tested, shortest skipped word length) for seed 0; every longer word
# leaves the window and is skipped
_CONJUGATION_OVERFLOW_PINS = {
    ("l3demo", 4): (5, 2), ("l3demo", 5): (20, 4), ("l3demo", 6): (12, 3),
    ("lift3", 4): (9, 3), ("lift3", 5): (25, 5), ("lift3", 6): (1, 1),
}


@pytest.mark.parametrize("name,M", sorted(_CONJUGATION_OVERFLOW_PINS))
def test_conjugation_identity_per_word_overflow_pinned(name, M):
    if name == "l3demo":
        V = ce_bvinfty_from_linfty(load("l3demo"), 4)
    else:
        V = ce("lift3", 5)
    R = power_ring(M)
    result = conjugation_identity_check(V, R, random_qme_element(V, R, random.Random(0)))
    tested, shortest = _CONJUGATION_OVERFLOW_PINS[(name, M)]
    assert result.ok
    assert result.bound["tested"] == tested
    assert result.bound["skipped"] == [V.algebra.label(w) for w in V.algebra.words
                                       if len(w) >= shortest]


def test_qme_solver_trivial():
    bv = ce("abelian2", 4)
    R = power_ring(3)
    seed = HbarSeries({(("x", "y"), "t", 0): 1})
    result = qme_solve_perturbative(bv, R, seed)
    assert result.status == "solved"
    assert result.element == seed


@pytest.mark.parametrize("K", [0, -1])
def test_bvinfty_algebra_refuses_an_hbar_cutoff_below_one(K):
    # no hbar power would be kept, so every certificate would be vacuous
    bv = ce("abelian2", 3)
    with pytest.raises(PreconditionError, match="hbar cutoff must be >= 1"):
        BVInftyAlgebra(bv.algebra, {1: bv.d, 2: bv.delta}, K)
    with pytest.raises(PreconditionError):
        qme_solve_perturbative(bv, power_ring(3), HbarSeries(), K)


def test_solver_results_share_one_type():
    # both solvers return the one result type, under its one name
    assert isinstance(qme_solve_perturbative(ce("abelian2", 3), power_ring(3), HbarSeries()), SolveResult)
    assert isinstance(mc_solve_perturbative(load("heis3"), power_ring(3), HbarSeries()), SolveResult)
    assert not hasattr(bv_module, "QMESolveResult") and not hasattr(linfty, "MCSolveResult")


def test_qme_solver_validates_output():
    bv = ce("sl2", 4)
    R = power_ring(3)
    rng = random.Random(77)
    solved = 0
    for _ in range(10):
        seed = random_qme_element(bv, R, rng)
        seed = seed.ring_project(R, 1)
        layer_ok = True
        bvi = bv.as_bvinfty(3)
        ctx = bvi.context(R)
        if not bvi.dhat(seed, ctx).is_zero():
            continue
        result = qme_solve_perturbative(bv, R, seed)
        if result.status == "solved":
            solved += 1
            assert qme_exp_check(bv, R, result.element)["exp_zero"]
    assert solved > 0


def test_qme_solver_obstruction_matches_residual():
    # obst2 as a bi-dg input: use CE of obst2 with S in the image letters
    bv = ce("obst2", 4)
    R = power_ring(3)
    # letters in g[-1]: x deg 2, w deg 3: S = x(x)t is degree-2
    seed = HbarSeries({(("x",), "t", 0): 1})
    result = qme_solve_perturbative(bv, R, seed)
    assert result.status == "obstructed"
    assert result.obstruction_order == 2
    direct = bvinfty_qme_residual(bv.as_bvinfty(3), R, result.partial).ring_project(R, 2)
    assert result.obstruction == direct


def test_qm_bidg_residual_routes_agree():
    B = load("bidg4")
    R = power_ring(3)
    rng = random.Random(91)
    labels1 = [(x, h) for x in B.space.labels for h in range(2) if B.space.degree(x) + 2 * h == 1]
    for _ in range(20):
        terms = {}
        for (x, h) in labels1:
            for r in R.ideal_labels:
                if rng.random() < 0.4:
                    terms[(x, r, h)] = Fraction(rng.randint(-2, 2))
        S = HbarSeries(terms)
        report = qm_bidg_residual(B, R, S, 3, max_len=4)
        assert report["ok"], report
    assert qm_bidg_residual(B, R, HbarSeries(), 3)["is_solution"]


def test_corollary_bidg_representability():
    B = load("bidg4")
    R = power_ring(3)
    rng = random.Random(92)
    labels1 = [(x, h) for x in B.space.labels for h in range(2) if B.space.degree(x) + 2 * h == 1]
    for _ in range(5):
        terms = {}
        for (x, h) in labels1:
            for r in R.ideal_labels:
                if rng.random() < 0.3:
                    terms[(x, r, h)] = Fraction(rng.randint(-1, 1))
        report = corollary_bidg_check(B, R, HbarSeries(terms), 3)
        assert report["ok"], report
