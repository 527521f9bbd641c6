"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Every check is a property of exact rationals, so the tolerance is zero:
assertions compare sparse dictionaries for equality.  Each test prints one
status line; run with `pytest -s tests/test_acceptance.py` to see them all.
"""

import random
import time
from fractions import Fraction

import pytest

from mastereq.artin import power_ring
from mastereq.bv import (
    bvinfty_qme_residual,
    conjugation_identity_check,
    derived_bracket,
    derived_brackets_linfty_check,
    qme_exp_check,
    qme_solve_perturbative,
)
from mastereq.coalgebra import CoalgebraMorphism
from mastereq.constructions import (
    AssociativeAlgebraData,
    bar_bv_from_associative,
    bv_from_bi_dg_lie,
    ce_bv_from_dg_lie,
    ce_bvinfty_from_linfty,
    corollary_bidg_check,
)
from mastereq.graded import GradedVectorSpace
from mastereq.linfty import (
    DgLieAlgebra,
    chuang_lazarev_morphism_defect,
    chuang_lazarev_residual,
    coderivation_dg_lie,
    emce_residual,
    mc_exp_map,
    mc_solve_perturbative,
    quillen_bijection_check,
)
from mastereq.morphisms import (
    check_bv_morphism,
    compose_bv_morphisms,
    compose_with_log_residue,
    identity_bv_morphism,
    ring_map_to_bv_morphism,
    theorem_first_bijection_check,
    theorem_second_bijection_check,
    twisted_linfty_morphism,
)
from mastereq.multivectors import Polyvector, unimodular_poisson_check
from mastereq.operators import Operator, operator_order_check
from mastereq.sampling import random_mc_element, random_qme_element
from mastereq.series import HbarSeries

from alg_fixtures import load
from test_constructions import associator_oracle
from test_linfty import with_term

R3 = power_ring(3)


def report(number: int, label: str, ok: bool, elapsed: float, limit: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number:02d} {label}: {status} ({elapsed:.2f}s < {limit:.0f}s)")
    assert ok, f"criterion {number} failed"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def corrupt_delta(bv):
    """Inject one bogus structure constant into the BV operator."""
    single = next(w for w in bv.algebra.words if len(w) == 1)
    entries = {w: dict(img) for w, img in bv.delta.entries.items()}
    entries.setdefault(single, {})[()] = Fraction(1)
    from mastereq.bv import BVAlgebra
    return BVAlgebra(bv.algebra, bv.d,
                     Operator(bv.algebra, -1, entries, name="Delta~"), name=bv.name + "~")


def test_criterion_01_ce_correctness():
    start = time.perf_counter()
    ok = True
    names = ("abelian2", "heis3", "aff2", "sl2")
    wanted = ("delta-squared", "[delta,d]", "delta(1)=0", "delta order<=2")
    for name in names:
        bv = ce_bv_from_dg_lie(load(name), 4)
        certs = {r.name: r for r in bv.certify()}
        ok &= all(certs[w].ok for w in wanted)
        # corrupted structure constant: at least one certificate fails, with witness
        bad = corrupt_delta(bv)
        bad_certs = [r for r in bad.certify() if not r.ok]
        ok &= bool(bad_certs) and any(r.witness is not None for r in bad_certs)
    # bracket-level corruption for the three-dimensional fixtures
    space = GradedVectorSpace([("x", 0), ("y", 0), ("z", 0)])
    broken = DgLieAlgebra(space, {}, {("x", "y"): {"z": 1}, ("x", "z"): {"x": 1}},
                          name="heis3~", validate=False)
    bad = ce_bv_from_dg_lie(broken, 4)
    failed = [r for r in bad.certify() if not r.ok]
    ok &= bool(failed) and any(r.witness for r in failed)
    report(1, "CE correctness", ok, time.perf_counter() - start, 10.0)


def qme_fixtures():
    out = {name: ce_bv_from_dg_lie(load(name), 4)
           for name in ("abelian2", "heis3", "aff2", "sl2")}
    out["bidg4"] = bv_from_bi_dg_lie(load("bidg4"), 4)[0]
    out["ttw-dual"] = bar_bv_from_associative(load("dual-numbers"), 4)
    out["ibl-inv3"] = ce_bv_from_ibl_cached()
    return out


def ce_bv_from_ibl_cached():
    from mastereq.constructions import ce_bv_from_ibl
    return ce_bv_from_ibl(load("inv3"), 4)[0]


def test_criterion_02_qme_form_equivalence():
    start = time.perf_counter()
    rng = random.Random(2024)
    ok = True
    for name, bv in qme_fixtures().items():
        for _ in range(20):
            S = random_qme_element(bv, R3, rng, word_len_cap=2)
            result = qme_exp_check(bv, R3, S, 3)
            ok &= result["equivalence"]
    report(2, "QME form equivalence", ok, time.perf_counter() - start, 30.0)


def conjugation_setups():
    # all-odd fixtures are closed at length 4: every basis word, no skips
    for name in ("abelian2", "heis3", "aff2", "sl2"):
        yield name, ce_bv_from_dg_lie(load(name), 4)
    # even letters need an enlarged window, so that no word of length <= 4
    # leaves it; longer words may
    yield "bidg4-dglie", ce_bv_from_dg_lie(load("bidg4-dglie"), 12)
    yield "l3demo", ce_bvinfty_from_linfty(load("l3demo"), 12, 3)


def test_criterion_03_conjugation_identity():
    start = time.perf_counter()
    rng = random.Random(3033)
    ok = True
    for name, V in conjugation_setups():
        short = {V.algebra.label(w) for w in V.algebra.words if len(w) <= 4}
        for _ in range(10):
            S = random_qme_element(V, R3, rng, word_len_cap=2)
            result = conjugation_identity_check(V, R3, S, 3)
            ok &= result.ok and not short & set(result.bound["skipped"])
    report(3, "conjugation identity (incl. higher brackets)", ok,
           time.perf_counter() - start, 60.0)


def test_criterion_04_representability():
    start = time.perf_counter()
    rng = random.Random(4044)
    ok = True
    # Quillen over the coderivation algebra of heis3
    coder, _ = coderivation_dg_lie(load("heis3"), max_len=3)
    corrupt_word = next(w for w in coder.word_algebra(3).words if len(w) == 2)
    for _ in range(20):
        S = random_mc_element(coder, R3, rng)
        F = mc_exp_map(coder, R3, S)
        ok &= quillen_bijection_check(coder, R3, S, F)["ok"]
        bad = quillen_bijection_check(coder, R3, S, with_term(F, "t", corrupt_word))
        ok &= not bad["morphism"]
    # theorem first over CE(sl2)
    bv = ce_bv_from_dg_lie(load("sl2"), 4)
    bvi = bv.as_bvinfty(3)
    for _ in range(20):
        seed = random_qme_element(bv, R3, rng, word_len_cap=2).ring_project(R3, 1)
        if not bvi.dhat(seed, bvi.context(R3)).is_zero():
            seed = HbarSeries()
        result = qme_solve_perturbative(bv, R3, seed, 3)
        S = result.element if result.status == "solved" else HbarSeries()
        rep = theorem_first_bijection_check(bv, R3, S, 3)
        ok &= rep["solves_qme"] and rep["is_morphism"]
        found = False
        for _attempt in range(10):
            Sbad = random_qme_element(bv, R3, rng, word_len_cap=2)
            bad = theorem_first_bijection_check(bv, R3, Sbad, 3)
            ok &= bad["equivalence"]
            if not bad["solves_qme"]:
                ok &= not bad["is_morphism"]
                found = True
                break
        ok &= found
    # theorem second and Chuang-Lazarev over twisted morphisms of bidg4
    g = load("bidg4-dglie")
    for _ in range(20):
        g_tw, F = twisted_linfty_morphism(g, rng, 3)
        ok &= theorem_second_bijection_check(g, g_tw, F, 3)["ok"]
        ok &= chuang_lazarev_residual(g, g_tw, F) == {}
        ok &= chuang_lazarev_morphism_defect(g, g_tw, F).ok
        detected = False
        for _attempt in range(10):
            bad_cor = {w: dict(v) for w, v in F.corestriction.items()}
            key = sorted(bad_cor)[rng.randrange(len(bad_cor))]
            t = sorted(bad_cor[key])[rng.randrange(len(bad_cor[key]))]
            bad_cor[key][t] = bad_cor[key][t] + rng.choice([1, -1, 2])
            bad = CoalgebraMorphism(F.source, F.target, bad_cor)
            res_bad = chuang_lazarev_residual(g, g_tw, bad)
            defect_bad = chuang_lazarev_morphism_defect(g, g_tw, bad)
            ok &= (res_bad == {}) == defect_bad.ok
            ok &= theorem_second_bijection_check(g, g_tw, bad, 3)["ok"] == defect_bad.ok
            if res_bad != {}:
                detected = True
                break
        ok &= detected
    # corollary: representability of the length-one functor of bidg4
    from mastereq.constructions import hbar_extended_dg_lie
    B = load("bidg4")
    gh = hbar_extended_dg_lie(B, 3)
    gh_word = next(w for w in gh.word_algebra(3).words if len(w) == 2)
    labels1 = [(x, h) for x, deg in B.space.basis for h in range(2) if deg + 2 * h == 1]
    for _ in range(20):
        terms = {}
        for (x, h) in labels1:
            for r in R3.ideal_labels:
                if rng.random() < 0.35:
                    c = Fraction(rng.randint(-1, 1))
                    if c:
                        terms[(x, r, h)] = c
        S = HbarSeries(terms)
        ok &= corollary_bidg_check(B, R3, S, 3)["ok"]
        S_mc = HbarSeries({(f"{x}@h{h}", r, 0): c for (x, r, h), c in S.terms.items()})
        bad = quillen_bijection_check(gh, R3, S_mc, with_term(mc_exp_map(gh, R3, S_mc), "t", gh_word))
        ok &= not bad["morphism"]
    report(4, "representability bijections", ok, time.perf_counter() - start, 60.0)


def test_criterion_05_involutivity_dichotomy():
    start = time.perf_counter()
    from mastereq.constructions import ce_bv_from_ibl
    ok = True
    bv, rep = ce_bv_from_ibl(load("noninv2"), 4)
    ok &= not rep["involutive"] and not rep["commutator_vanishes"]
    ok &= rep["witness"] is not None and "word" in rep["witness"]
    for name in ("heis3-zero-cobracket", "inv3"):
        bv, rep = ce_bv_from_ibl(load(name), 4)
        ok &= rep["involutive"] and rep["commutator_vanishes"]
        ok &= bv.is_certified()
    report(5, "involutivity dichotomy", ok, time.perf_counter() - start, 60.0)


def test_criterion_06_ttw_dichotomy():
    start = time.perf_counter()
    ok = True
    ground_field = AssociativeAlgebraData([("u", 0)], {("u", "u"): {"u": 1}}, name="ground-field")
    for A in (ground_field, load("dual-numbers")):
        certs = {r.name: r for r in bar_bv_from_associative(A, 4).certify()}
        ok &= associator_oracle(A) is None
        ok &= certs["delta-squared"].ok and certs["delta order<=2"].ok
    A = load("nonassoc3")
    certs = {r.name: r for r in bar_bv_from_associative(A, 4).certify()}
    ok &= associator_oracle(A) == ("u", "u", "u")
    ok &= not certs["delta-squared"].ok
    ok &= certs["delta-squared"].witness["word"] == "u⊗u⊗u"
    report(6, "TTW dichotomy", ok, time.perf_counter() - start, 60.0)


def test_criterion_07_derived_brackets():
    start = time.perf_counter()
    ok = True
    bvis = [ce_bvinfty_from_linfty(load(n), 4, 3)
            for n in ("heis3", "sl2", "aff2", "bidg4-dglie")]
    bvis.append(ce_bvinfty_from_linfty(load("l3demo"), 4, 3))
    ok &= 3 in bvis[-1].operators  # the fixture genuinely has a third operator
    for bvi in bvis:
        result = derived_brackets_linfty_check(bvi)
        ok &= result.ok
    report(7, "derived brackets up to arity 4", ok, time.perf_counter() - start, 60.0)


def test_criterion_08_morphism_calculus():
    start = time.perf_counter()
    ok = True

    def truncation(a, b):
        Ra, Rb = power_ring(a), power_ring(b)
        entries = {}
        for i in range(1, a):
            lab = "t" if i == 1 else f"t^{i}"
            entries[lab] = {lab: 1} if i < b else {}
        return ring_map_to_bv_morphism(Ra, Rb, entries, 3)

    f54, f43, f32 = truncation(5, 4), truncation(4, 3), truncation(3, 2)
    left = compose_bv_morphisms(compose_bv_morphisms(f54, f43), f32)
    right = compose_bv_morphisms(f54, compose_bv_morphisms(f43, f32))
    ok &= left.components == right.components
    composite = compose_bv_morphisms(f43, f32)
    ok &= composite.components == truncation(4, 2).components
    ok &= check_bv_morphism(composite)["ok"]
    for phi, psi in ((f43, f32), (f54, f43)):
        ok &= compose_with_log_residue(phi, psi)[1] == {}
    V = ce_bvinfty_from_linfty(load("heis3"), 3, 3)
    ident = identity_bv_morphism(V)
    rng = random.Random(88)
    g_tw, F = twisted_linfty_morphism(load("heis3"), rng, 3)
    from mastereq.morphisms import linfty_morphism_to_bvinfty
    phi = linfty_morphism_to_bvinfty(g_tw, load("heis3"), F, 3)
    ok &= compose_bv_morphisms(ident, phi).components == phi.components
    ok &= compose_bv_morphisms(phi, identity_bv_morphism(phi.source)).components == phi.components
    ok &= compose_with_log_residue(ident, phi)[1] == {}
    report(8, "morphism calculus", ok, time.perf_counter() - start, 60.0)


def test_criterion_09_solvers():
    start = time.perf_counter()
    rng = random.Random(9099)
    ok = True
    # Maurer-Cartan: liftable and obstructed
    lift = mc_solve_perturbative(load("lift3"), R3, HbarSeries({("x", "t", 0): 1}))
    ok &= lift.status == "solved"
    ok &= emce_residual(load("lift3"), R3, lift.element).is_zero()
    obst = mc_solve_perturbative(load("obst2"), R3, HbarSeries({("x", "t", 0): 1}))
    ok &= obst.status == "obstructed" and obst.obstruction_order == 2
    direct = emce_residual(load("obst2"), R3, obst.partial).ring_project(R3, 2)
    ok &= obst.obstruction == direct
    # QME: every solver output revalidates; CE(obst2) reproduces the obstruction
    bv = ce_bv_from_dg_lie(load("sl2"), 4)
    bvi = bv.as_bvinfty(3)
    solved = 0
    for _ in range(10):
        seed = random_qme_element(bv, R3, rng, word_len_cap=2).ring_project(R3, 1)
        if not bvi.dhat(seed, bvi.context(R3)).is_zero():
            continue
        result = qme_solve_perturbative(bv, R3, seed, 3)
        if result.status == "solved":
            rep = qme_exp_check(bv, R3, result.element, 3)
            ok &= rep["exp_zero"] and rep["residual_zero"]
            solved += 1
    ok &= solved > 0
    bvo = ce_bv_from_dg_lie(load("obst2"), 4)
    qobst = qme_solve_perturbative(bvo, R3, HbarSeries({(("x",), "t", 0): 1}), 3)
    ok &= qobst.status == "obstructed"
    qdirect = bvinfty_qme_residual(bvo.as_bvinfty(3), R3, qobst.partial).ring_project(R3, 2)
    ok &= qobst.obstruction == qdirect
    report(9, "perturbative solvers", ok, time.perf_counter() - start, 60.0)


def test_criterion_10_unimodularity():
    start = time.perf_counter()
    ok = True
    zero3 = Polyvector.zero(3)
    cases = [
        (zero3, zero3, True),
        (Polyvector(2, {((0, 0), 0b11): 1}), Polyvector.zero(2), True),
        (Polyvector(3, {((0, 0, 1), 0b011): 1}), zero3, True),
    ]
    for S0, S1, expected in cases:
        rep = unimodular_poisson_check(S0, S1)
        ok &= rep["routes_agree"]
        ok &= rep["unimodular"] == expected
    neg = unimodular_poisson_check(Polyvector(2, {((0, 1), 0b11): 1}), Polyvector.zero(2))
    ok &= neg["routes_agree"] and neg["poisson"] and not neg["unimodular"]
    report(10, "unimodular Poisson checks", ok, time.perf_counter() - start, 60.0)
