"""Route-level negative controls: a "two routes agree" certificate must fail
when one of its routes is wrong by one term.

Each test first runs the certificate on an input it passes, then corrupts
one route's inner function with `monkeypatch` and checks that the same input
now fails, so the failure is the corruption's.  The two K_j cross-checks are
listed here: `qme_exp_check` (dhat e^{S/hbar} against the K_j(1) residual)
and `conjugation_identity_check` (multiplied-out exponentials against the
K_j(x) sum).  On a dg-BV algebra `qme_exp_check` compares dhat e^{S/hbar}
with the closed-form `qme_residual` instead, and has its own control.

The classical cross-checks are listed too: `quillen_bijection_check`
(D ∘ exp(S) against the Maurer-Cartan residual `emce_residual`),
`deformed_bracket_check` (Jacobi of the deformed bracket against the
Maurer-Cartan equation in the coderivation algebra, whose residual is
`emce_residual` again) and `corollary_bidg_check` (the hbar-extended
Quillen check and the direct residual against the ambient `qme_residual`),
each with the residual of one route one term too many.

`theorem_first_bijection_check` (the QME of S against the intertwining of
the morphism R* -> V[[hbar]] that S induces) has its control with one term
too many in the morphism's exponential, on a word whose dhat is not zero.
`theorem_second_bijection_check` reports the intertwining of the
BV-infinity morphism that an L-infinity morphism gives (its convolution-QME
side is that same check, so it is not computed twice).  That morphism's
exponential is the L-infinity morphism's own, re-graded; one control has one
letter too many in the BV-infinity exponential, the other in the L-infinity
one, each on one source word, and both pin the morphism's witness.

The Chuang-Lazarev routes (the convolution residual DS + [S,S]/2 against
the whole defect D ∘ exp(S) - exp(S) ∘ D) read one exponential; their
control has the target's bracket table one letter too many on one word,
which only the residual reads, so the routes disagree.

`construct ibl`'s `involutivity-dichotomy` (bracket∘delta = 0 on generators,
`LieBialgebraData.involutive`, against [Delta, d] = 0 on the CE complex) has
its control with `involutive` returning the opposite answer.
"""

import json
import math
import random
from fractions import Fraction

import pytest

from mastereq import bv as bv_module
from mastereq import cli, constructions, linfty, morphisms
from mastereq.artin import power_ring
from mastereq.bv import BVInftyAlgebra, conjugation_identity_check, qme_exp_check, qme_solve_perturbative
from mastereq.cli import _closed_qme_seed
from mastereq.coalgebra import CoalgebraMorphism
from mastereq.constructions import ce_bv_from_dg_lie, corollary_bidg_check
from mastereq.linfty import (LInftyAlgebra, chuang_lazarev_morphism_defect, chuang_lazarev_residual,
                             deformed_bracket_check, mc_element, quillen_bijection_check)
from mastereq.morphisms import (theorem_first_bijection_check, theorem_second_bijection_check,
                                twisted_linfty_morphism)
from mastereq.series import HbarSeries, SeriesContext

from alg_fixtures import FIXTURES, load


def _solved_lift3_dg_bv():
    """CE(lift3) at N = 5, k[t]/t^4 and a solved S, so that dhat e^{S/hbar} = 0
    holds on the exponential route."""
    bv = ce_bv_from_dg_lie(load("lift3"), 5)
    ring = power_ring(4)
    result = qme_solve_perturbative(bv, ring, _closed_qme_seed(bv, ring, random.Random(1)))
    assert result.status == "solved" and not result.element.is_zero()
    return bv, ring, result.element


def _solved_lift3():
    """`_solved_lift3_dg_bv` with the dg-BV algebra's operators in a plain
    BV-infinity algebra, whose QME residual is the K_j route."""
    bv, ring, S = _solved_lift3_dg_bv()
    return BVInftyAlgebra(bv.algebra, bv.operators, 3), ring, S


def _k1_plus_one_term(monkeypatch):
    chain = bv_module._commutator_chain

    def corrupted(bvi, ctx, args, degs, x):
        val = chain(bvi, ctx, args, degs, x)
        if len(args) != 1:
            return val
        return val.add(HbarSeries({(bvi.algebra.unit, ctx.ring.ideal_labels[0], 0): 1}))

    monkeypatch.setattr(bv_module, "_commutator_chain", corrupted)


def _exp_minus_its_last_term(monkeypatch):
    # e^{s/hbar} = sum_{n < M} (s/hbar)^n / n! without its last nonzero term
    exp = SeriesContext.exp_over_hbar

    def corrupted(self, s):
        power, n = self.unit(), 0
        while not (nxt := self.mul(power, s.shift_hbar(-1))).is_zero():
            power, n = nxt, n + 1
        return exp(self, s).sub(power.scale(Fraction(1, math.factorial(n))))

    monkeypatch.setattr(SeriesContext, "exp_over_hbar", corrupted)


CORRUPTIONS = {"K_1 plus one term": _k1_plus_one_term,
               "exp_over_hbar minus its last term": _exp_minus_its_last_term}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_a_corrupted_route_fails_the_conjugation_identity_with_a_word(corruption, monkeypatch):
    bvi, ring, S = _solved_lift3()
    assert conjugation_identity_check(bvi, ring, S).ok
    CORRUPTIONS[corruption](monkeypatch)
    result = conjugation_identity_check(bvi, ring, S)
    assert not result.ok
    assert set(result.witness) == {"word"}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_a_corrupted_route_fails_the_qme_forms_check(corruption, monkeypatch):
    bvi, ring, S = _solved_lift3()
    report = qme_exp_check(bvi, ring, S)
    assert report["ok"] and report["exp_zero"] and report["residual_zero"]
    CORRUPTIONS[corruption](monkeypatch)
    assert qme_exp_check(bvi, ring, S)["ok"] is False


def test_a_corrupted_closed_form_residual_fails_the_qme_forms_check_on_a_dg_bv_algebra(monkeypatch):
    bv, ring, S = _solved_lift3_dg_bv()
    report = qme_exp_check(bv, ring, S)
    assert report["ok"] and report["exp_zero"] and report["residual_zero"]
    residual = bv_module.qme_residual

    def plus_one_term(bv, ring, S, hbar_cutoff=3):
        return residual(bv, ring, S, hbar_cutoff).add(
            HbarSeries({(bv.algebra.unit, ring.ideal_labels[0], 0): 1}))

    monkeypatch.setattr(bv_module, "qme_residual", plus_one_term)
    report = qme_exp_check(bv, ring, S)
    assert report["ok"] is False and report["exp_zero"] and not report["residual_zero"]


def _emce_plus_one_term(monkeypatch):
    # read by `mc_is_solution` and the Quillen check through the module
    residual = linfty.emce_residual

    def corrupted(g, ring, S):
        return residual(g, ring, S).add(
            HbarSeries({(g.space.labels[0], ring.ideal_labels[0], 0): 1}))

    monkeypatch.setattr(linfty, "emce_residual", corrupted)


def test_a_corrupted_maurer_cartan_residual_fails_the_quillen_check(monkeypatch):
    # S = x t - u t^2/2 solves the Maurer-Cartan equation of lift3 over k[t]/t^3
    g, ring = load("lift3"), power_ring(3)
    S = mc_element(g, ring, {("x", "t"): 1, ("u", "t^2"): Fraction(-1, 2)})
    report = quillen_bijection_check(g, ring, S)
    assert report["ok"] and report["d_exp_zero"] and report["residual_zero"]
    assert report["witness"] == {"coproduct": None, "d_exp": None, "curvature": None}
    _emce_plus_one_term(monkeypatch)
    report = quillen_bijection_check(g, ring, S)
    assert report["ok"] is False
    # the added term is the residual's only one: the first letter x on t
    assert report["witness"] == {"coproduct": None, "d_exp": None, "curvature": ("x", "t", 0)}


def test_a_corrupted_maurer_cartan_route_fails_the_deformed_bracket_check(monkeypatch):
    # [,] + t[,] = (1 + t)[,] satisfies Jacobi, so both routes pass
    h, ring = load("sl2"), power_ring(3)
    S = {("e", "f"): {"h": {"t": 1}}, ("h", "e"): {"e": {"t": 2}}, ("h", "f"): {"f": {"t": -2}}}
    report = deformed_bracket_check(h, ring, S)
    assert report["ok"] and report["jacobi"] and report["mc"] and report["witness"] is None
    _emce_plus_one_term(monkeypatch)
    report = deformed_bracket_check(h, ring, S)
    assert report["ok"] is False and report["jacobi"] and not report["mc"] and not report["agree"]
    # the added term is the residual's only one: the first coderivation
    # letter e>e on t
    assert report["witness"] == ("e>e", "t")
    monkeypatch.undo()
    residual = linfty.emce_residual

    def two_terms_late_first(g, ring, S):
        # the witness is the first term in basis order, not the first stored
        return residual(g, ring, S).add(HbarSeries({(g.space.labels[2], "t^2", 0): 1,
                                                    (g.space.labels[1], "t^2", 0): 1}))

    monkeypatch.setattr(linfty, "emce_residual", two_terms_late_first)
    assert deformed_bracket_check(h, ring, S)["witness"] == ("e>f", "t^2")


def test_a_corrupted_ambient_residual_fails_the_bidg_corollary(monkeypatch):
    B, ring = load("bidg4"), power_ring(3)
    S = HbarSeries({("q", "t", 0): 1, ("r", "t^2", 1): 1})
    report = corollary_bidg_check(B, ring, S)
    assert report["ok"] and report["qm"]
    residual = constructions.qme_residual

    def plus_one_term(bv, ring, S, hbar_cutoff=3):
        # on a one-letter word, so only the comparison with the direct residual fails
        return residual(bv, ring, S, hbar_cutoff).add(
            HbarSeries({(bv.algebra.words[1], ring.ideal_labels[0], 0): 1}))

    monkeypatch.setattr(constructions, "qme_residual", plus_one_term)
    report = corollary_bidg_check(B, ring, S)
    assert report["ok"] is False and not report["qm"]


def test_a_corrupted_exponential_fails_theorem_first_on_its_key(monkeypatch):
    bv, ring, S = _solved_lift3_dg_bv()
    report = theorem_first_bijection_check(bv, ring, S)
    assert report["ok"] and report["solves_qme"] and report["is_morphism"]
    exp_map = morphisms.BVMorphism.exp_map

    def plus_one_term(phi):
        # d u = w in lift3, so dhat u is not zero and the key t stops intertwining
        out = dict(exp_map(phi))
        out["t"] = out["t"].add(HbarSeries({(("u",), "1", 0): 1}))
        return out

    monkeypatch.setattr(morphisms.BVMorphism, "exp_map", plus_one_term)
    report = theorem_first_bijection_check(bv, ring, S)
    assert report["ok"] is False and report["solves_qme"] and not report["is_morphism"]
    assert report["morphism"]["intertwining"].witness == {"key": "t"}


def test_a_corrupted_exponential_fails_theorem_second_on_its_key(monkeypatch):
    g = load("bidg4-dglie")
    g_tw, F = twisted_linfty_morphism(g, random.Random(14), 3)
    assert theorem_second_bijection_check(g, g_tw, F, 3)["ok"]
    exp_map = morphisms.BVMorphism.exp_map

    def plus_one_letter(phi):
        # d r = p in bidg4-dglie, so dhat r is not zero and the source key r,
        # the first letter of S(g[-1]), stops intertwining
        out = dict(exp_map(phi))
        out[("r",)] = out[("r",)].add(HbarSeries({(("r",), "1", 0): 1}))
        return out

    monkeypatch.setattr(morphisms.BVMorphism, "exp_map", plus_one_letter)
    report = theorem_second_bijection_check(g, g_tw, F, 3)
    assert not report["ok"]
    assert report["intertwining"].witness == {"key": "r"}


def test_a_corrupted_l_infinity_exponential_fails_theorem_second_on_its_word(monkeypatch):
    # the BV-infinity exponential is read off F: one letter too many in F of
    # the word s·q reaches the check as a term at hbar^1
    g = load("bidg4-dglie")
    g_tw, F = twisted_linfty_morphism(g, random.Random(14), 3)
    assert theorem_second_bijection_check(g, g_tw, F, 3)["ok"]
    induced = CoalgebraMorphism.induced

    def plus_one_letter(F):
        out = dict(induced(F))
        out[("s", "q")] = out[("s", "q")].add(HbarSeries({(("s",), "1", 0): 1}))
        return out

    monkeypatch.setattr(CoalgebraMorphism, "induced", plus_one_letter)
    report = theorem_second_bijection_check(g, g_tw, F, 3)
    assert not report["ok"]
    assert report["intertwining"].witness == {"key": "s·q"}


def test_a_corrupted_bracket_value_splits_the_chuang_lazarev_routes(monkeypatch, capsys):
    g = load("bidg4-dglie")
    g_tw, F = twisted_linfty_morphism(g, random.Random(14), 3)
    assert chuang_lazarev_residual(g, g_tw, F) == {}
    assert chuang_lazarev_morphism_defect(g, g_tw, F).ok
    value = LInftyAlgebra.corestriction_value

    def plus_one_letter(g, word):
        # d r = p in bidg4-dglie: l_1 on the word r gains one more p
        out = dict(value(g, word))
        if word == ("r",):
            out["p"] = out.get("p", 0) + 1
        return out

    monkeypatch.setattr(LInftyAlgebra, "corestriction_value", plus_one_letter)
    # F is the identity on letters, so the residual gains p on r (and on
    # the longer words whose exponential has r); the defect applies the
    # codifferential, which does not read the table
    assert chuang_lazarev_residual(g, g_tw, F)[("r",)] == {"p": 1}
    assert chuang_lazarev_morphism_defect(g, g_tw, F).ok
    cli.main(["verify-representability", "chuang-lazarev", str(FIXTURES / "bidg4-dglie.alg"),
              "--instances", "2", "--seed", "5", "--format", "machine"])
    valid = next(c for c in json.loads(capsys.readouterr().out)["certificates"]
                 if c["name"] == "chuang-lazarev-valid")
    assert valid["status"] == "fail" and valid["bounds"] == {"passed": 0, "total": 2}


def test_a_flipped_involutivity_fails_the_ibl_dichotomy(monkeypatch, capsys):
    def dichotomy():
        cli.main(["construct", "ibl", str(FIXTURES / "noninv2.alg"), "--format", "machine"])
        certs = json.loads(capsys.readouterr().out)["certificates"]
        return next(c for c in certs if c["name"] == "involutivity-dichotomy")

    passed = dichotomy()
    assert passed["status"] == "pass" and passed["bounds"] == {"involutive": False}
    involutive = constructions.LieBialgebraData.involutive
    monkeypatch.setattr(constructions.LieBialgebraData, "involutive", lambda B: not involutive(B))
    failed = dichotomy()
    assert failed["status"] == "fail" and failed["bounds"] == {"involutive": True}
