"""Input-only structures are built once per owner object and shared.

The codifferential and `axiom_report` of an algebra, `coderivation_dg_lie`,
`hbar_extended_dg_lie`, `bv_from_bi_dg_lie`, `ce_bvinfty_from_linfty`,
`BVMorphism.exp_map` and the duals of a parameter ring depend only on their
input, so batteries that call them once per instance must not rebuild them.
An L-infinity morphism is one `CoalgebraMorphism`, whose one exponential
both Chuang-Lazarev routes read, and the corollary's two comparisons read
one Maurer-Cartan residual.
A build that raises is not kept.  The word algebras S(V[1]) and S(V[-1])
belong to the space V, so every algebra built on V (a twisted algebra is
built on its parent's) shares one word basis and one coproduct table.
"""

import contextlib
import io
import random

import pytest

from mastereq import artin, bv, cli, coalgebra, constructions, linfty, morphisms, words
from mastereq.artin import power_ring
from mastereq.coalgebra import CoalgebraMorphism
from mastereq.constructions import (
    BiDgLieData,
    bv_from_bi_dg_lie,
    ce_bvinfty_from_linfty,
    hbar_extended_dg_lie,
)
from mastereq.diagnostics import StructureError
from mastereq.graded import GradedVectorSpace
from mastereq.linfty import DgLieAlgebra, LInftyAlgebra, coderivation_dg_lie
from mastereq.series import HbarSeries

from alg_fixtures import FIXTURES, load


def bidg4(**changes):
    """bidg4 from its manifest, rebuilt with the given fields replaced."""
    B = load("bidg4")
    fields = {"basis": B.space.basis, "bracket": B.lie.bracket, "d": B.lie.d,
              "delta": B.delta, **changes}
    return BiDgLieData(**fields, name=B.name)


def test_a_dg_lie_algebra_shares_its_codifferential():
    # the algebra is its own L-infinity algebra: validation built D on
    # S(g[1]) cut at 3, and every later caller gets that one
    g = load("heis3")
    assert isinstance(g, LInftyAlgebra)
    D = g.codifferential(3)
    assert g.codifferential(3) is D
    assert D.algebra is g.word_algebra(3)


def test_coderivation_dg_lie_built_once_per_parameters():
    g = load("heis3")
    first = coderivation_dg_lie(g, 3)
    assert coderivation_dg_lie(g, 3) is first
    assert coderivation_dg_lie(g, 2) is not first
    assert coderivation_dg_lie(load("heis3"), 3) is not first
    assert all(r.ok for r in first[0].axiom_report())


def test_bidg_builders_built_once_per_parameters():
    B = bidg4()
    gh = hbar_extended_dg_lie(B, 3)
    assert hbar_extended_dg_lie(B, 3) is gh
    assert hbar_extended_dg_lie(B, 2) is not gh
    built = bv_from_bi_dg_lie(B, 4)
    assert bv_from_bi_dg_lie(B, 4) is built
    assert bv_from_bi_dg_lie(B, 3) is not built


def test_ce_bvinfty_from_linfty_built_once_per_parameters():
    g = load("heis3")
    V = ce_bvinfty_from_linfty(g, 3, 3)
    assert ce_bvinfty_from_linfty(g, 3, 3) is V
    others = [ce_bvinfty_from_linfty(g, 2, 3), ce_bvinfty_from_linfty(g, 3, 2),
              ce_bvinfty_from_linfty(load("heis3"), 3, 3)]
    assert all(other is not V for other in others)


def _counted(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_theorem_second_builds_its_source_and_exponential_once(monkeypatch):
    g = load("bidg4-dglie")
    g_tw, F = morphisms.twisted_linfty_morphism(g, random.Random(17), 3)
    exps = _counted(monkeypatch, morphisms, "conv_exp")
    builds = _counted(monkeypatch, constructions, "_build_ce_bvinfty_from_linfty")
    assert morphisms.theorem_second_bijection_check(g, g_tw, F, 3)["ok"]
    # one exp(S/hbar) serves the intertwining check; the source S(g_tw[-1])
    # and the target S(g[-1]) are built once each
    assert (len(exps), len(builds)) == (1, 2)
    key = sorted(F.corestriction)[-1]
    table = dict(F.corestriction)
    table[key] = {t: c + 1 for t, c in table[key].items()}
    bad = CoalgebraMorphism(F.source, F.target, table)
    assert not morphisms.theorem_second_bijection_check(g, g_tw, bad, 3)["ok"]
    # a corrupted attempt on the same twisted algebra reuses both
    assert (len(exps), len(builds)) == (2, 2)


def _quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([*argv, "--format", "machine"])


@pytest.mark.parametrize("theorem, algebra, built", [("chuang-lazarev", "sl2.alg", 40),
                                                     ("theorem-second", "bidg4-dglie.alg", 64)])
def test_an_l_infinity_morphism_builds_its_exponential_once(monkeypatch, theorem, algebra, built):
    # chuang-lazarev: one exp(S) per twisted instance and per corrupted
    # attempt, which both of its routes read; theorem-second adds exp(S/hbar)
    # of the BV-infinity morphism to each
    exps = [_counted(monkeypatch, module, "conv_exp") for module in (coalgebra, linfty, morphisms)]
    assert _quiet(["verify-representability", theorem, str(FIXTURES / algebra), "--seed", "5"]) == 0
    assert sum(map(len, exps)) == built


def test_corollary_computes_one_maurer_cartan_residual_per_instance(monkeypatch):
    # the Quillen check and the comparison with the direct residual read one
    residuals = [_counted(monkeypatch, module, "emce_residual") for module in (linfty, constructions)]
    argv = ["verify-representability", "corollary-bidg", str(FIXTURES / "bidg4.alg"),
            "--ring", str(FIXTURES / "ring-t3.alg")]
    assert _quiet(argv) == 0
    assert sum(map(len, residuals)) == 20


def test_failed_builds_raise_on_every_call():
    B = bidg4(delta={("q", "p"): -1})  # [delta, d] != 0
    for _ in range(2):
        with pytest.raises(StructureError):
            bv_from_bi_dg_lie(B, 4)
        with pytest.raises(StructureError):
            hbar_extended_dg_lie(B, 3)
    space = GradedVectorSpace([("x", 0), ("y", 0), ("z", 0)])
    bad = DgLieAlgebra(space, {}, {("x", "y"): {"z": 1}, ("x", "z"): {"x": 1}},
                       name="bad", validate=False)
    # the coderivation algebra is built unvalidated; its axioms report the fault
    coder, _ = coderivation_dg_lie(bad, 3)
    assert not all(r.ok for r in coder.axiom_report())


def test_same_name_different_delta_not_shared():
    B, B0 = bidg4(), bidg4(delta={})
    assert B.name == B0.name
    assert bv_from_bi_dg_lie(B, 4)[0].delta.entries != bv_from_bi_dg_lie(B0, 4)[0].delta.entries
    assert hbar_extended_dg_lie(B, 3).d != hbar_extended_dg_lie(B0, 3).d


def _dg_lie_work(monkeypatch, argv, instances):
    """(dg-Lie algebras constructed, axiom reports run) by one CLI command."""
    built, reports = [], []
    original_init, original_report = DgLieAlgebra.__init__, DgLieAlgebra.axiom_report

    def counted_init(self, *args, **kwargs):
        built.append(1)
        original_init(self, *args, **kwargs)

    def counted_report(self):
        reports.append(self.name)
        return original_report(self)

    monkeypatch.setattr(DgLieAlgebra, "__init__", counted_init)
    monkeypatch.setattr(DgLieAlgebra, "axiom_report", counted_report)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*argv, "--instances", str(instances), "--seed", "5", "--format", "machine"])
    monkeypatch.undo()
    assert code == 0
    return len(built), len(reports)


@pytest.mark.parametrize("theorem, algebra", [("quillen", "heis3.alg"), ("corollary-bidg", "bidg4.alg")])
def test_input_only_work_does_not_grow_with_instances(monkeypatch, theorem, algebra):
    argv = ["verify-representability", theorem, str(FIXTURES / algebra),
            "--ring", str(FIXTURES / "ring-t3.alg")]
    assert _dg_lie_work(monkeypatch, argv, 2) == _dg_lie_work(monkeypatch, argv, 20)


def test_a_ring_builds_its_duals_once(monkeypatch):
    # exp(S), the coproduct check and its control all read R*: one dual per
    # ring and kind in a whole battery, however many instances it draws
    built = []
    init = artin.DualRingCoalgebra.__init__

    def counted(self, ring):
        built.append((type(self), ring))
        init(self, ring)

    monkeypatch.setattr(artin.DualRingCoalgebra, "__init__", counted)
    argv = ["verify-representability", "quillen", str(FIXTURES / "heis3.alg"),
            "--ring", str(FIXTURES / "ring-t3.alg"), "--instances", "5", "--seed", "5", "--format", "machine"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert built and len(built) == len({(kind, id(ring)) for kind, ring in built})


def test_twisted_algebra_shares_its_parents_word_algebras():
    g = load("heis3")
    g_tw, _ = morphisms.twisted_linfty_morphism(g, random.Random(3), 3)
    assert ce_bvinfty_from_linfty(g_tw, 3, 3).algebra is ce_bvinfty_from_linfty(g, 3, 3).algebra
    assert g_tw.word_algebra(3) is g.word_algebra(3)
    # the space owns them: an equal space built elsewhere does not share
    assert load("heis3").word_algebra(3) is not g.word_algebra(3)


@pytest.mark.parametrize("theorem", ["theorem-second", "chuang-lazarev"])
def test_battery_unshuffles_each_word_once(monkeypatch, theorem):
    seen = {}
    original = words.WordAlgebra._shuffle_coproduct

    def counted(self, word):
        key = (self.space, word)  # one word of one word basis
        seen[key] = seen.get(key, 0) + 1
        return original(self, word)

    monkeypatch.setattr(words.WordAlgebra, "_shuffle_coproduct", counted)
    argv = ["verify-representability", theorem, str(FIXTURES / "heis3.alg"),
            "--instances", "5", "--seed", "5", "--format", "machine"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert seen and max(seen.values()) == 1


@pytest.mark.parametrize("argv", [["check", "heis3.alg"], ["check", "bidg4.alg"], ["check", "inv3.alg"],
                                  ["construct", "bi-dg", "bidg4.alg"]],
                         ids=["check-heis3", "check-bidg4", "check-inv3", "construct-bi-dg-bidg4"])
def test_dg_lie_axioms_are_computed_once_per_algebra(monkeypatch, argv):
    # parsing validates the dg-Lie algebra; the report shows those results:
    # one set of D^2 rows, each row's words scanned once
    reports = _counted(monkeypatch, LInftyAlgebra, "square_zero_rows")
    rows = _counted(monkeypatch, linfty, "corestriction_defect")
    *command, name = argv
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*command, str(FIXTURES / name), "--format", "machine"]) == 0
    assert (len(reports), len(rows)) == (1, 3)


def test_a_dg_bv_algebra_is_certified_once(monkeypatch):
    # the QME check reads the algebra's own certificates: no BV-infinity copy
    # of the same operators is certified again
    names = []
    order_check = bv.operator_order_check

    def spy(*args, **kwargs):
        names.append(kwargs["name"])
        return order_check(*args, **kwargs)

    monkeypatch.setattr(bv, "operator_order_check", spy)
    V = constructions.ce_bv_from_dg_lie(load("sl2"), 4)
    assert all(V.certify())
    assert bv.qme_exp_check(V, power_ring(3), HbarSeries())["ok"]
    assert names == ["d order<=1", "delta order<=2"]
