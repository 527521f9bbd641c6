import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mastereq.bv import BVAlgebra, antibracket, qme_residual
from mastereq.constructions import (
    AssociativeAlgebraData,
    BiDgLieData,
    LieBialgebraData,
    bar_bv_from_associative,
    bv_from_bi_dg_lie,
    ce_bv_from_dg_lie,
    ce_bvinfty_from_linfty,
    ce_bv_from_ibl,
    hbar_extended_dg_lie,
)
from mastereq.coalgebra import Coderivation
from mastereq.constructions import _inclusion_report
from mastereq.diagnostics import PreconditionError, StructureError
from mastereq.graded import ONE, GradedVectorSpace, koszul_sign
from mastereq.linfty import DgLieAlgebra
from mastereq.operators import Operator
from mastereq.words import SymmetricWordAlgebra, TensorWordAlgebra, vec_add_into

from alg_fixtures import load


def _ce_delta_oracle(algebra, bracket_labels):
    """The CE Delta term by term from its definition: the sign of each pair
    from `koszul_sign` on the explicit permutation that brings x_j next to
    x_i, and the bracket value multiplied back in place at slot i through
    two `WordAlgebra.mul` calls on the prefix and the rest of the word."""

    def act(word):
        out = {}
        n = len(word)
        degs = [algebra.space.degree(x) for x in word]
        for i in range(n):
            for j in range(i + 1, n):
                value = bracket_labels(word[i], word[j])
                if not value:
                    continue
                prefactor = sum(degs[: i + 1])
                perm = list(range(i + 1)) + [j] + [k for k in range(i + 1, n) if k != j]
                eps = koszul_sign(perm, degs)
                sign = eps if prefactor % 2 == 0 else -eps
                prefix = word[:i]
                suffix = word[i + 1:j] + word[j + 1:]
                for t, c in value.items():
                    mid = algebra.mul({prefix: ONE}, {(t,): c})
                    for w, s in algebra.mul(mid, {suffix: ONE}).items():
                        vec_add_into(out, w, sign * s)
        return out

    return Operator.from_function(algebra, -1, act, name="Delta")


def _derivation_oracle(algebra, d):
    """The extension of a generator map of degree one, the table `d`, as a
    derivation, by its definition: the value multiplied back in place
    through two `WordAlgebra.mul` calls, after passing the prefix with its sign."""

    def act(word):
        out = {}
        for i, x in enumerate(word):
            prefix_degree = sum(algebra.space.degree(u) for u in word[:i])
            sign = -1 if prefix_degree % 2 else 1
            value = {(t,): c for (s, t), c in d.items() if s == x}
            mid = algebra.mul({word[:i]: ONE}, value)
            for w, c in algebra.mul(mid, {word[i + 1:]: ONE}).items():
                vec_add_into(out, w, sign * c)
        return out

    return Operator.from_function(algebra, 1, act, name="d")


def _ce_delta(algebra, bracket):
    """The extension of the table l_2(a, b) = (-1)^{|a|} [a, b] on sorted
    letter pairs, the only pairs the pair sum reads."""
    table = {}
    for (a, b), value in bracket.items():
        if algebra.normalize([a, b]) == ((a, b), 1):
            sign = -1 if algebra.space.degree(a) % 2 else 1
            table[(a, b)] = {(t,): sign * c for t, c in value.items()}
    return Operator.from_function(algebra, -1, Coderivation(algebra, -1, table).expand)


@st.composite
def ce_delta_cases(draw):
    """A symmetric word algebra on 1-4 letters and a sparse degree -1
    bracket; bracket letters are drawn from the same letters, so an odd one
    may already sit in the word it is inserted into."""
    degrees = draw(st.lists(st.integers(-1, 2), min_size=1, max_size=4))
    space = GradedVectorSpace((f"x{i}", d) for i, d in enumerate(degrees))
    A = SymmetricWordAlgebra(space, draw(st.integers(2, 5)))
    terms = [(a, b, t) for a, b in itertools.product(space.labels, repeat=2) for t in space.labels
             if space.degree(t) == space.degree(a) + space.degree(b) - 1]
    coefficients = st.sampled_from((1, -1, 2, Fraction(1, 2), Fraction(-3, 2)))
    bracket: dict = {}
    for a, b, t in draw(st.lists(st.sampled_from(terms), max_size=5)) if terms else []:
        bracket.setdefault((a, b), {})[t] = draw(coefficients)
    return A, bracket


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ce_delta_cases())
def test_ce_delta_closed_form_matches_pair_sum(case):
    A, bracket = case
    labels = lambda a, b: bracket.get((a, b), {})  # noqa: E731
    got, want = _ce_delta(A, bracket), _ce_delta_oracle(A, labels)
    assert got.entries == want.entries
    assert got.defined == want.defined
    types = lambda op: {(w, u): type(c) for w, img in op.entries.items() for u, c in img.items()}  # noqa: E731
    assert types(got) == types(want)


def test_ce_delta_needs_symmetric_words():
    T = TensorWordAlgebra(GradedVectorSpace([("a", 0)]), 2)
    with pytest.raises(PreconditionError, match="symmetric"):
        Coderivation(T, -1, {})


def test_ce_abelian_delta_zero():
    bv = ce_bv_from_dg_lie(load("abelian2"), 4)
    assert not bv.delta.entries
    assert bv.is_certified()


def test_ce_heis3_delta_values():
    bv = ce_bv_from_dg_lie(load("heis3"), 4)
    assert bv.delta.entries.get(("x", "y")) == {("z",): -1}
    assert bv.delta.entries.get(("x", "z"), {}) == {}
    assert bv.is_certified()


def test_ce_sl2_certified():
    bv = ce_bv_from_dg_lie(load("sl2"), 4)
    report = {r.name: r.ok for r in bv.certify()}
    assert all(report.values()), report


def test_ce_order_one_fails_for_nonzero_bracket():
    from mastereq.operators import operator_order_check
    bv = ce_bv_from_dg_lie(load("heis3"), 4)
    low = operator_order_check(bv.algebra, bv.delta, 1)
    assert not low.ok
    assert low.witness["word"] == "1"
    high = operator_order_check(bv.algebra, bv.delta, 2)
    assert high.ok


def test_ce_corrupted_constant_fails_with_witness():
    space = GradedVectorSpace([("x", 0), ("y", 0), ("z", 0)])
    bad = DgLieAlgebra(space, {}, {("x", "y"): {"z": 1}, ("x", "z"): {"x": 1}},
                       name="bad", validate=False)
    bv = ce_bv_from_dg_lie(bad, 4)
    report = {r.name: r for r in bv.certify()}
    assert not report["delta-squared"].ok
    assert report["delta-squared"].witness is not None


def test_bidg_rows_name_the_first_failing_word():
    # delta(q) = -p alone: [delta, d](s) = delta(q) = -p, and delta[s,q] = p
    # while [delta s, q] + [s, delta q] = 0; S(g[1]) lists s before q
    B = load("bidg4")
    bad = BiDgLieData(B.space.basis, B.lie.bracket, B.lie.d, {("q", "p"): -1}, name="bad")
    rows = {r.name: (r.ok, r.witness) for r in bad.axiom_report()}
    assert rows == {"d-squared": (True, None), "leibniz": (True, None), "jacobi": (True, None),
                    "delta-squared": (True, None), "[delta,d]": (False, ("s",)),
                    "delta-derivation": (False, ("s", "q"))}


def test_ce_bvinfty_matches_explicit_delta():
    for name in ("heis3", "sl2", "aff2", "lift3", "bidg4-dglie", "two-target"):
        L = load(name)
        bv = ce_bv_from_dg_lie(L, 4)
        assert bv.delta.entries == _ce_delta_oracle(bv.algebra, L.bracket_labels).entries, name
        assert bv.d.entries == _derivation_oracle(bv.algebra, L.d).entries, name
        bvi = ce_bvinfty_from_linfty(L, 4)
        assert bvi.operators.get(2, None) is None or \
            bvi.operators[2].entries == bv.delta.entries, name
        if 1 in bvi.operators:
            assert bvi.operators[1].entries == bv.d.entries, name
        assert bvi.is_certified(), name


def test_ce_d_keeps_every_target_of_a_generator():
    # d x = y + z: both terms reach the CE differential
    bv = ce_bv_from_dg_lie(load("two-target"), 2)
    assert bv.d.entries[("x",)] == {("y",): 1, ("z",): 1}
    assert bv.d.entries[("x", "y")] == {("y", "y"): 1, ("y", "z"): 1}


@pytest.mark.parametrize("build", [
    lambda: ce_bv_from_dg_lie(load("heis3"), 0),
    lambda: ce_bvinfty_from_linfty(load("l3demo"), 0),
    lambda: bar_bv_from_associative(load("dual-numbers"), 0),
], ids=["ce", "ce-bvinfty", "bar"])
def test_a_word_length_below_one_names_the_window(build):
    with pytest.raises(PreconditionError, match="word-length truncation N = 0 is below 1"):
        build()


def test_ce_antibracket_recovers_bracket():
    bv = ce_bv_from_dg_lie(load("heis3"), 4)
    assert antibracket(bv, ("x",), ("y",)) == {("z",): 1}
    for w in bv.algebra.words:
        assert antibracket(bv, (), w) == {}


def test_ibl_zero_cobracket_reduces_to_ce():
    B = load("heis3-zero-cobracket")
    bv, report = ce_bv_from_ibl(B, 4)
    assert report["involutive"]
    assert report["commutator_vanishes"]
    assert bv.is_certified()
    assert not bv.d.entries


def test_ibl_noninvolutive_witness():
    B = load("noninv2")
    assert all(r.ok for r in B.axiom_report())
    assert not B.involutive()
    bv, report = ce_bv_from_ibl(B, 4)
    assert not report["involutive"]
    assert not report["commutator_vanishes"]
    assert report["witness"] is not None


def test_ibl_involutive_fixture_full_certification():
    B = load("inv3")
    assert all(r.ok for r in B.axiom_report())
    assert B.involutive()
    bv, report = ce_bv_from_ibl(B, 4)
    assert report["commutator_vanishes"]
    assert bv.is_certified()
    assert bv.d.entries  # the cobracket genuinely acts


def test_ibl_bad_bialgebra_rejected():
    # heis3 bracket with delta(x) = x^y violates the cocycle condition:
    # delta([x,y]) = 0 but x.delta(y) - y.delta(x) = z^y != 0
    with pytest.raises(StructureError):
        B = LieBialgebraData([("x", 0), ("y", 0), ("z", 0)], {("x", "y"): {"z": 1}},
                             {"x": {("x", "y"): 1}}, name="badbialg")
        ce_bv_from_ibl(B, 4)


def test_bidg_trivial():
    B = BiDgLieData([("a", 0), ("b", 1)], {}, {}, {}, name="abelian-zero")
    bv, report = bv_from_bi_dg_lie(B, 4)
    assert bv.is_certified()
    assert not bv.d.entries and not bv.delta.entries


def test_bidg_schouten_on_generators():
    # with d = Delta = 0 the extension is pure bracket contraction
    space = [("x", 0), ("y", 0), ("z", 0)]
    B = BiDgLieData(space, {("x", "y"): {"z": 1}}, {}, {}, name="heis3-bidg")
    bv, report = bv_from_bi_dg_lie(B, 4)
    assert bv.is_certified()
    assert all(r.ok for r in report["inclusion"])
    assert antibracket(bv, ("x",), ("y",)) == {("z",): 1}


def test_bidg_delta_recursion_on_word_pairs():
    # the displayed recursion Delta(ab) = (Delta a)b + (-1)^{|a|} a (Delta b)
    # + (-1)^{|a|} {a,b}, unrolled over all pairs of words of length <= 2
    B = load("bidg4")
    bv, _ = bv_from_bi_dg_lie(B, 4)
    A = bv.algebra
    words = [w for w in A.words if 0 < len(w) <= 2]
    for a in words:
        for b in words:
            ab = A.mul_words(a, b)
            lhs = {}
            for w, c in ab.items():
                for u, v in bv.delta.entries.get(w, {}).items():
                    lhs[u] = lhs.get(u, 0) + c * v
            sa = -1 if A.degree(a) % 2 else 1
            rhs = {}
            for u, v in A.mul(bv.delta.entries.get(a, {}), {b: Fraction(1)}).items():
                rhs[u] = rhs.get(u, 0) + v
            for u, v in A.mul({a: Fraction(1)}, bv.delta.entries.get(b, {})).items():
                rhs[u] = rhs.get(u, 0) + sa * v
            for u, v in antibracket(bv, a, b).items():
                rhs[u] = rhs.get(u, 0) + sa * v
            diff = dict(lhs)
            for u, v in rhs.items():
                diff[u] = diff.get(u, 0) - v
            assert not any(diff.values()), (a, b)


def test_bidg4_full_certification_and_inclusion():
    B = load("bidg4")
    assert all(r.ok for r in B.axiom_report())
    bv, report = bv_from_bi_dg_lie(B, 4)
    cert = {r.name: r.ok for r in bv.certify()}
    assert all(cert.values()), cert
    assert all(r.ok for r in report["inclusion"])


def test_bidg_inclusion_keeps_every_target_of_a_generator():
    bv, report = bv_from_bi_dg_lie(load("two-target-bidg"), 4)
    assert bv.d.entries[("x",)] == {("y",): 1, ("z",): 1}
    assert all(r.ok for r in report["inclusion"])


@pytest.mark.parametrize("operator", ["d", "delta"])
def test_bidg_inclusion_names_the_generator_whose_image_differs(operator):
    # negative control: one entry of the BV operator on a letter moves
    B = load("bidg4")
    bv, _ = bv_from_bi_dg_lie(B, 4)
    op = getattr(bv, operator)
    x, (target, c) = "s", next(iter(op.entries[("s",)].items()))
    entries = {w: dict(img) for w, img in op.entries.items()}
    entries[(x,)][target] = c + 1
    bad_op = Operator(bv.algebra, op.degree, entries, op.defined, op.name)
    d, delta = (bad_op, bv.delta) if operator == "d" else (bv.d, bad_op)
    results = {r.name: r for r in _inclusion_report(BVAlgebra(bv.algebra, d, delta), B)}
    result = results[f"inclusion-{operator}"]
    assert not result.ok
    label = bv.algebra.label(target)
    assert result.witness == {"generator": x,
                              "operator": {label: str(c + 1)},
                              "generator_map": {label: str(c)}}
    assert results["inclusion-delta" if operator == "d" else "inclusion-d"].ok


def test_bidg_hbar_extension_is_dg_lie():
    B = load("bidg4")
    gh = hbar_extended_dg_lie(B, 3)
    assert all(r.ok for r in gh.axiom_report())
    assert gh.space.degree("q@h1") == 3


def test_bar_ground_field():
    A = AssociativeAlgebraData([("u", 0)], {("u", "u"): {"u": 1}}, name="ground-field")
    bv, info = bar_bv_from_associative(A, 4)
    assert info["associator_witness"] is None
    assert bv.is_certified()
    # Delta(u(x)u) = u·u = u with the sign (-1)^{|u|}
    assert bv.delta.entries.get(("u", "u")) == {("u",): -1}


def test_bar_dual_numbers():
    A = load("dual-numbers")
    bv, info = bar_bv_from_associative(A, 4)
    assert info["associator_witness"] is None
    assert bv.delta.entries.get(("eps", "eps"), {}) == {}
    cert = {r.name: r.ok for r in bv.certify()}
    assert all(cert.values()), cert


def test_bar_nonassociative_witness():
    A = load("nonassoc3")
    bv, info = bar_bv_from_associative(A, 4)
    assert info["associator_witness"] == ("u", "u", "u")
    report = {r.name: r for r in bv.certify()}
    assert not report["delta-squared"].ok
    assert report["delta-squared"].witness["word"] == "u⊗u⊗u"


def test_bar_delta_order_two():
    A = load("dual-numbers")
    bv, _ = bar_bv_from_associative(A, 4)
    from mastereq.operators import operator_order_check
    assert operator_order_check(bv.algebra, bv.delta, 2).ok
