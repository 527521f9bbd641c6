import itertools
import random
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
    # while [delta s, q] + [s, delta q] = 0; S(g[1]) lists s before q.  Each
    # witness carries its row's corestriction there, with the signs of S(g[1])
    B = load("bidg4")
    bad = BiDgLieData(B.space.basis, B.lie.bracket, B.lie.d, {("q", "p"): -1}, name="bad")
    rows = {r.name: (r.ok, r.witness) for r in bad.axiom_report()}
    assert rows == {"d-squared": (True, None), "leibniz": (True, None), "jacobi": (True, None),
                    "delta-squared": (True, None),
                    "[delta,d]": (False, {"word": "s", "value": {"p": "-1"}}),
                    "delta-derivation": (False, {"word": "s·q", "value": {"p": "-1"}})}


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
    with pytest.raises(StructureError, match="bialgebra axiom cocycle fails") as err:
        ce_bv_from_ibl(load("cocycle-violator-ibl"), 4)
    assert err.value.witness["test_vectors"] == ["x", "y"]


def _add_pair(space, acc, a, b, coeff):
    if a == b or not coeff:
        return
    if space.index(a) > space.index(b):
        a, b, coeff = b, a, -coeff
    vec_add_into(acc, (a, b), coeff)


def _wedge_action(B, x, pair_vec):
    # x . (a ^ b) = [x,a] ^ b + a ^ [x,b], kept in canonical pair order
    out = {}
    for (a, b), c in pair_vec.items():
        for t, v in B.lie.bracket_labels(x, a).items():
            _add_pair(B.space, out, t, b, c * v)
        for t, v in B.lie.bracket_labels(x, b).items():
            _add_pair(B.space, out, a, t, c * v)
    return out


def cocycle_oracle(B):
    """The cocycle condition delta[x, y] = x.delta(y) - y.delta(x) as a loop
    over all ordered generator pairs; the first failing pair, or None."""
    for x in B.space.labels:
        for y in B.space.labels:
            lhs = {}
            for t, v in B.lie.bracket_labels(x, y).items():
                for pair, c in B.delta_vec(t).items():
                    vec_add_into(lhs, pair, c * v)
            rhs = _wedge_action(B, x, B.delta_vec(y))
            for pair, c in _wedge_action(B, y, B.delta_vec(x)).items():
                vec_add_into(rhs, pair, -c)
            for pair, c in rhs.items():
                vec_add_into(lhs, pair, -c)
            if any(lhs.values()):
                return (x, y)
    return None


def co_jacobi_oracle(B):
    """co-Jacobi as the alternation of (delta (x) id) delta on each generator,
    a loop over tensor triples; the first failing generator, or None."""

    def add_cyclic(acc, u, v, w, coeff):
        # antisymmetrized tensor (u^v)(x)w summed over cyclic rotations
        for (p, q, r) in ((u, v, w), (w, u, v), (v, w, u)):
            vec_add_into(acc, (p, q, r), coeff)
            vec_add_into(acc, (q, p, r), -coeff)

    for x in B.space.labels:
        acc = {}
        for (a, b), c in B.delta_vec(x).items():
            for (u, v), c2 in B.delta_vec(a).items():
                add_cyclic(acc, u, v, b, c * c2)
            for (u, v), c2 in B.delta_vec(b).items():
                add_cyclic(acc, u, v, a, -c * c2)
        if any(acc.values()):
            return x
    return None


def associator_oracle(A):
    """(ab)c - a(bc) over all generator triples; the first failing triple, or None."""
    for a, b, c in itertools.product(A.space.labels, repeat=3):
        left = {}
        for t, v in A.mul_labels(a, b).items():
            for u, v2 in A.mul_labels(t, c).items():
                vec_add_into(left, u, v * v2)
        for t, v in A.mul_labels(b, c).items():
            for u, v2 in A.mul_labels(a, t).items():
                vec_add_into(left, u, -v * v2)
        if any(left.values()):
            return (a, b, c)
    return None


def _d_image(A, x):
    return {t: c for (s, t), c in A.d.items() if s == x}


def d_squared_oracle(A):
    """d(d(x)) over all generators; the first failing one with its nonzero
    value, or None."""
    for x in A.space.labels:
        out = {}
        for t, c in _d_image(A, x).items():
            for u, c2 in _d_image(A, t).items():
                vec_add_into(out, u, c * c2)
        if any(out.values()):
            return (x,), {u: c for u, c in out.items() if c}
    return None


def leibniz_oracle(A):
    """d(ab) - d(a)b - (-1)^|a| a d(b) over all generator pairs; the first
    failing pair with the nonzero defect, or None."""
    for a, b in itertools.product(A.space.labels, repeat=2):
        out = {}
        for t, v in A.mul_labels(a, b).items():
            for u, c in _d_image(A, t).items():
                vec_add_into(out, u, v * c)
        for t, c in _d_image(A, a).items():
            for u, v in A.mul_labels(t, b).items():
                vec_add_into(out, u, -c * v)
        sign = -1 if A.space.degree(a) % 2 else 1
        for t, c in _d_image(A, b).items():
            for u, v in A.mul_labels(a, t).items():
                vec_add_into(out, u, -sign * c * v)
        if any(out.values()):
            return (a, b), {u: c for u, c in out.items() if c}
    return None


def _lie_algebras():
    """Degree-zero Lie algebras of dimension 2-5 as (basis, bracket): four
    fixtures, the abelian one on four letters (where co-Jacobi can fail with
    every other row passing), gl2 = sl2 + k c and sl2 acting on k^2 by p, q."""
    out = {name: (load(name).space.basis, load(name).bracket)
           for name in ("abelian2", "aff2", "heis3", "sl2")}
    out["abelian4"] = (load("co-jacobi-violator-ibl").space.basis, {})
    basis, bracket = out["sl2"]
    out["gl2"] = ((*basis, ("c", 0)), bracket)
    out["sl2-k2"] = ((*basis, ("p", 0), ("q", 0)),
                     {**bracket, ("h", "p"): {"p": 1}, ("h", "q"): {"q": -1},
                      ("e", "q"): {"p": 1}, ("f", "p"): {"q": 1}})
    return out


LIE_ALGEBRAS = _lie_algebras()


def _random_bialgebra(rng):
    """A random cobracket on one of `LIE_ALGEBRAS`: a sparse free one, a
    coboundary delta(x) = x.r of a random r in g ^ g (a cocycle, with
    co-Jacobi by chance), or a coboundary with one free term added."""
    name = rng.choice(sorted(LIE_ALGEBRAS))
    basis, bracket = LIE_ALGEBRAS[name]
    B = LieBialgebraData(basis, bracket, {}, name=name)
    pairs = list(itertools.combinations(B.space.labels, 2))
    mode = rng.choice(("free", "coboundary", "perturbed"))
    cobracket = {}
    if mode != "free":
        r = {pair: rng.choice((-1, 0, 0, 1, 2)) for pair in pairs}
        for x in B.space.labels:
            value = _wedge_action(B, x, r)
            if value:
                cobracket[x] = value
    if mode == "free":
        terms = [(x, pair) for x in B.space.labels for pair in pairs if rng.random() < 1 / len(pairs)]
    elif mode == "perturbed":
        terms = [(rng.choice(B.space.labels), rng.choice(pairs))]
    else:
        terms = []
    for x, pair in terms:
        vec_add_into(cobracket.setdefault(x, {}), pair, rng.choice((-1, 1, 2)))
    return LieBialgebraData(basis, bracket, cobracket, name=name)


def _bialgebra_rows(B):
    rows = {r.name: r for r in B.axiom_report()}
    return rows["co-jacobi"], rows["cocycle"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 10**9))
def test_bialgebra_rows_agree_with_the_tensor_loops(seed):
    # d^2 on letters is co-Jacobi, and the second-order part of [Delta, d]
    # on letter pairs is the cocycle condition, with the same first pair
    B = _random_bialgebra(random.Random(seed))
    co_jacobi, cocycle = _bialgebra_rows(B)
    assert co_jacobi.ok == (co_jacobi_oracle(B) is None)
    witness = cocycle_oracle(B)
    assert cocycle.ok == (witness is None)
    if witness is not None:
        assert tuple(cocycle.witness["test_vectors"]) == witness


def test_random_bialgebras_reach_every_verdict():
    # the property above sees every (co-jacobi, cocycle, involutive) combination
    seen = set()
    for seed in range(300):
        B = _random_bialgebra(random.Random(seed))
        seen.add((*(r.ok for r in _bialgebra_rows(B)), B.involutive()))
    assert len(seen) == 8, seen


@pytest.mark.parametrize("name,failing,witness", [
    ("cocycle-violator-ibl", "cocycle", {"test_vectors": ["x", "y"], "value": {"y·z": "-1"}}),
    ("co-jacobi-violator-ibl", "co-jacobi", {"word": "a", "value": {"a·b·d": "1"}}),
])
def test_bialgebra_violators_fail_one_row(name, failing, witness):
    B = load(name)
    rows = {r.name: r for r in B.axiom_report()}
    assert [r.name for r in rows.values() if not r.ok] == [failing]
    assert rows[failing].witness == witness
    oracle = {"cocycle": cocycle_oracle, "co-jacobi": co_jacobi_oracle}
    assert all((oracle[row](B) is None) == (row != failing) for row in oracle)


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
    bv = bar_bv_from_associative(A, 4)
    assert associator_oracle(A) is None and all(A.axiom_report())
    assert bv.is_certified()
    # Delta(u(x)u) = u·u = u with the sign (-1)^{|u|}
    assert bv.delta.entries.get(("u", "u")) == {("u",): -1}


def test_bar_dual_numbers():
    A = load("dual-numbers")
    bv = bar_bv_from_associative(A, 4)
    assert associator_oracle(A) is None and all(A.axiom_report())
    assert bv.delta.entries.get(("eps", "eps"), {}) == {}
    cert = {r.name: r.ok for r in bv.certify()}
    assert all(cert.values()), cert


def test_bar_nonassociative_witness():
    A = load("nonassoc3")
    bv = bar_bv_from_associative(A, 4)
    assert associator_oracle(A) == ("u", "u", "u")
    [row] = A.axiom_report()
    assert (row.name, row.ok, row.witness) == ("associativity", False,
                                               {"word": "u⊗u⊗u", "value": {"u": "-1"}})
    report = {r.name: r for r in bv.certify()}
    assert not report["delta-squared"].ok
    assert report["delta-squared"].witness["word"] == "u⊗u⊗u"


def _random_associative(rng):
    """1-3 letters of degrees -1..1 and a sparse product of degree zero, each
    allowed (a, b, target) slot filled with probability 0.3."""
    space = GradedVectorSpace([(f"u{i}", rng.randint(-1, 1)) for i in range(rng.randint(1, 3))])
    product = {}
    for a, b, t in itertools.product(space.labels, repeat=3):
        if space.degree(t) == space.degree(a) + space.degree(b) and rng.random() < 0.3:
            product.setdefault((a, b), {})[t] = rng.choice((-1, 1, 2))
    return AssociativeAlgebraData(space.basis, product, name="random")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 10**9))
def test_associativity_row_agrees_with_the_triple_loop(seed):
    # Delta^2 on three-letter bar words is the associator up to sign, and
    # the first failing word is the first failing triple
    A = _random_associative(random.Random(seed))
    [row] = A.axiom_report()
    witness = associator_oracle(A)
    assert row.ok == (witness is None)
    if witness is not None:
        assert row.witness["word"] == "⊗".join(witness)


def _random_dg_associative(rng):
    """`_random_associative` with a sparse differential of degree one, each
    allowed (source, target) slot filled with probability 0.4; one draw in
    four drops the product, so that d alone decides both rows."""
    A = _random_associative(rng)
    d = {(s, t): rng.choice((-1, 1, 2)) for s, t in itertools.product(A.space.labels, repeat=2)
         if A.space.degree(t) == A.space.degree(s) + 1 and rng.random() < 0.4}
    product = A.product if rng.random() < 0.75 else {}
    return AssociativeAlgebraData(A.space.basis, product, d, name="random-dg")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 10**9))
def test_differential_rows_agree_with_the_generator_loops(seed):
    # d^2 on bar words vanishes where it does on letters, and [Delta, d] on
    # a two-letter bar word a (x) b is the Leibniz defect times -(-1)^|a|,
    # with the same first failing pair; without a differential neither row
    # is reported
    A = _random_dg_associative(random.Random(seed))
    rows = {r.name: r for r in A.axiom_report()}
    if not A.d:
        assert list(rows) == ["associativity"]
        return
    assert list(rows) == ["associativity", "d-squared", "leibniz"]
    for name, failure, sign in (("d-squared", d_squared_oracle(A), lambda word: 1),
                                ("leibniz", leibniz_oracle(A),
                                 lambda word: 1 if A.space.degree(word[0]) % 2 else -1)):
        assert rows[name].ok == (failure is None)
        if failure is not None:
            word, value = failure
            assert rows[name].witness == {"word": "⊗".join(word),
                                          "value": {u: str(sign(word) * c) for u, c in value.items()}}


def test_random_differentials_reach_every_verdict():
    # the property above sees each (d-squared, leibniz) pair of verdicts, and
    # both verdicts of associativity
    rows = [A.axiom_report() for A in map(_random_dg_associative, map(random.Random, range(300)))
            if A.d]
    assert len({(r[1].ok, r[2].ok) for r in rows}) == 4
    assert {r[0].ok for r in rows} == {True, False}


def test_leibniz_violator_fails_one_row():
    # y·y = y and d x = y: d(x·y) = 0, but d(x)·y = y
    A = load("leibniz-violator-assoc")
    rows = {r.name: r for r in A.axiom_report()}
    assert [name for name, r in rows.items() if not r.ok] == ["leibniz"]
    assert rows["leibniz"].witness == {"word": "x⊗y", "value": {"y": "-1"}}
    assert leibniz_oracle(A) == (("x", "y"), {"y": -1}) and d_squared_oracle(A) is None
    # construct ttw certifies the same operator as [delta,d]
    report = {r.name: r for r in bar_bv_from_associative(A, 4).certify()}
    assert report["[delta,d]"].witness == rows["leibniz"].witness


def test_random_products_pass_and_fail():
    verdicts = [all(_random_associative(random.Random(seed)).axiom_report()) for seed in range(300)]
    assert 0 < verdicts.count(False) < len(verdicts)


def test_bar_delta_order_two():
    A = load("dual-numbers")
    bv = bar_bv_from_associative(A, 4)
    from mastereq.operators import operator_order_check
    assert operator_order_check(bv.algebra, bv.delta, 2).ok
