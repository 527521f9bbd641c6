import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mastereq.artin import TRIVIAL_RING, power_ring
from mastereq.coalgebra import (
    CoalgebraMorphism,
    Coderivation,
    _conv_exp_series,
    conv_exp,
    conv_log,
    conv_unit,
    convolve,
    corestriction_defect,
)
from mastereq.diagnostics import CheckResult, PreconditionError
from mastereq.graded import GradedVectorSpace
from mastereq.series import HbarSeries, SeriesContext
from mastereq.words import SymmetricWordAlgebra, TensorWordAlgebra, TruncationOverflow, vec_add_into

HEIS1 = GradedVectorSpace([("x", -1), ("y", -1), ("z", -1)])  # heis3[1]
ABELIAN2 = GradedVectorSpace([("x", -1), ("y", -1)])


def codifferential_oracle(D, name="codifferential"):
    """D^2 = 0 on every word of the window by applying D twice, word by
    word: the full D∘D loop, the oracle of
    `LInftyAlgebra.square_zero_rows`, which reads the corestriction of D^2
    instead.  The witness is the first
    failing word and D^2 of it."""
    algebra = D.algebra
    bound = {"word_length": algebra.max_len}
    for w in algebra.words:
        square = D.apply(D.expand(w))
        if any(square.values()):
            witness = {"word": algebra.label(w),
                       "value": {algebra.label(u): str(c) for u, c in sorted(square.items()) if c}}
            return CheckResult(name, False, witness=witness, bound=bound)
    return CheckResult(name, True, bound=bound)


def heis_codifferential(n=4):
    A = SymmetricWordAlgebra(HEIS1, n)
    # l_2(x,y) = (-1)^{|x|}[x,y] = -z for the canonical word x·y
    D = Coderivation(A, 1, {("x", "y"): {("z",): -1}})
    return A, D


def test_zero_coderivation():
    A = SymmetricWordAlgebra(HEIS1, 3)
    D = Coderivation(A, 1, {})
    assert all(not D.expand(w) for w in A.words)


def test_coderivation_is_derivation_for_arity_one():
    # a table on letters alone: l1(x) = y acts as a derivation
    A = SymmetricWordAlgebra(ABELIAN2, 3)
    D = Coderivation(A, 0, {("x",): {("y",): 1}})
    assert D.expand(("x", "y")) == {("y", "y"): 0} or D.expand(("x", "y")) == {}
    # x odd: y·y = 0; on x alone:
    assert D.expand(("x",)) == {("y",): 1}


def test_heis_codifferential_on_pair():
    A, D = heis_codifferential()
    assert D.expand(("x", "y")) == {("z",): -1}
    assert D.expand(("x", "z")) == {}


def test_heis_codifferential_squares_to_zero():
    A, D = heis_codifferential()
    result = codifferential_oracle(D)
    assert result.ok


def test_jacobi_violation_detected_with_witness():
    # [x,y] = z, [x,z] = x: Jacobiator is -z on (x,y,z)
    A = SymmetricWordAlgebra(HEIS1, 4)
    D = Coderivation(A, 1, {("x", "y"): {("z",): -1}, ("x", "z"): {("x",): -1}})
    result = codifferential_oracle(D)
    assert not result.ok
    assert result.witness["word"] == "x·y·z"


def test_corestriction_defect_finds_the_first_failing_word():
    # the same violation read off the corestriction of D^2: it vanishes on
    # letters and pairs, and the Jacobiator's word is the first failure
    A = SymmetricWordAlgebra(HEIS1, 4)
    D = Coderivation(A, 1, {("x", "y"): {("z",): -1}, ("x", "z"): {("x",): -1}})
    assert corestriction_defect([w for w in A.words if len(w) <= 2], [(D, D)]) is None
    # and the corestriction there is the Jacobiator's value, on the letter z
    assert corestriction_defect(A.words, [(D, D)]) == (("x", "y", "z"), {("z",): -1})
    assert corestriction_defect(A.words, []) is None


def test_co_leibniz_random_corestrictions():
    rng = random.Random(5)
    space = GradedVectorSpace([("a", -1), ("b", 0), ("c", 1)])
    A = SymmetricWordAlgebra(space, 3)
    for trial in range(10):
        cor = {}
        for w in A.words:
            if not w:
                continue
            val = {}
            for t in space.labels:
                if space.degree(t) - A.degree(w) == 1 and rng.random() < 0.5:
                    val[(t,)] = Fraction(rng.randint(-2, 2))
            val = {t: c for t, c in val.items() if c}
            if val:
                cor[w] = val
        D = Coderivation(A, 1, cor)
        for w in A.words:
            lhs = {}
            for l, r, c in A.coproduct(w):
                for u, c2 in D.expand(l).items():
                    key = (u, r)
                    lhs[key] = lhs.get(key, 0) + c * c2
                sign = -1 if A.degree(l) % 2 else 1
                for u, c2 in D.expand(r).items():
                    key = (l, u)
                    lhs[key] = lhs.get(key, 0) + sign * c * c2
        # compare with coproduct of D(w)
        rhs = {}
        for u, c in D.expand(w).items():
            for l, r, c2 in A.coproduct(u):
                key = (l, r)
                rhs[key] = rhs.get(key, 0) + c * c2
        assert {k: v for k, v in lhs.items() if v} == {k: v for k, v in rhs.items() if v}


def _coproduct_expansion(D, word):
    """The definition the closed form shortcuts: sum c * table(l) * r over
    the terms (l, r, c) of the unshuffle coproduct of `word`."""
    A = D.algebra
    out = {}
    for l, r, c in A.coproduct(word):
        for u, v in D.table.get(l, {}).items():
            for w, s in A.mul_words(u, r).items():
                vec_add_into(out, w, c * v * s)
    return out


@st.composite
def coderivation_cases(draw):
    """A symmetric word algebra on 1-4 letters of degrees -1..2 with N in
    2..5, and a word-valued table of arities 1-3; a value is any word of
    the table's degree, the empty word included, so some products leave
    the window."""
    degrees = draw(st.lists(st.integers(-1, 2), min_size=1, max_size=4))
    space = GradedVectorSpace((f"x{i}", d) for i, d in enumerate(degrees))
    A = SymmetricWordAlgebra(space, draw(st.integers(2, 5)))
    degree = draw(st.integers(-1, 1))
    table: dict = {}
    for key in draw(st.lists(st.sampled_from([w for w in A.words if 1 <= len(w) <= 3]), max_size=4)):
        values = [u for u in A.words if A.degree(u) == A.degree(key) + degree]
        for u in draw(st.lists(st.sampled_from(values), max_size=2)) if values else []:
            table.setdefault(key, {})[u] = draw(st.sampled_from((1, -1, 2, Fraction(1, 2))))
    return A, degree, table


@settings(max_examples=400, deadline=None, derandomize=True)
@given(coderivation_cases())
def test_closed_form_expansion_matches_the_coproduct_definition(case):
    A, degree, table = case
    D = Coderivation(A, degree, table)
    for w in A.words:
        try:
            want = _coproduct_expansion(D, w)
        except TruncationOverflow:
            with pytest.raises(TruncationOverflow):
                D.expand(w)
            continue
        assert D.expand(w) == want, A.label(w)


def test_coderivation_table_is_checked():
    A = SymmetricWordAlgebra(HEIS1, 2)
    with pytest.raises(PreconditionError, match="empty word"):
        Coderivation(A, 0, {(): {("x",): 1}})
    with pytest.raises(PreconditionError, match="violates degree"):
        Coderivation(A, 1, {("x",): {("y",): 1}})
    # a key longer than the window acts on no word
    assert Coderivation(A, 2, {("x", "y", "z"): {("x",): 1}}).table == {}


def md(algebra):
    return SeriesContext(algebra)


def test_convolution_unit_law():
    A, D = heis_codifferential()
    ctx = md(A)
    rng = random.Random(7)
    f = {}
    for w in A.words:
        if w and rng.random() < 0.7:
            f[w] = HbarSeries({((rng.choice(["x", "y", "z"]),), "1", 0): Fraction(rng.randint(-2, 2))})
    e = conv_unit(A, ctx)
    left = convolve(A, ctx, f, e)
    right = convolve(A, ctx, e, f)
    for w in A.words:
        lf = left.get(w, HbarSeries())
        rf = right.get(w, HbarSeries())
        ff = f.get(w, HbarSeries())
        assert lf == ff and rf == ff


def test_convolution_primitive_expansion():
    A, _ = heis_codifferential()
    ctx = md(A)
    f = {("x",): HbarSeries({(("y",), "1", 0): Fraction(2)})}
    g = {("x",): HbarSeries({(("z",), "1", 0): Fraction(3)}), (): HbarSeries({((), "1", 0): 1})}
    prod = convolve(A, ctx, f, g)
    # (f*g)(x) = f(x) g(1) + ± f(1) g(x) = 2y*1 + 0
    assert prod.get(("x",)) == HbarSeries({(("y",), "1", 0): 2})


def test_convolution_associative_random():
    A, _ = heis_codifferential(3)
    ctx = md(A)
    rng = random.Random(13)

    def random_map():
        out = {}
        for w in A.words:
            terms = {}
            for u in A.words:
                if len(u) + 0 <= 3 and rng.random() < 0.25:
                    terms[(u, "1", 0)] = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
            if terms:
                out[w] = HbarSeries(terms)
        return out

    for _ in range(3):
        f, g, h = random_map(), random_map(), random_map()
        try:
            left = convolve(A, ctx, convolve(A, ctx, f, g), h)
            right = convolve(A, ctx, f, convolve(A, ctx, g, h))
        except Exception:
            continue
        for w in A.words:
            assert left.get(w, HbarSeries()) == right.get(w, HbarSeries())


def test_convolution_graded_commutativity_with_signs():
    # cocommutative source, commutative target: f*g = (-1)^{|f||g|} g*f,
    # exercised with odd-degree maps
    space = GradedVectorSpace([("a", -1), ("b", 0)])
    A = SymmetricWordAlgebra(space, 3)
    ctx = md(A)
    # f, g odd of degree +1: word of degree d -> generator of degree d+1
    def odd_map(target_for_a):
        out = {}
        for w in A.words:
            if A.degree(w) == -1:
                out[w] = HbarSeries({(("b",), "1", 0): Fraction(target_for_a)})
        return out

    f = odd_map(2)
    g = odd_map(3)
    fg = convolve(A, ctx, f, g, g_degree=1)
    gf = convolve(A, ctx, g, f, g_degree=1)
    for w in A.words:
        left = fg.get(w, HbarSeries())
        right = gf.get(w, HbarSeries()).scale(Fraction(-1))  # (-1)^{1*1}
        assert left == right, w


def test_conv_exp_of_zero():
    A, _ = heis_codifferential()
    ctx = md(A)
    e = conv_unit(A, ctx)
    assert conv_exp(A, ctx, {}) == e


def test_conv_exp_requires_vanishing_at_unit():
    A, _ = heis_codifferential()
    ctx = md(A)
    with pytest.raises(PreconditionError):
        conv_exp(A, ctx, {(): HbarSeries({(("x",), "1", 0): 1})})


def test_conv_exp_second_order_terms():
    # exp(f)(x·y) contains f(xy) plus the (f*f)/2 splittings
    A, _ = heis_codifferential(2)
    ctx = md(A)
    f = {
        ("x",): HbarSeries({(("x",), "1", 0): 1}),
        ("y",): HbarSeries({(("y",), "1", 0): 1}),
        ("x", "y"): HbarSeries({(("z",), "1", 0): 5}),
    }
    F = conv_exp(A, ctx, f)
    # (f*f)(xy) = x·y (from x(x)y) + (-1)(y·x) = 2 x·y; half of it is x·y
    assert F[("x", "y")] == HbarSeries({(("z",), "1", 0): 5, (("x", "y"), "1", 0): 1})


def test_exp_log_round_trip_over_abelian2():
    A = SymmetricWordAlgebra(ABELIAN2, 4)
    ctx = md(A)
    rng = random.Random(23)
    for _ in range(10):
        f = {}
        for w in A.words:
            if not w:
                continue
            terms = {}
            for t in ABELIAN2.labels:
                if ABELIAN2.degree(t) == A.degree(w) and rng.random() < 0.8:
                    terms[((t,), "1", 0)] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            if terms:
                f[w] = HbarSeries(terms)
        F = conv_exp(A, ctx, f)
        back = conv_log(A, ctx, F)
        for w in A.words:
            assert back.get(w, HbarSeries()) == f.get(w, HbarSeries())
        again = conv_exp(A, ctx, back)
        for w in A.words:
            assert again.get(w, HbarSeries()) == F.get(w, HbarSeries())


def test_exp_of_corestriction_is_coalgebra_morphism():
    A, _ = heis_codifferential(3)
    cor = {("x",): {"x": 1}, ("y",): {"y": 1}, ("z",): {"z": 1}, ("x", "y"): {}}
    # identity plus nothing: extension of the projection is the identity morphism
    F = CoalgebraMorphism(A, A, {w: v for w, v in cor.items() if v})
    assert F.respects_coproducts().ok
    for w in A.words:
        assert F.apply_word(w) == {w: 1}


def test_artin_dual_exp_log():
    R = power_ring(4)
    dual = R.dual_coalgebra()
    space = GradedVectorSpace([(lab, 0) for lab in R.labels])
    A = SymmetricWordAlgebra(space, 3)
    ctx = md(A)
    f = {"t": HbarSeries({(("t",), "1", 0): 1})}
    F = conv_exp(dual, ctx, f)
    # exp over the dual of k[t]/t^4: F(t^2) = (f*f)(t^2)/2 = t·t... but t odd?
    assert F["1"] == ctx.unit()
    back = conv_log(dual, ctx, F)
    for key in dual.basis_keys:
        assert back.get(key, HbarSeries()) == f.get(key, HbarSeries())


def _word_algebra(data, max_lens):
    degrees = data.draw(st.lists(st.integers(-1, 2), min_size=1, max_size=3))
    kind = data.draw(st.sampled_from([SymmetricWordAlgebra, TensorWordAlgebra]))
    space = GradedVectorSpace((f"x{i}", d) for i, d in enumerate(degrees))
    return kind(space, data.draw(max_lens))


def _exp_or_overflow(route, coalg, ctx, f):
    try:
        return route(coalg, ctx, f)
    except TruncationOverflow:
        return TruncationOverflow


def _repeats_an_odd_letter(algebra, w):
    return any(w.count(x) > 1 and algebra.space.degree(x) % 2 for x in w)


def _below(F, top):
    """F with every hbar power >= top dropped (all of F when top is None)."""
    out = {}
    for key, series in F.items():
        kept = {k: c for k, c in series.terms.items() if top is None or k[2] < top}
        if kept:
            out[key] = HbarSeries(kept)
    return out


@settings(derandomize=True, max_examples=250, deadline=None)
@given(st.data())
def test_conv_exp_by_set_partitions_equals_the_power_series(data):
    """The power series sum_k f^k/k! is the oracle of the set-partition recursion
    on word coalgebras: symmetric and tensor words, odd and repeated even
    letters, int, Fraction, ring-labelled and hbar-shifted values, with and
    without an hbar cutoff."""
    source = _word_algebra(data, st.integers(1, 3))
    target = _word_algebra(data, st.integers(2, 4))
    ring = data.draw(st.sampled_from([TRIVIAL_RING, power_ring(3)]))
    lowest = data.draw(st.sampled_from([0, -1]))  # -1: f = phi/hbar, as in BVMorphism.exp_map
    cutoff = data.draw(st.sampled_from([None, 1, 2, 3]))
    ints = data.draw(st.booleans())
    scalars = st.integers(-3, 3) if ints else st.fractions(-3, 3, max_denominator=4)
    f = {}
    for w in source.words[1:]:
        # degree zero up to the even hbar weight, which keeps every Koszul sign
        targets = [u for u in target.words if (target.degree(u) - source.degree(w)) % 2 == 0]
        if not targets or not data.draw(st.booleans()):
            continue
        keys = st.tuples(st.sampled_from(targets), st.sampled_from(ring.labels), st.integers(lowest, 1))
        f[w] = HbarSeries(data.draw(st.dictionaries(keys, scalars, max_size=2)))
    ctx = SeriesContext(target, ring, hbar_cutoff=cutoff)
    got = _exp_or_overflow(conv_exp, source, ctx, f)
    want = _exp_or_overflow(_conv_exp_series, source, ctx, f)
    # A cutoff drops powers at or above it: in a product of the recursion, but
    # not in the first term f of the series.  With hbar^-1 factors each route
    # also drops partial products that later factors would lower back; the
    # routes group the factors differently, so they drop, and may overflow on,
    # different ones; below cutoff - max_len neither drops a partial product of
    # a kept term.
    exact = cutoff is None or lowest == 0
    top = None if cutoff is None else cutoff - (0 if exact else source.max_len)
    if exact and want is TruncationOverflow:
        assert got is TruncationOverflow
    if exact and got is TruncationOverflow and want is not TruncationOverflow:
        # the one kind of input where only the recursion raises (pinned below):
        # full unshuffles cancel only on tensor words that repeat an odd letter
        assert isinstance(source, TensorWordAlgebra)
        assert any(_repeats_an_odd_letter(source, w) for w in source.words)
    if TruncationOverflow in (got, want):
        return
    assert _below(got, top) == _below(want, top)
    if ints:
        assert all(type(c) is int for F in (got, want) for s in F.values() for c in s.terms.values())


def test_only_the_recursion_overflows_on_a_repeated_odd_tensor_letter():
    # x odd: the unshuffles x|x of x⊗x cancel in the full coproduct, so the power
    # series never forms f(x)·f(x); the first-letter unshuffle x|x does not
    # cancel, and f(x)·f(x) = 0 (f(x) odd) only once its terms are summed, after
    # the length check
    source = TensorWordAlgebra(GradedVectorSpace([("x", 1)]), 2)
    f = {("x",): HbarSeries({(("a",), "1", 0): 1, (("b", "c"), "1", 0): 1})}
    target = GradedVectorSpace([("a", 1), ("b", 0), ("c", 1)])
    for kind in (SymmetricWordAlgebra, TensorWordAlgebra):
        narrow = SeriesContext(kind(target, 2))
        assert _conv_exp_series(source, narrow, f) == {(): narrow.unit(), **f}
        with pytest.raises(TruncationOverflow):
            conv_exp(source, narrow, f)
        # with room for the product both routes agree: it vanishes
        wide = SeriesContext(kind(target, 4))
        assert conv_exp(source, wide, f) == _conv_exp_series(source, wide, f) == {(): wide.unit(), **f}
