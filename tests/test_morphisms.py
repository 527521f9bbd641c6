import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mastereq import cli, coalgebra, linfty, morphisms
from mastereq.artin import power_ring, square_zero_ring
from mastereq.bv import qme_exp_check, qme_solve_perturbative
from mastereq.coalgebra import (CoalgebraMorphism, _conv_exp_series, conv_exp, corestriction_series,
                                word_vector)
from mastereq.constructions import ce_bv_from_dg_lie, ce_bvinfty_from_linfty
from mastereq.diagnostics import PreconditionError
from mastereq.linfty import (LInftyAlgebra, chuang_lazarev_morphism_defect, chuang_lazarev_residual,
                             coderivation_dg_lie, emce_residual, mc_exp_map, quillen_bijection_check)
from mastereq.morphisms import (
    BVMorphism,
    check_bv_morphism,
    clalg_embed,
    compose_bv_morphisms,
    compose_with_log_residue,
    identity_bv_morphism,
    linfty_morphism_to_bvinfty,
    ring_map_to_bv_morphism,
    theorem_first_bijection_check,
    theorem_second_bijection_check,
    twisted_linfty_morphism,
)
from mastereq.sampling import random_corestriction_twist, random_mc_element, random_qme_element
from mastereq.series import HbarSeries, SeriesContext
from mastereq.words import vec_add_into

from alg_fixtures import load
from test_linfty import with_term


def coalgebra_morphism(source, target, table, max_len=3):
    """The coalgebra morphism S(source[1]) -> S(target[1]), cut at `max_len`,
    with corestriction `table`."""
    return CoalgebraMorphism(source.word_algebra(max_len), target.word_algebra(max_len), table)


def identity_morphism(g, max_len=3):
    return coalgebra_morphism(g, g, {(x,): {x: 1} for x in g.shifted.labels}, max_len)


def truncation_map(a: int, b: int):
    """k[t]/(t^a) -> k[t]/(t^b), t -> t (a >= b)."""
    Ra, Rb = power_ring(a), power_ring(b)
    entries = {}
    for i in range(1, a):
        lab = "t" if i == 1 else f"t^{i}"
        entries[lab] = {lab: 1} if i < b else {}
    return Ra, Rb, ring_map_to_bv_morphism(Ra, Rb, entries)


def test_clalg_embed_trivial_ring():
    from mastereq.artin import TRIVIAL_RING
    V = clalg_embed(TRIVIAL_RING)
    assert list(V.algebra.words) == ["1"]
    assert V.is_certified()


def test_mstar_squares_to_zero():
    R = square_zero_ring()
    V = clalg_embed(R)
    assert V.algebra.mul_words("s", "t") == {}
    assert V.algebra.mul_words("s", "s") == {}
    assert V.algebra.mul_words("1", "s") == {"s": 1}


def test_ring_map_morphism_passes_checks():
    Ra, Rb, phi = truncation_map(3, 2)
    assert phi.components[1]["t"] == {"t": 1}
    report = check_bv_morphism(phi)
    assert report["ok"], report


def test_ring_map_rejects_nonlocal():
    Ra, Rb = power_ring(3), power_ring(2)
    with pytest.raises(PreconditionError):
        ring_map_to_bv_morphism(Ra, Rb, {"t": {"1": 1}})


def test_ring_map_rejects_nonmultiplicative():
    Ra, Rb = power_ring(3), power_ring(3)
    with pytest.raises(PreconditionError):
        # t -> t but t^2 -> 0 is not multiplicative in k[t]/t^3
        ring_map_to_bv_morphism(Ra, Rb, {"t": {"t": 1}, "t^2": {}})


def test_zero_morphism_between_zero_operators():
    R = power_ring(2)
    V = clalg_embed(R)
    phi = BVMorphism(V, V, {}, name="0")
    assert check_bv_morphism(phi)["ok"]


def test_identity_morphism_is_exp_unit():
    V = ce_bvinfty_from_linfty(load("heis3"), 3, 3)
    ident = identity_bv_morphism(V)
    E = ident.exp_map()
    for w in V.algebra.words:
        assert E.get(w, HbarSeries()) == HbarSeries({(w, "1", 0): 1}), w
    assert check_bv_morphism(ident)["ok"]


def test_compose_with_identity_is_unit():
    V = ce_bvinfty_from_linfty(load("heis3"), 3, 3)
    ident = identity_bv_morphism(V)
    rng = random.Random(5)
    g_tw, F = twisted_linfty_morphism(load("heis3"), rng, 3)
    phi = linfty_morphism_to_bvinfty(g_tw, load("heis3"), F, 3)
    left = compose_bv_morphisms(ident, phi)
    assert left.components == phi.components
    ident_src = identity_bv_morphism(phi.source)
    right = compose_bv_morphisms(phi, ident_src)
    assert right.components == phi.components


def test_ring_map_functoriality():
    # k[t]/t^4 -> k[t]/t^3 -> k[t]/t^2: composition of morphisms equals the
    # morphism of the composed map
    R4, R3, f43 = truncation_map(4, 3)
    _, R2, f32 = truncation_map(3, 2)
    composite = compose_bv_morphisms(f43, f32)
    _, _, direct = truncation_map(4, 2)
    assert composite.components == direct.components
    assert check_bv_morphism(composite)["ok"]


def test_composition_log_has_no_hbar_inverse():
    R4, R3, f43 = truncation_map(4, 3)
    _, R2, f32 = truncation_map(3, 2)
    assert compose_with_log_residue(f43, f32)[1] == {}


def test_compose_associative_on_ring_chain():
    R5 = power_ring(5)
    maps = []
    for a, b in ((5, 4), (4, 3), (3, 2)):
        maps.append(truncation_map(a, b)[2])
    f54, f43, f32 = maps
    left = compose_bv_morphisms(compose_bv_morphisms(f54, f43), f32)
    right = compose_bv_morphisms(f54, compose_bv_morphisms(f43, f32))
    assert left.components == right.components


def _composed_chain(rings, K=3):
    """Composite components and hbar^{-1} log coefficient of a truncation chain
    R0 -> R1 -> R2, built as `compose-morphisms` builds it."""
    phi, psi = (cli._truncation_morphism(big, small, K) for big, small in zip(rings, rings[1:]))
    composite, residue = compose_with_log_residue(phi, psi)
    return composite.components, residue


@pytest.mark.parametrize("chain", [*(f"t{M}" for M in range(3, 10)), "cli-t4-t3-t2"])
def test_composite_log_window_is_wide_enough(monkeypatch, chain):
    # powers at the cutoff are dropped although hbar^{-1} factors would lower
    # them again (see `series`); six more powers in both exp_map windows and
    # in compose_with_log_residue's change neither the composite nor the hbar^{-1}
    # residue, at every cutoff K = 1..5.  A ring map's phi/hbar has only
    # hbar^0 terms, so on these chains no window binds
    if chain.startswith("cli"):
        rings = [load(f"ring-t{m}") for m in (4, 3, 2)]
    else:
        M = int(chain[1:])
        rings = [power_ring(M), power_ring(M - 1), power_ring(M - 2)]
    narrow = [_composed_chain(rings, K) for K in range(1, 6)]
    context = morphisms.SeriesContext
    monkeypatch.setattr(morphisms, "SeriesContext",
                        lambda algebra, hbar_cutoff: context(algebra, hbar_cutoff=hbar_cutoff + 6))
    assert [_composed_chain(rings, K) for K in range(1, 6)] == narrow


def test_condition3_violation_flagged():
    V = ce_bvinfty_from_linfty(load("heis3"), 3, 3)
    # phi_1 supported on a length-3 word violates phi_1(m^3) = 0
    comp = {1: {("x", "y", "z"): {("x", "y", "z"): 1}}}
    phi = BVMorphism(V, V, comp, name="bad")
    report = check_bv_morphism(phi)
    assert not report["orders"].ok
    assert report["orders"].witness == {"component": 1, "key": "x·y·z"}


def test_theorem_first_valid_instances():
    bv = ce_bv_from_dg_lie(load("sl2"), 4)
    R = power_ring(3)
    rng = random.Random(11)
    passed = 0
    for _ in range(20):
        seed = random_qme_element(bv, R, rng).ring_project(R, 1)
        bvi = bv.as_bvinfty(3)
        if not bvi.dhat(seed, bvi.context(R)).is_zero():
            continue
        result = qme_solve_perturbative(bv, R, seed)
        if result.status != "solved":
            continue
        report = theorem_first_bijection_check(bv, R, result.element)
        assert report["solves_qme"] and report["is_morphism"] and report["ok"], report
        passed += 1
    assert passed >= 5


def test_theorem_first_corrupted_instances():
    bv = ce_bv_from_dg_lie(load("heis3"), 4)
    R = power_ring(3)
    rng = random.Random(13)
    rejected = 0
    for _ in range(20):
        S = random_qme_element(bv, R, rng)
        report = theorem_first_bijection_check(bv, R, S)
        assert report["equivalence"], report
        if not report["solves_qme"]:
            assert not report["is_morphism"]
            rejected += 1
    assert rejected >= 5


def test_exp_map_matches_element_exponential_termwise():
    # Hom(R*, V((hbar))) = V((hbar)) (x) R: the convolution exponential of the
    # induced map equals the element exponential e^{S/hbar}, coefficient by
    # coefficient, not just through the boolean equivalence
    from mastereq.morphisms import BVMorphism
    from mastereq.series import SeriesContext
    bv = ce_bv_from_dg_lie(load("sl2"), 4)
    bvi = bv.as_bvinfty(3)
    R = power_ring(3)
    rng = random.Random(61)
    for _ in range(5):
        S = random_qme_element(bv, R, rng, word_len_cap=2)
        components = {}
        for (w, r, h), c in S.terms.items():
            components.setdefault(h, {}).setdefault(r, {})[w] = c
        phi = BVMorphism(clalg_embed(R, 3), bvi, components, name="phi_S")
        E = phi.exp_map()
        wide = SeriesContext(bv.algebra, R, 3 + R.nilpotency)
        exp_elt = wide.exp_over_hbar(S)
        for b in R.labels:
            got = E.get(b, HbarSeries())
            want = HbarSeries({(w, "1", h): c for (w, r, h), c in exp_elt.terms.items()
                               if r == b})
            got = HbarSeries({k: c for k, c in got.terms.items() if k[2] < 3})
            want = HbarSeries({k: c for k, c in want.terms.items() if k[2] < 3})
            assert got == want, (b, got, want)


def test_theorem_second_identity_and_twists():
    g = load("heis3")
    report = theorem_second_bijection_check(g, g, identity_morphism(g), 3)
    assert report["ok"], report
    rng = random.Random(17)
    h = load("bidg4-dglie")
    for _ in range(5):
        g_tw, F = twisted_linfty_morphism(h, rng, 3)
        report = theorem_second_bijection_check(h, g_tw, F, 3)
        assert report["ok"], report


def test_theorem_second_trivial_targets():
    # abelian source, one-dimensional target: all operators vanish and the
    # shape-legal components are morphisms for trivial reasons
    from mastereq.graded import GradedVectorSpace
    from mastereq.linfty import DgLieAlgebra
    ab = DgLieAlgebra(GradedVectorSpace([("a", 2)]), {}, {}, name="ab1")
    point = DgLieAlgebra(GradedVectorSpace([("v", 2)]), {}, {}, name="pt")
    report = theorem_second_bijection_check(point, ab, coalgebra_morphism(ab, point, {("a",): {"v": 3}}), 3)
    assert report["ok"]
    report = theorem_second_bijection_check(point, ab, coalgebra_morphism(ab, point, {}), 3)
    assert report["ok"]


def test_theorem_second_corrupted():
    g = load("heis3")
    rng = random.Random(19)
    rejected = 0
    for _ in range(20):
        table = {(x,): {x: 1} for x in g.shifted.labels}
        # corrupt the arity-1 part
        x = rng.choice(list(g.shifted.labels))
        y = rng.choice(list(g.shifted.labels))
        table[(x,)] = {y: Fraction(rng.randint(1, 2))}
        if not theorem_second_bijection_check(g, g, coalgebra_morphism(g, g, table), 3)["ok"]:
            rejected += 1
    assert rejected >= 10


def test_linfty_morphism_identity_valid():
    g = load("heis3")
    phi = linfty_morphism_to_bvinfty(g, g, identity_morphism(g), 3)
    assert check_bv_morphism(phi)["ok"]


def test_linfty_morphism_abelian_subalgebra_inclusion():
    # span(x, z) inside heis3 is abelian and closed under the bracket
    from mastereq.graded import GradedVectorSpace
    from mastereq.linfty import DgLieAlgebra
    sub = DgLieAlgebra(GradedVectorSpace([("x", 0), ("z", 0)]), {}, {}, name="ab-xz")
    heis3 = load("heis3")
    phi = linfty_morphism_to_bvinfty(sub, heis3,
                                     coalgebra_morphism(sub, heis3, {("x",): {"x": 1}, ("z",): {"z": 1}}), 3)
    assert check_bv_morphism(phi)["ok"]


def test_linfty_non_morphism_flagged():
    # abelian2 -> heis3 sending x, y to x, y is not a morphism: [x,y] = z
    from mastereq.graded import GradedVectorSpace
    from mastereq.linfty import DgLieAlgebra
    ab = DgLieAlgebra(GradedVectorSpace([("x", 0), ("y", 0)]), {}, {}, name="ab2")
    heis3 = load("heis3")
    phi = linfty_morphism_to_bvinfty(ab, heis3,
                                     coalgebra_morphism(ab, heis3, {("x",): {"x": 1}, ("y",): {"y": 1}}), 3)
    report = check_bv_morphism(phi)
    assert not report["ok"]
    assert not report["intertwining"].ok


def test_morphism_check_sees_third_operator():
    # target with a nonzero arity-3 operator: a candidate hitting the word
    # x1·x2·x3 is not a morphism because dhat' produces hbar^2 w
    from mastereq.constructions import ce_bvinfty_from_linfty
    from mastereq.graded import GradedVectorSpace
    from mastereq.linfty import DgLieAlgebra
    V = ce_bvinfty_from_linfty(load("l3demo"), 4, 4)
    ab = DgLieAlgebra(GradedVectorSpace([("a", 2)]), {}, {}, name="ab1")
    src = ce_bvinfty_from_linfty(ab, 3, 4)
    phi = BVMorphism(src, V, {1: {("a",): {("x1", "x2", "x3"): 1}}}, name="hits-delta3")
    report = check_bv_morphism(phi)
    assert not report["intertwining"].ok
    zero = BVMorphism(src, V, {}, name="zero")
    assert check_bv_morphism(zero)["ok"]


def test_twisted_morphisms_validate_against_chuang_lazarev():
    rng = random.Random(23)
    g = load("bidg4-dglie")
    for _ in range(5):
        g_tw, F = twisted_linfty_morphism(g, rng, 3)
        assert all(g_tw.square_zero_rows(("1", "2", "3")))
        res = chuang_lazarev_residual(g, g_tw, F)
        assert res == {}, res
        assert chuang_lazarev_morphism_defect(g, g_tw, F).ok
        # corrupting one component breaks it
        bad = {w: dict(v) for w, v in F.corestriction.items()}
        key = next(iter(bad))
        t = next(iter(bad[key]))
        bad[key][t] = bad[key][t] + 1
        res_bad = chuang_lazarev_residual(g, g_tw, CoalgebraMorphism(F.source, F.target, bad))
        assert res_bad != {}


def _compose(mapping, vec):
    out = {}
    for w, c in vec.items():
        for u, v in mapping.get(w, {}).items():
            vec_add_into(out, u, c * v)
    return out


def _twist_by_neumann_series(g, rng, max_len=3):
    """The twisted brackets of `twisted_linfty_morphism`, with F = exp(cor) by
    the power series and F^{-1} = sum_k (-N)^k over F = id + N."""
    W = g.word_algebra(max_len)
    F = _conv_exp_series(W, SeriesContext(W), corestriction_series(random_corestriction_twist(g, rng, max_len)))
    nil = {}
    for w in W.words:
        img = word_vector(F, w)
        vec_add_into(img, w, -1)
        if img:
            nil[w] = img
    inverse = {w: {w: 1} for w in W.words}
    power, sign = dict(nil), -1
    while power:
        for w, img in power.items():
            for u, c in img.items():
                vec_add_into(inverse[w], u, sign * c)
        power = {w: v for w, v in ((w, _compose(nil, img)) for w, img in power.items()) if v}
        sign = -sign
    D = g.codifferential(max_len)
    twisted = {}
    for w in W.words[1:]:
        vec = _compose(inverse, D.apply(word_vector(F, w)))
        letters = {u[0]: c for u, c in vec.items() if len(u) == 1 and c}
        if letters:
            twisted.setdefault(len(w), {})[w] = letters
    return LInftyAlgebra(g.space, twisted).brackets


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.sampled_from(["heis3", "sl2", "aff2", "lift3", "l3demo", "bidg4-dglie"]), st.integers(0, 10**6))
def test_twist_back_substitution_matches_the_neumann_inverse(name, seed):
    g = load(name)
    g_tw, _ = twisted_linfty_morphism(g, random.Random(seed), 3)
    assert g_tw.brackets == _twist_by_neumann_series(g, random.Random(seed))


# -- oracles for the certificates that call `intertwining_defect`: each loop
# evaluates D'∘E - E∘D on its own, with series and word-vector arithmetic


def _bv_loop_key(phi):
    """First source key where dhat'∘E - E∘dhat has a term below the target's
    K: the oracle of `check_bv_morphism` and of theorem-second's
    convolution-QME route, which test the same condition."""
    src, tgt = phi.source, phi.target
    window = phi._window()
    ctx = SeriesContext(tgt.algebra, hbar_cutoff=window)
    E = phi.exp_map()
    narrow = SeriesContext(tgt.algebra, hbar_cutoff=tgt.hbar_cutoff)
    for key in src.algebra.words:
        lhs = tgt.dhat(E.get(key, HbarSeries()), ctx)
        rhs = HbarSeries()
        d_src = src.dhat(HbarSeries({(key, "1", 0): 1}),
                         SeriesContext(src.algebra, hbar_cutoff=window))
        for (u, r, h), c in d_src.terms.items():
            rhs = rhs.add(E.get(u, HbarSeries()).shift_hbar(h).scale(c))
        if not narrow.truncate(lhs.sub(rhs)).is_zero():
            return key
    return None


def _chuang_lazarev_loop_key(target, source, S, max_len):
    """First word where D_target∘exp(S) - exp(S)∘D_source is nonzero, with
    exp(S) built here from the corestriction table S."""
    Wsrc = source.word_algebra(max_len)
    Dsrc = source.codifferential(max_len)
    Dt = target.codifferential(max_len)
    F = conv_exp(Wsrc, SeriesContext(target.word_algebra(max_len)), corestriction_series(S))
    for w in Wsrc.words:
        lhs = Dt.apply(word_vector(F, w))
        rhs = {}
        for u, c in Dsrc.expand(w).items():
            for v, c2 in word_vector(F, u).items():
                vec_add_into(rhs, v, c * c2)
        for u, c in rhs.items():
            vec_add_into(lhs, u, -c)
        if any(lhs.values()):
            return w
    return None


def _quillen_loop_key(g, ring, F):
    """The first key of R* on which D∘F does not vanish, or None."""
    D = g.codifferential(ring.nilpotency)
    for key in ring.dual_coalgebra().basis_keys:
        if any(D.apply(word_vector(F, key)).values()):
            return key
    return None


def _bumped(table, rng):
    """`table` with one coefficient moved by a nonzero integer."""
    bad = {w: dict(v) for w, v in table.items()}
    key = rng.choice(sorted(bad))
    t = rng.choice(sorted(bad[key]))
    bad[key][t] = bad[key][t] + rng.choice([-2, -1, 1, 2])
    return bad


@settings(derandomize=True, max_examples=24, deadline=None)
@given(st.sampled_from(["heis3", "sl2", "aff2", "lift3", "l3demo", "bidg4-dglie"]),
       st.integers(0, 10**6), st.booleans())
def test_call_sites_report_the_oracles_first_failing_key(name, seed, perturb):
    # twisted instances are morphisms; a perturbed one usually is not
    g = load(name)
    rng = random.Random(seed)
    g_tw, F = twisted_linfty_morphism(g, rng, 3)
    if perturb:
        F = CoalgebraMorphism(F.source, F.target, _bumped(F.corestriction, rng))
    key = _chuang_lazarev_loop_key(g, g_tw, F.corestriction, 3)
    assert chuang_lazarev_morphism_defect(g, g_tw, F).witness == \
        (None if key is None else {"word": F.source.label(key)})

    phi = linfty_morphism_to_bvinfty(g_tw, g, F, 3)
    key = _bv_loop_key(phi)
    assert theorem_second_bijection_check(g, g_tw, F, 3)["intertwining"].witness == \
        (None if key is None else {"key": phi.source.algebra.label(key)})

    target = g if any(g.space.degree(x) == 1 for x in g.space.labels) else \
        coderivation_dg_lie(g, 3)[0]
    ring = power_ring(3)
    S = random_mc_element(target, ring, rng)
    F = mc_exp_map(target, ring, S)
    if perturb:
        F = with_term(F, rng.choice(ring.ideal_labels), rng.choice(target.word_algebra(3).words[1:]),
                      rng.choice([-1, 1]))
    report = quillen_bijection_check(target, ring, S, F)
    key = _quillen_loop_key(target, ring, F)
    assert report["d_exp_zero"] == (key is None)
    assert report["witness"]["d_exp"] == key


def _one_more_term(monkeypatch):
    """Patch `intertwining_defect` wherever it is bound so that every defect
    gains one term, E(key) itself."""
    real = coalgebra.intertwining_defect
    identity = SimpleNamespace(apply_word=lambda a: {a: 1})

    def patched(keys, E, target_ops, source_ops, cutoff=None, kept_below=None):
        return real(keys, E, [*target_ops, (identity, 0)], source_ops, cutoff, kept_below)

    for module in (coalgebra, morphisms, linfty):
        monkeypatch.setattr(module, "intertwining_defect", patched)


def test_routes_through_intertwining_defect_fail_on_one_more_term(monkeypatch):
    g = load("bidg4-dglie")
    g_tw, F = twisted_linfty_morphism(g, random.Random(5), 3)
    phi = linfty_morphism_to_bvinfty(g_tw, g, F, 3)
    lift = load("lift3")
    ring = power_ring(3)
    S_mc = random_mc_element(lift, ring, random.Random(7))
    bv = ce_bv_from_dg_lie(load("sl2"), 4)
    S_qme = random_qme_element(bv, ring, random.Random(9))

    def routes():
        return {
            "morphism": check_bv_morphism(phi)["intertwining"],
            "chuang-lazarev": chuang_lazarev_morphism_defect(g, g_tw, F),
            "quillen": quillen_bijection_check(lift, ring, S_mc)["d_exp_zero"],
            "theorem-second": theorem_second_bijection_check(g, g_tw, F, 3),
        }

    def independent():
        return (qme_exp_check(bv, ring, S_qme), chuang_lazarev_residual(g, g_tw, F),
                emce_residual(lift, ring, S_mc))

    before, untouched = routes(), independent()
    assert before["morphism"].ok and before["chuang-lazarev"].ok
    assert before["theorem-second"]["ok"]
    quillen_before = before["quillen"]

    _one_more_term(monkeypatch)
    after = routes()
    # E(1) = 1 is the added term on the unit key, the first key of every source
    assert not after["morphism"].ok and after["morphism"].witness == {"key": "1"}
    assert not after["chuang-lazarev"].ok and after["chuang-lazarev"].witness == {"word": "1"}
    assert after["quillen"] is False
    # theorem-second reports the morphism side, so it moves with it
    assert not after["theorem-second"]["ok"]
    assert independent() == untouched
    assert quillen_before == (emce_residual(lift, ring, S_mc).is_zero())
