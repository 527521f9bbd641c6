"""BV-infinity morphisms: exp/log calculus, composition, representability.

A morphism V -> V' is a degree-two map phi = sum_n hbar^n phi_n with
phi(1) = 0, phi_n of order <= n+1 over the trivial algebra map (so phi_n
kills the (n+2)-nd power of the augmentation ideal), and

    dhat' ∘ exp(phi/hbar) = exp(phi/hbar) ∘ dhat

with exp taken in the convolution algebra Hom(V, V'((hbar))).  Composition
is exp-then-log; the log exists because the sources are conilpotent, and
finiteness of hbar·log at hbar -> 0 is certified by checking that every log
coefficient below hbar^{-1} vanishes.

The dual R* of a parameter ring, with zero operator and square-zero products
on m*, embeds the opposite category of parameter rings; a local ring map
gives hbar(f* - e) because (m*)^2 = 0.
"""

from __future__ import annotations

import random
from typing import Mapping

from .artin import ArtinLocalAlgebra
from .bv import BVInftyAlgebra, qme_exp_check
from .coalgebra import CoalgebraMorphism, conv_exp, conv_log, intertwining_defect, word_vector
from .diagnostics import CheckResult, PreconditionError, StructureError
from .graded import ONE, ZERO, Scalar, as_scalar
from .linfty import LInftyAlgebra
from .series import HbarSeries, SeriesContext
from .words import Word, vec_add_into

__all__ = [
    "BVMorphism",
    "check_bv_morphism",
    "compose_bv_morphisms",
    "compose_with_log_residue",
    "clalg_embed",
    "ring_map_to_bv_morphism",
    "theorem_first_bijection_check",
    "theorem_second_bijection_check",
    "linfty_morphism_to_bvinfty",
    "identity_bv_morphism",
    "twisted_linfty_morphism",
]


class BVMorphism:
    """phi = sum_n hbar^n phi_n between BV-infinity algebras.

    `components[n]` maps source basis keys to sparse target vectors; the
    degree of phi_n must be 2 - 2n so that phi has total degree two.
    """

    def __init__(self, source: BVInftyAlgebra, target: BVInftyAlgebra,
                 components: Mapping[int, Mapping], name: str = "phi"):
        self.source = source
        self.target = target
        self.name = name
        comps: dict[int, dict] = {}
        for n, table in components.items():
            n = int(n)
            clean_table = {}
            for key, val in table.items():
                clean = {t: as_scalar(c) for t, c in val.items() if as_scalar(c) != 0}
                for t in clean:
                    got = target.algebra.degree(t) - source.algebra.degree(key)
                    if got != 2 - 2 * n:
                        raise PreconditionError(
                            f"component {n} entry {key} -> {t} has degree {got}, expected {2 - 2 * n}")
                if clean:
                    clean_table[key] = clean
            if clean_table:
                comps[n] = clean_table
        self.components = comps
        self._exp: dict | None = None

    def as_map(self) -> dict:
        """phi as a map source key -> target HbarSeries."""
        out: dict = {}
        for n, table in self.components.items():
            for key, val in table.items():
                out.setdefault(key, {}).update({(t, "1", n): c for t, c in val.items()})
        return {k: HbarSeries(v) for k, v in out.items()}

    def exp_map(self) -> dict:
        """exp(phi/hbar) in the convolution algebra, Laurent window included.

        Computed once per morphism and shared between callers; treat it as
        read-only.
        """
        if self._exp is None:
            ctx = SeriesContext(self.target.algebra, hbar_cutoff=self._window())
            f = {k: v.shift_hbar(-1) for k, v in self.as_map().items()}
            self._exp = conv_exp(self.source.algebra, ctx, f)
        return self._exp

    def _window(self) -> int:
        return self.target.hbar_cutoff + _conilpotency(self.source.algebra) + 1

    def __repr__(self):
        return f"BVMorphism({self.name}: {self.source.name} -> {self.target.name})"


def _conilpotency(algebra) -> int:
    if getattr(algebra, "max_len", None) is not None:
        return algebra.max_len
    return len(list(algebra.words))


def _same_algebra(a, b) -> bool:
    if a is b:
        return True
    return type(a) is type(b) and tuple(a.words) == tuple(b.words)


def check_bv_morphism(phi: BVMorphism) -> dict:
    """The three defining conditions, each reported with a witness.

    (1) phi kills the coaugmentation; (2) the exp-intertwining equation holds
    on every basis key within the hbar window; (3) phi_n vanishes on the
    (n+2)-nd power of the source augmentation ideal, which for word algebras
    is spanned by the words of length >= n+2 and for dual rings is zero.
    """
    src, tgt = phi.source, phi.target
    cond1 = all(key != src.algebra.unit or val.is_zero()
                for key, val in phi.as_map().items())
    report: dict = {"unit": CheckResult("phi(1)=0", cond1)}

    # (3) vanishing on high powers of the augmentation ideal
    cond3_wit = next(({"component": n, "key": src.algebra.label(key)}
                      for n, table in phi.components.items() for key, val in table.items()
                      if src.algebra.length(key) >= n + 2 and val), None)
    cond3_ok = cond3_wit is None
    report["orders"] = CheckResult("phi_n kills m^{n+2}", cond3_ok, witness=cond3_wit)

    # (2) intertwining through the exponential
    key = intertwining_defect(src.algebra.words, phi.exp_map(), tgt.shifted_operators,
                              src.shifted_operators, phi._window(), tgt.hbar_cutoff)
    report["intertwining"] = CheckResult(
        "dhat' exp = exp dhat", key is None, witness=None if key is None else {"key": src.algebra.label(key)},
        bound={"hbar_cutoff": tgt.hbar_cutoff})
    report["ok"] = cond1 and cond3_ok and key is None
    return report


def compose_bv_morphisms(phi: BVMorphism, psi: BVMorphism) -> BVMorphism:
    """phi ∘ psi via hbar·log(exp(phi/hbar) ∘ exp(psi/hbar)).

    Raises if the log keeps any power below hbar^{-1}: such a term would
    obstruct finiteness of hbar·log as hbar -> 0 and signals invalid input.
    """
    return compose_with_log_residue(phi, psi)[0]


def compose_with_log_residue(phi: BVMorphism, psi: BVMorphism) -> tuple[BVMorphism, dict]:
    """phi ∘ psi and the hbar^{-1} coefficient of its log, from one log.

    The composite is `compose_bv_morphisms(phi, psi)`; the coefficient, by
    source key, is what a certificate of finiteness of hbar·log reads.
    """
    if not _same_algebra(psi.target.algebra, phi.source.algebra):
        raise PreconditionError("composition mismatch: target(psi) != source(phi)")
    # log(exp(phi/hbar) ∘ exp(psi/hbar)) in the convolution algebra of psi's source
    window = phi.target.hbar_cutoff + _conilpotency(psi.source.algebra) + _conilpotency(phi.source.algebra) + 2
    ctx = SeriesContext(phi.target.algebra, hbar_cutoff=window)
    E_phi = phi.exp_map()
    product: dict = {}
    for key, series in psi.exp_map().items():
        acc = HbarSeries()
        for (u, r, h), c in series.terms.items():
            acc = acc.add(E_phi.get(u, HbarSeries()).shift_hbar(h).scale(c))
        if not acc.is_zero():
            product[key] = acc
    log = conv_log(psi.source.algebra, ctx, product)
    components: dict[int, dict] = {}
    residue: dict = {}
    for key, series in log.items():
        coeff = series.hbar_coefficient(-1)
        if coeff:
            residue[key] = coeff
        for (t, r, h), c in series.terms.items():
            if h < -1:
                raise StructureError(
                    "composition log has a power below hbar^{-1}; inputs are not morphisms",
                    witness={"key": psi.source.algebra.label(key), "power": h})
            n = h + 1
            if n >= phi.target.hbar_cutoff:
                continue
            components.setdefault(n, {}).setdefault(key, {})[t] = \
                components.get(n, {}).get(key, {}).get(t, ZERO) + c
    composite = BVMorphism(psi.source, phi.target, components, name=f"{phi.name}∘{psi.name}")
    return composite, residue


def clalg_embed(ring: ArtinLocalAlgebra, hbar_cutoff: int = 3) -> BVInftyAlgebra:
    """R* with zero operator and square-zero products on m*."""
    return BVInftyAlgebra(ring.dual_algebra(), {}, hbar_cutoff, name=f"{ring.name}*")


def ring_map_to_bv_morphism(source_ring: ArtinLocalAlgebra, target_ring: ArtinLocalAlgebra,
                            entries: Mapping[str, Mapping[str, object]],
                            hbar_cutoff: int = 3) -> BVMorphism:
    """The morphism hbar(f* - e): S* -> R* of a local ring map f: R -> S.

    `entries[r]` is f(r) as a sparse element of S for each ideal label r;
    f(1) = 1 is implied.  Locality (f(m_R) inside m_S) is enforced.
    """
    f_table: dict[str, dict[str, Scalar]] = {"1": {"1": ONE}}
    for r in source_ring.ideal_labels:
        img = {s: as_scalar(c) for s, c in entries.get(r, {}).items() if as_scalar(c) != 0}
        if "1" in img:
            raise PreconditionError(f"ring map is not local: f({r}) has a unit component")
        for s in img:
            if s not in target_ring.labels:
                raise PreconditionError(f"unknown target ring label {s!r}")
        f_table[r] = img
    # multiplicativity of f, checked exactly
    for a in source_ring.ideal_labels:
        for b in source_ring.ideal_labels:
            lhs: dict[str, Scalar] = {}
            for t, c in source_ring.mul_labels(a, b).items():
                for s, v in f_table.get(t, {}).items():
                    vec_add_into(lhs, s, c * v)
            rhs = target_ring.mul(f_table.get(a, {}), f_table.get(b, {}))
            for s, c in rhs.items():
                vec_add_into(lhs, s, -c)
            if any(lhs.values()):
                raise PreconditionError(f"entries do not define a ring map: ({a})({b})")
    # dual map: phi_1(b*) = sum_r <f(r), b> r*, minus e which only hits 1* -> 1*
    dual_table: dict[str, dict[str, Scalar]] = {}
    for r, img in f_table.items():
        for s, c in img.items():
            dual_table.setdefault(s, {})[r] = dual_table.get(s, {}).get(r, ZERO) + c
    phi1 = {}
    for s, val in dual_table.items():
        adjusted = dict(val)
        if s == "1":
            adjusted["1"] = adjusted.get("1", ZERO) - ONE
        adjusted = {r: c for r, c in adjusted.items() if c}
        if adjusted:
            phi1[s] = adjusted
    return BVMorphism(clalg_embed(target_ring, hbar_cutoff), clalg_embed(source_ring, hbar_cutoff),
                      {1: phi1}, name="hbar(f*-e)")


def identity_bv_morphism(V: BVInftyAlgebra) -> BVMorphism:
    """hbar·log(identity): the projection to cogenerators in arity one.

    Under the unshuffle coproduct the convolution logarithm of the identity
    morphism is exactly the projection onto words of length one.
    """
    comp1 = {}
    for w in V.algebra.words:
        if V.algebra.length(w) == 1:
            comp1[w] = {w: ONE}
    return BVMorphism(V, V, {1: comp1}, name="id")


def theorem_first_bijection_check(V, ring: ArtinLocalAlgebra, S: HbarSeries,
                                  hbar_cutoff: int = 3) -> dict:
    """S solves the QME over R  <=>  the induced map R* -> V[[hbar]] is a
    morphism from (R*, 0); both sides computed independently.

    The vanishing condition (3) holds automatically because (m*)^{n+2} = 0.
    """
    bvi = V.as_bvinfty(hbar_cutoff)
    qme = qme_exp_check(V, ring, S, hbar_cutoff)
    components: dict[int, dict] = {}
    for (w, r, h), c in S.terms.items():
        components.setdefault(h, {}).setdefault(r, {})[w] = c
    phi = BVMorphism(clalg_embed(ring, hbar_cutoff), bvi, components, name="phi_S")
    morphism = check_bv_morphism(phi)
    solves = qme["exp_zero"] and qme["residual_zero"]
    return {
        "solves_qme": solves,
        "is_morphism": morphism["ok"],
        "equivalence": solves == morphism["ok"],
        "ok": qme["ok"] and solves == morphism["ok"],
        "qme": qme,
        "morphism": morphism,
    }


def linfty_morphism_to_bvinfty(g, h, F: CoalgebraMorphism, hbar_cutoff: int = 4) -> BVMorphism:
    """An L-infinity morphism g -> h, the coalgebra morphism F of S(g[1]) to
    S(h[1]) cut at `F.source.max_len`, as the morphism sum_n hbar^n phi_n of
    the desuspension algebras: F's corestriction on a word of length n is
    phi_n there (the L-infinity dictionary)."""
    from .constructions import ce_bvinfty_from_linfty
    N = F.source.max_len
    source = ce_bvinfty_from_linfty(g, N, hbar_cutoff)
    target = ce_bvinfty_from_linfty(h, N, hbar_cutoff)
    components: dict[int, dict] = {}
    for w, val in F.corestriction.items():
        components.setdefault(len(w), {})[w] = {(t,): c for t, c in val.items()}
    return BVMorphism(source, target, components, name="L-infinity phi")


def theorem_second_bijection_check(h, g, F: CoalgebraMorphism, hbar_cutoff: int = 4) -> dict:
    """QME in the convolution algebra hom(S(g[-1]), V)  <=>  S is a morphism
    S(g[-1]) -> V, for V the desuspension algebra of the L-infinity algebra h;
    returns `check_bv_morphism`'s report, the morphism side.

    S is the corestriction of the L-infinity morphism F: g -> h, made a
    morphism by `linfty_morphism_to_bvinfty`: its hbar^n component lives on
    words of length n, so S_n vanishes on words longer than n+1 by
    construction; the degree 2-2n is enforced by the morphism constructor.
    The convolution-QME side would apply Dhat(Phi) = dhat_V ∘ Phi -
    (-1)^{|Phi|} Phi ∘ dhat_g to Phi = exp(S/hbar) in Hom(S(g[-1]),
    V((hbar))).  That is the same `intertwining_defect` call as
    `check_bv_morphism` makes, so it is not computed a second time; until
    the QME side is read off the convolution brackets (the curvature route)
    the report holds the one check.
    """
    return check_bv_morphism(linfty_morphism_to_bvinfty(g, h, F, hbar_cutoff))


def twisted_linfty_morphism(g, rng: random.Random, max_len: int = 3):
    """A genuinely nontrivial valid instance: conjugate the codifferential of
    g by a random coalgebra automorphism F = exp(id + c_2).

    Returns (g_twisted, F), F a `CoalgebraMorphism` of S(g[1]) cut at
    `max_len`; F is then an honest L-infinity morphism g_twisted -> g, so its
    Chuang-Lazarev residual vanishes and the induced BV-infinity morphism
    passes every condition.
    """
    from .sampling import random_corestriction_twist
    W = g.word_algebra(max_len)
    F = CoalgebraMorphism(W, W, random_corestriction_twist(g, rng, max_len))
    E = F.induced()

    # D' = F^{-1} D F needs only the letter part g = pi F^{-1}.  F = id + N
    # with N strictly length-lowering, and F^{-1} = id - F^{-1} N, so in
    # length order g(w) = [w] - sum_u N(w)_u g(u), [w] = w on letters and 0
    # on longer words.  (The convolution inverse is not F^{-1}.)
    letter_part: dict[Word, dict[str, Scalar]] = {}
    for w in W.words:
        acc = {w[0]: ONE} if len(w) == 1 else {}
        for (u, _, _), c in E[w].terms.items():
            if u != w:
                for t, v in letter_part[u].items():
                    vec_add_into(acc, t, -c * v)
        letter_part[w] = acc
    D = g.codifferential(max_len)

    twisted_cor: dict[int, dict] = {}
    for w in W.words:
        if not w:
            continue
        letters: dict[str, Scalar] = {}
        for u, c in D.apply(word_vector(E, w)).items():
            for t, v in letter_part[u].items():
                vec_add_into(letters, t, c * v)
        if letters:
            twisted_cor.setdefault(len(w), {})[w] = letters
    g_twisted = LInftyAlgebra(g.space, twisted_cor, name=f"{g.name}-twisted")
    return g_twisted, F
