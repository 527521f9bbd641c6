"""dg-Lie and L-infinity algebras, Maurer-Cartan theory, representability checks.

An L-infinity structure on g is stored as structure constants of the brackets
l_n : S^n(g[1]) -> g[1] of degree one, equivalently the corestriction of a
square-zero degree-one coderivation D on the truncated coalgebra S(g[1]).
A dg-Lie algebra is the L-infinity algebra with l_1 = d and
l_2(x, y) = (-1)^{|x|} [x, y] for x, y in g[1], all higher brackets zero:
`DgLieAlgebra` subclasses `LInftyAlgebra`.  Its axioms are the low-arity
components of D^2 = 0: the corestriction of D^2 on one-, two- and
three-letter words is d^2, the Leibniz defect and the Jacobiator (Lada and
Stasheff, Int. J. Theor. Phys. 32, 1993), so `DgLieAlgebra.axiom_report`
reads them off `LInftyAlgebra.square_zero_rows`.

Over a local parameter ring (R, m) with m^M = 0 the completed tensor g ⊗ m is
plain g (x) m, and the extended Maurer-Cartan residual sum_n l_n(S,..,S)/n! is
a finite sum.  Elements of degree one in g (x) m are even in g[1] (x) m, so all
powers are sign-free: the coefficient of a word in exp(S) is a product of
divided powers of the coefficients of S, and the residual is read off the
bracket table without multiplying exp(S) out.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence

from .artin import ArtinLocalAlgebra
from .coalgebra import (CoalgebraMorphism, Coderivation, MapSeries, conv_exp, coproduct_defect,
                        corestriction_defect, intertwining_defect)
from .diagnostics import CheckResult, PreconditionError, StructureError, timed
from .graded import ONE, ZERO, GradedVectorSpace, Scalar, as_scalar
from .series import HbarSeries, LinearPart, SeriesContext, SolveResult, lift_perturbative
from .words import SymmetricWordAlgebra, Word, normal_form, vec_add_into

if TYPE_CHECKING:
    from .bv import BVInftyAlgebra

__all__ = [
    "DgLieAlgebra",
    "LInftyAlgebra",
    "MaurerCartanElement",
    "mc_element",
    "emce_residual",
    "mc_is_solution",
    "mc_exp_map",
    "quillen_bijection_check",
    "chuang_lazarev_residual",
    "chuang_lazarev_morphism_defect",
    "mc_linear_part",
    "mc_solve_perturbative",
    "coderivation_dg_lie",
    "deformed_bracket_check",
]


class LInftyAlgebra:
    """L-infinity algebra as bracket structure constants on S(g[1])."""

    def __init__(self, space: GradedVectorSpace, brackets: Mapping[int, Mapping[Word, Mapping[str, object]]],
                 name: str = "g"):
        self.space = space
        self.shifted = space.shift(1)
        self.name = name
        self.brackets: dict[int, dict[Word, dict[str, Scalar]]] = {}
        for n, table in brackets.items():
            clean_table: dict[Word, dict[str, Scalar]] = {}
            for w, val in table.items():
                if len(w) != n:
                    raise StructureError(f"bracket arity {n} given a word of length {len(w)}")
                clean = {t: as_scalar(c) for t, c in val.items() if as_scalar(c) != 0}
                if clean:
                    clean_table[tuple(w)] = clean
            if clean_table:
                self.brackets[n] = clean_table
        self._coderivations: dict[int, Coderivation] = {}
        self._coderivation_algebras: dict[int, tuple[DgLieAlgebra, dict]] = {}
        self._ce_bvinfty: dict[tuple[int, int], BVInftyAlgebra] = {}

    def word_algebra(self, max_len: int) -> SymmetricWordAlgebra:
        """S(g[1]) cut at `max_len`, shared by every structure on `space`."""
        return self.space.symmetric_algebra(1, max_len)

    def coderivation_table(self, *arities: int) -> dict[Word, dict[Word, Scalar]]:
        """The brackets of these arities as one `Coderivation` table, with
        one-letter words as values."""
        return {w: {(t,): c for t, c in val.items()}
                for n in arities for w, val in self.brackets.get(n, {}).items()}

    def codifferential(self, max_len: int) -> Coderivation:
        if max_len not in self._coderivations:
            self._coderivations[max_len] = Coderivation(
                self.word_algebra(max_len), 1, self.coderivation_table(*self.brackets))
        return self._coderivations[max_len]

    def corestriction_value(self, word: Word) -> dict[str, Scalar]:
        return self.brackets.get(len(word), {}).get(word, {})

    def square_zero_rows(self, names: Sequence[str]) -> list[CheckResult]:
        """D^2 = 0 on S(g[1]) cut at len(names): row n, timed and named
        `names[n - 1]`, is the corestriction of D^2 on the n-letter words.
        Its witness is the first word on which it fails and the value there,
        which is D^2 of that word when the shorter words pass.

        D^2 is a coderivation, so it vanishes up to length n exactly when
        rows 1..n pass.  On an n-letter word the corestriction is
        sum_{i+j=n+1} l_i ∘ D_j, with D_j the coderivation of the arity-j
        brackets, so only the parts of D that land on a bracket are expanded.
        The rows use S(g[1]) and D cut at len(names), shared with other
        callers of `word_algebra` and `codifferential`.
        """
        W = self.word_algebra(len(names))
        D = self.codifferential(len(names))

        def row(name: str, n: int) -> CheckResult:
            acting = [j for j in self.brackets if j <= n]
            needed = [j for j in acting if n + 1 - j in self.brackets]
            # D itself when every part that acts is needed: its expansions are kept
            inner = D if needed == acting else Coderivation(W, 1, self.coderivation_table(*needed))
            found = corestriction_defect([w for w in W.words if len(w) == n], [(D, inner)])
            if found is None:
                return CheckResult(name, True)
            w, value = found
            return CheckResult(name, False, witness={
                "word": W.label(w), "value": {W.label(u): str(c) for u, c in sorted(value.items())}})

        return [timed(lambda name=name, n=n: row(name, n)) for n, name in enumerate(names, 1)]

    def __repr__(self):
        return f"LInftyAlgebra({self.name}, dim={self.space.dim}, arities={sorted(self.brackets)})"


class DgLieAlgebra(LInftyAlgebra):
    """Graded Lie algebra with a degree-one differential: the L-infinity
    algebra with l_1 = d and l_2 the shifted bracket.

    `d` is the table {(source, target): coefficient}.  The bracket table is
    completed by graded antisymmetry [y, x] = -(-1)^{|x||y|} [x, y]; for
    even x the diagonal [x, x] must vanish.
    """

    def __init__(self, space: GradedVectorSpace, d, bracket: Mapping, name: str = "g", validate: bool = True):
        self.d = space.map_table(d, 1, "d")
        table: dict[tuple[str, str], dict[str, Scalar]] = {}
        for (a, b), val in (bracket or {}).items():
            clean = {c: as_scalar(v) for c, v in val.items() if as_scalar(v) != 0}
            for c in clean:
                # the bracket has degree zero, so l_2 is a degree-one table on S(g[1])
                if space.degree(c) != space.degree(a) + space.degree(b):
                    raise StructureError(f"{name}: [{a},{b}] has a term {c} of degree "
                                         f"{space.degree(c)}, not |{a}|+|{b}|", witness=(a, b, c))
            table[(a, b)] = clean
        for (a, b), val in list(table.items()):
            sign = -ONE if (space.degree(a) * space.degree(b)) % 2 == 0 else ONE
            flipped = {c: sign * v for c, v in val.items()}
            if (b, a) in table and (b, a) not in ((a, b),):
                if table[(b, a)] != flipped and (b, a) != (a, b):
                    raise StructureError(f"{name}: bracket table not graded antisymmetric", witness=(a, b))
            elif (b, a) != (a, b):
                table[(b, a)] = flipped
            else:
                # diagonal: for even generators [x, x] is forced to vanish
                if space.degree(a) % 2 == 0 and val:
                    raise StructureError(f"{name}: [x,x] must vanish for even x", witness=a)
        self.bracket = {k: v for k, v in table.items() if v}
        super().__init__(space, self._linfty_brackets(space), name=name)
        self._axioms: list[CheckResult] | None = None
        if validate:
            report = self.axiom_report()
            bad = [r for r in report if not r.ok]
            if bad:
                raise StructureError(f"{name}: {bad[0].name} fails", witness=bad[0].witness)

    def _linfty_brackets(self, space: GradedVectorSpace) -> dict[int, dict[Word, dict[str, Scalar]]]:
        """l_1 = d on letters and l_2(x, y) = (-1)^{|x|} [x, y] on the
        normal-form pairs of S(g[1]), with |x| the degree in g[1]."""
        shifted = space.shift(1)
        brackets: dict[int, dict[Word, dict[str, Scalar]]] = {1: {}, 2: {}}
        for (s, t), c in self.d.items():
            brackets[1].setdefault((s,), {})[t] = c
        for (a, b) in self.bracket:
            word, _ = normal_form(shifted, [a, b])
            if word is None or word in brackets[2]:
                continue
            sx = -ONE if shifted.degree(word[0]) % 2 else ONE
            brackets[2][word] = {t: sx * c for t, c in self.bracket_labels(*word).items()}
        return brackets

    def bracket_labels(self, a: str, b: str) -> dict[str, Scalar]:
        return self.bracket.get((a, b), {})

    def bracket_vec(self, v1: Mapping[str, Scalar], v2: Mapping[str, Scalar]) -> dict[str, Scalar]:
        out: dict[str, Scalar] = {}
        for a, c1 in v1.items():
            for b, c2 in v2.items():
                for t, s in self.bracket_labels(a, b).items():
                    vec_add_into(out, t, s * c1 * c2)
        return out

    def axiom_report(self) -> list[CheckResult]:
        """d^2 = 0, the Leibniz rule and graded Jacobi, each timed: the rows
        of D^2 = 0 on the one-, two- and three-letter words of S(g[1]).

        Computed once per algebra, when it is validated or on the first call,
        and shared between callers; treat the results as read-only."""
        if self._axioms is None:
            self._axioms = self.square_zero_rows(("d-squared", "leibniz", "jacobi"))
        return list(self._axioms)

    def __repr__(self):
        return f"DgLieAlgebra({self.name}, dim={self.space.dim})"


class MaurerCartanElement(HbarSeries):
    """Degree-one element of g (x) m, keyed by (label, ring label, 0)."""

    def __init__(self, g, ring: ArtinLocalAlgebra, terms: Mapping):
        super().__init__(terms)
        space = g.space
        for (x, r, h) in self.terms:
            if h != 0:
                raise PreconditionError("Maurer-Cartan elements carry no hbar powers")
            if space.degree(x) != 1:
                raise PreconditionError(f"component on {x!r} of degree {space.degree(x)}, expected 1")
            if r not in ring.ideal_labels:
                raise PreconditionError(f"coefficient {r!r} is not in the maximal ideal")


def mc_element(g, ring: ArtinLocalAlgebra, terms: Mapping[tuple[str, str], object]) -> MaurerCartanElement:
    return MaurerCartanElement(g, ring, {(x, r, 0): c for (x, r), c in terms.items()})


def emce_residual(g, ring: ArtinLocalAlgebra, S: HbarSeries) -> HbarSeries:
    """sum_{n>=1} l_n(S,...,S)/n! in g (x) m; finite since m is nilpotent.

    Read off the bracket table.  S has total degree one, so its letter x at
    hbar power h has degree 1 - 2h in g and -2h in g[1]: every letter of S is
    even, and exp(S) = prod_x exp(s_x x) with s_x in m[hbar] the coefficient
    of x.  The coefficient of a word x_1^{m_1}...x_k^{m_k} in exp(S) is
    prod_i s_{x_i}^{m_i}/m_i!, and the residual is l_n(word) times it,
    summed over the words on the letters of S.  These are built level by
    level, as `SymmetricWordAlgebra` builds its basis: a word extends one a
    letter shorter, and its coefficient is that word's times s_x/m, with m
    the new multiplicity of the letter x.  A word whose coefficient
    vanishes (m^M = 0) is not extended, and none is longer than the
    longest bracket.
    """
    coefficient: dict[str, dict[tuple[str, int], Scalar]] = {}  # x -> s_x as {(r, h): c}
    for (x, r, h), c in S.terms.items():
        if g.space.degree(x) + 2 * h != 1:
            raise PreconditionError(
                f"Maurer-Cartan elements have total degree 1; component on {x!r} has "
                f"degree {g.space.degree(x) + 2 * h}")
        if r not in ring.ideal_labels:
            raise PreconditionError(f"coefficient {r!r} is not in the maximal ideal")
        coefficient.setdefault(x, {})[(r, h)] = c

    def mul(a: dict, b: dict, k: int) -> dict:
        """a * b / k in R[hbar]."""
        out: dict[tuple[str, int], Scalar] = {}
        for (r1, h1), c1 in a.items():
            for (r2, h2), c2 in b.items():
                for r, rc in ring.mul_labels(r1, r2).items():
                    vec_add_into(out, (r, h1 + h2), c1 * c2 * rc)
        return out if k == 1 else {key: as_scalar(Fraction(v, k)) for key, v in out.items()}

    # sorted, the words on even letters are normal forms, as the bracket keys are
    letters = sorted(coefficient, key=g.shifted.sort_key.__getitem__)
    out: dict = {}
    # (word, its coefficient in exp(S), index of its last letter, multiplicity of that letter)
    level: list[tuple[Word, dict, int, int]] = [((), {}, 0, 0)]
    for n in range(1, max(g.brackets, default=0) + 1):
        table = g.brackets.get(n, {})
        extended = []
        for word, c, last, m in level:
            for i in range(last, len(letters)):
                x = letters[i]
                k = m + 1 if word and i == last else 1
                cx = mul(c, coefficient[x], k) if word else coefficient[x]
                if not cx:
                    continue
                longer = word + (x,)
                extended.append((longer, cx, i, k))
                for t, v in table.get(longer, {}).items():
                    for (r, h), a in cx.items():
                        vec_add_into(out, (t, r, h), v * a)
        level = extended
    return HbarSeries(out)


def mc_is_solution(g, ring: ArtinLocalAlgebra, S: HbarSeries) -> bool:
    return emce_residual(g, ring, S).is_zero()


def mc_exp_map(g, ring: ArtinLocalAlgebra, S: HbarSeries) -> MapSeries:
    """exp(S): R* -> S(g[1]).  S in (g (x) m)^1 is read as a map R* -> g[1],
    and exp(S) is its convolution exponential.  Its values are words shorter
    than the nilpotency order M, computed in g.word_algebra(M)."""
    if any(h for (_, _, h) in S.terms):
        raise PreconditionError("classical Maurer-Cartan elements carry no hbar powers")
    by_label: dict[str, dict] = {}
    for (x, r, _), c in S.terms.items():
        by_label.setdefault(r, {})[((x,), "1", 0)] = c
    return conv_exp(ring.dual_coalgebra(), SeriesContext(g.word_algebra(ring.nilpotency)),
                    {r: HbarSeries(t) for r, t in by_label.items()})


def quillen_bijection_check(g, ring: ArtinLocalAlgebra, S: HbarSeries,
                            exp_map: MapSeries | None = None) -> dict:
    """Representability instance check over Spec R.

    `exp_map` is exp(S) = `mc_exp_map(g, ring, S)`, built here when not
    given; a caller that also needs the map (a battery and its control)
    builds it once.  Checks that exp(S) is a coaugmented coalgebra morphism,
    and, independently, that (D ∘ exp(S) = 0) <=> (the Maurer-Cartan
    residual of S vanishes), the residual read off the bracket table by
    `emce_residual`.  Returns the verdicts, that `residual`, and `witness`:
    the first key of R* on which the coproduct check fails (`coproduct`) and
    on which D ∘ exp(S) is not zero (`d_exp`), and the first nonzero
    residual term as (letter, ring label, hbar power) in basis order
    (`curvature`); each None where there is none.
    """
    M = ring.nilpotency
    F = mc_exp_map(g, ring, S) if exp_map is None else exp_map
    dual = ring.dual_coalgebra()
    coproduct_key = coproduct_defect(dual, g.word_algebra(M), F)
    d_exp_key = intertwining_defect(dual.basis_keys, F, [(g.codifferential(M), 0)], [])
    residual = emce_residual(g, ring, S)
    curvature = min(residual.terms, default=None,
                    key=lambda k: (g.space.index(k[0]), ring.labels.index(k[1]), k[2]))
    morphism_ok = coproduct_key is None
    d_exp_zero = d_exp_key is None
    residual_zero = curvature is None
    equivalence = d_exp_zero == residual_zero
    return {
        "morphism": morphism_ok,
        "d_exp_zero": d_exp_zero,
        "residual_zero": residual_zero,
        "equivalence": equivalence,
        "ok": morphism_ok and equivalence,
        "residual": residual,
        "witness": {"coproduct": coproduct_key, "d_exp": d_exp_key, "curvature": curvature},
        "bound": {"word_length": M, "nilpotency": M},
    }


def chuang_lazarev_residual(target, source, F: CoalgebraMorphism) -> dict[Word, dict[str, Scalar]]:
    """DS + [S,S]/2 in the convolution algebra hom(S(g'[1]), g), for S the
    corestriction of F, on the words of `F.source`.

    Computed as the corestriction of the intertwining defect of F = exp(S):
    the target brackets applied to `F.induced()`, minus S applied to the
    source codifferential.  Zero exactly when S corestricts an L-infinity
    morphism source -> target.
    """
    Dsrc = source.codifferential(F.source.max_len)
    E, S = F.induced(), F.corestriction
    residual: dict[Word, dict[str, Scalar]] = {}
    for w in F.source.augmentation_ideal_words():
        acc: dict[str, Scalar] = {}
        Ew = E.get(w)
        if Ew is not None:
            for (u, _, _), c in Ew.terms.items():
                for t, v in target.corestriction_value(u).items():
                    vec_add_into(acc, t, v * c)
        for u, c in Dsrc.expand(w).items():
            for t, v in S.get(u, {}).items():
                vec_add_into(acc, t, -v * c)
        if acc:
            residual[w] = acc
    return residual


def chuang_lazarev_morphism_defect(target, source, F: CoalgebraMorphism) -> CheckResult:
    """The whole defect D_target ∘ F - F ∘ D_source on every word of
    `F.source`, through the same `F.induced()`; the residual above is its
    corestriction."""
    N = F.source.max_len
    w = intertwining_defect(F.source.words, F.induced(), [(target.codifferential(N), 0)],
                            [(source.codifferential(N), 0)])
    if w is not None:
        return CheckResult("intertwining", False, witness={"word": F.source.label(w)})
    return CheckResult("intertwining", True)


def mc_linear_part(g: LInftyAlgebra) -> LinearPart:
    """l_1 from degree one to degree two, keyed (label, 0) for `lift_perturbative`."""
    l1 = g.brackets.get(1, {})
    unknowns = [(x, 0) for x in g.space.labels if g.space.degree(x) == 1]
    equations = [(x, 0) for x in g.space.labels if g.space.degree(x) == 2]
    rows = [[l1.get((x,), {}).get(e, ZERO) for x, _ in unknowns] for e, _ in equations]
    return unknowns, equations, rows


def mc_solve_perturbative(g, ring: ArtinLocalAlgebra, seed: HbarSeries) -> SolveResult:
    """Lift a first-order solution along the m-adic filtration.

    `lift_perturbative` solves l_1(s_k) = -(residual at order k) one ring
    monomial at a time and reports the first unsolvable layer as an
    obstruction together with the residual representative.  Any returned
    solution satisfies the Maurer-Cartan equation exactly.
    """
    if not ring.adapted:
        raise PreconditionError("ring basis is not adapted to the m-adic filtration")
    for (x, r, h) in seed.terms:
        if h != 0 or ring.order(r) != 1 or g.space.degree(x) != 1:
            raise PreconditionError("seed must be a degree-one element of g (x) m/m^2")
    start = time.perf_counter()
    l1 = g.brackets.get(1, {})
    img: dict = {}  # l_1 of every ring layer of the seed at once
    for (x, r, _), c in seed.terms.items():
        for t, v in l1.get((x,), {}).items():
            vec_add_into(img, (t, r), v * c)
    if img:
        raise PreconditionError("seed is not closed under l_1")
    closed_ms = (time.perf_counter() - start) * 1000.0
    start = time.perf_counter()
    result = lift_perturbative(ring, seed, lambda R, S: emce_residual(g, R, S),
                               mc_linear_part(g), {"nilpotency": ring.nilpotency})
    if result.status == "solved":
        final = emce_residual(g, ring, result.element)
        if not final.is_zero():
            raise StructureError("perturbative lift left a nonzero residual", witness=final)
    result.timing_ms = {"seed-closed": closed_ms, "solution-verified": (time.perf_counter() - start) * 1000.0}
    return result


def coderivation_dg_lie(h, max_len: int = 3) -> tuple[DgLieAlgebra, dict]:
    """The dg-Lie algebra of based coderivations of S(h[1]), truncated.

    Basis elements are single corestriction entries word -> generator; the
    bracket is the commutator of coderivation extensions and the differential
    is the bracket with the codifferential of h.  Returns the algebra and the
    label map {(word, target): basis label}.

    The pair is built once per algebra h, keyed by max_len, and shared
    between callers; treat it as read-only.  The build does not validate the
    algebra; `axiom_report()` certifies it on demand.
    """
    if max_len not in h._coderivation_algebras:
        h._coderivation_algebras[max_len] = _build_coderivation_dg_lie(h, max_len)
    return h._coderivation_algebras[max_len]


def _build_coderivation_dg_lie(h: LInftyAlgebra, max_len: int) -> tuple[DgLieAlgebra, dict]:
    """The tables in closed form.  e_{w1->t1} ∘ ê_{w2->t2} has at most one
    term: on w = w2·r with r = w1 minus one t2 (so t2 must occur in w1), with
    coefficient the coproduct coefficient of w2 ⊗ r in Δ(w) times the sign
    of t2·r = w1.  The differential [mu, e] is linear in mu's entries."""
    W = h.word_algebra(max_len)
    space_entries = []
    key_of: dict[tuple[Word, str], str] = {}
    for w in W.words:
        if not w:
            continue
        for t in h.shifted.labels:
            label = f"{W.label(w)}>{t}"
            key_of[(w, t)] = label
            space_entries.append((label, h.shifted.degree(t) - W.degree(w)))
    space_c = GradedVectorSpace(space_entries)
    split: dict[tuple[Word, Word], tuple[Word, Scalar]] = {}  # (w2, r) -> (w, coefficient in Δ(w))
    for w in W.words:
        for left, right, c in W.coproduct(w):
            if left:
                split[(left, right)] = (w, c)

    def compose(w1: Word, t1: str, w2: Word, t2: str) -> dict[tuple[Word, str], Scalar]:
        """e_{w1->t1} ∘ ê_{w2->t2}: one term at most."""
        if t2 not in w1:
            return {}
        i = w1.index(t2)
        rest = w1[:i] + w1[i + 1:]
        w, c = split.get((w2, rest), (None, ZERO))
        return {(w, t1): c * W.mul_words((t2,), rest)[w1]} if c else {}

    mu = h.codifferential(max_len).table
    bracket_table: dict[tuple[str, str], dict[str, Scalar]] = {}
    d_entries: dict[tuple[str, str], Scalar] = {}
    basis_keys = list(key_of)  # in basis order
    for i, (w1, t1) in enumerate(basis_keys):
        lab1 = key_of[(w1, t1)]
        deg1 = space_c.degree(lab1)
        # differential: [mu, e] = mu ∘ ê - (-1)^{|e|} e ∘ mû
        sign = -ONE if deg1 % 2 else ONE
        dmu: dict[tuple[Word, str], Scalar] = {}
        for wm, val in mu.items():
            for (tm,), cm in val.items():
                for key, c in compose(wm, tm, w1, t1).items():
                    vec_add_into(dmu, key, cm * c)
                for key, c in compose(w1, t1, wm, tm).items():
                    vec_add_into(dmu, key, -sign * cm * c)
        for (w, t), c in dmu.items():
            d_entries[(lab1, key_of[(w, t)])] = c
        for (w2, t2) in basis_keys[i:]:
            lab2 = key_of[(w2, t2)]
            sign = -ONE if (deg1 * space_c.degree(lab2)) % 2 else ONE
            br = compose(w1, t1, w2, t2)
            for key, c in compose(w2, t2, w1, t1).items():
                vec_add_into(br, key, -sign * c)
            if br:
                bracket_table[(lab1, lab2)] = {key_of[key]: c for key, c in br.items()}
    algebra = DgLieAlgebra(space_c, d_entries, bracket_table,
                           name=f"Coder({h.name},N={max_len})", validate=False)
    return algebra, key_of


def deformed_bracket_check(h: DgLieAlgebra, ring: ArtinLocalAlgebra,
                           S: Mapping[tuple[str, str], Mapping[str, Mapping[str, object]]]) -> dict:
    """Deforming a Lie bracket by S over R: Jacobi for [x,y] + S(x,y) versus the
    Maurer-Cartan equation for the encoded element of the coderivation algebra.

    `S[(a, b)][c]` is a ring element (dict ring label -> coefficient) in m.
    Only classical inputs (everything in degree zero, d = 0) are supported,
    matching a deformation of an honest Lie algebra.  The witness is the first
    failing Jacobi triple, else the first Maurer-Cartan residual term.
    """
    if any(deg != 0 for _, deg in h.space.basis) or h.d:
        raise PreconditionError("deformed-bracket check expects a classical Lie algebra")
    labels = h.space.labels
    table: dict[tuple[str, str], dict[str, dict[str, Scalar]]] = {}
    for (a, b), val in S.items():
        entry = {c: {r: as_scalar(v) for r, v in relt.items() if as_scalar(v) != 0}
                 for c, relt in val.items()}
        entry = {c: relt for c, relt in entry.items() if relt}
        for c, relt in entry.items():
            for r in relt:
                if r not in ring.ideal_labels:
                    raise PreconditionError("deformation coefficients must lie in m")
        table[(a, b)] = entry
        table.setdefault((b, a), {c: {r: -v for r, v in relt.items()} for c, relt in entry.items()})

    def deformed(u: Mapping[tuple[str, str], Scalar], v: Mapping[tuple[str, str], Scalar]):
        out: dict[tuple[str, str], Scalar] = {}
        for (x, r1), c1 in u.items():
            for (y, r2), c2 in v.items():
                coeff = c1 * c2
                rr = ring.mul_labels(r1, r2)
                if not rr:
                    continue
                for t, s in h.bracket_labels(x, y).items():
                    for r, rc in rr.items():
                        vec_add_into(out, (t, r), s * coeff * rc)
                for t, relt in table.get((x, y), {}).items():
                    for rs, sv in relt.items():
                        for r, rc in ring.mul({rs: ONE}, dict(rr)).items():
                            vec_add_into(out, (t, r), sv * coeff * rc)
        return out

    jacobi_ok = True
    witness = None
    for x, y, z in itertools.combinations(labels, 3):
        acc: dict[tuple[str, str], Scalar] = {}
        for (a, b, c) in ((x, y, z), (y, z, x), (z, x, y)):
            inner = deformed({(a, "1"): ONE}, {(b, "1"): ONE})
            for key, v in deformed(inner, {(c, "1"): ONE}).items():
                vec_add_into(acc, key, v)
        if any(acc.values()):
            jacobi_ok = False
            witness = (x, y, z)
            break

    coder, key_of = coderivation_dg_lie(h, max_len=3)
    terms: dict = {}
    for (a, b), entry in S.items():
        word, sign = normal_form(h.shifted, [a, b])
        if word is None:
            continue
        # encode with the same shift sign as the codifferential: -S(a,b) classically
        for c, relt in entry.items():
            lab = key_of[(word, c)]
            for r, v in relt.items():
                key = (lab, r, 0)
                cur = terms.get(key, ZERO) + (-ONE) * sign * as_scalar(v)
                if cur:
                    terms[key] = cur
    residual = emce_residual(coder, ring, HbarSeries(terms))
    mc_ok = residual.is_zero()
    if witness is None and not mc_ok:  # (coderivation label, ring label), in basis order
        witness = min(((lab, r) for lab, r, _ in residual.terms),
                      key=lambda t: (coder.space.index(t[0]), ring.labels.index(t[1])))
    return {
        "jacobi": jacobi_ok,
        "mc": mc_ok,
        "agree": jacobi_ok == mc_ok,
        "witness": witness,
        "ok": jacobi_ok and jacobi_ok == mc_ok,
    }
