"""Coderivations, coalgebra morphisms, and the convolution algebra with exp/log.

A coderivation of the truncated symmetric coalgebra is determined by a
table on short words: D = mult ∘ (table ⊗ id) ∘ coproduct.  Read with
one-letter values the table is the corestriction; its values are word
vectors so that a cobracket's pair words fit too.  On a word w the
extension is the closed form

    D(w) = sum_J eps(J) table(w_J) w_rest,

summed over the subsets J of w's positions whose letters w_J form a table
key, with w_rest the letters outside J and eps(J) the Koszul sign of moving
w_J to the front; only subsets of the table's arities are visited, so no
coproduct is built.  Every CE-type operator is such an extension: the CE d
and Delta of a dg-Lie algebra, the Delta_n of an L-infinity algebra, the
cobracket d of a Lie bialgebra, the bi-dg Delta, and the L-infinity
codifferential itself.

A coaugmentation-respecting coalgebra morphism is likewise determined by a
degree-zero corestriction into the target cogenerators, and its extension is
the convolution exponential of that corestriction.

Convolution: for f, g from a coalgebra C to a commutative algebra A,
(f ⋆ g)(w) = mult ∘ (f ⊗ g) ∘ Δ(w), with the Koszul sign of g crossing the
first tensor factor.  The exponential and logarithm are finite sums here
because every source coalgebra in this package is conilpotent.

On a word coalgebra the exponential is a sum over the set partitions of
each word's positions (the exponential formula), taken in length order
through the block of the first letter: one pass over the first-letter half
of the unshuffles, with no 1/k!, so integral maps stay `int`.  The dual R*
of a parameter ring has no letters to split at, so its exponential stays the
power series sum_k f^{⋆k}/k!; R* has at most M keys, and on word coalgebras
the same series is the tests' oracle for the recursion.  The logarithm is
the power series on every coalgebra.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping

from .diagnostics import PreconditionError
from .graded import ONE, ZERO, Scalar, as_scalar
from .series import HbarSeries, SeriesContext
from .words import SymmetricWordAlgebra, Word, WordAlgebra, vec_add_into

__all__ = [
    "Coderivation",
    "corestriction_defect",
    "CoalgebraMorphism",
    "coproduct_defect",
    "intertwining_defect",
    "conv_unit",
    "convolve",
    "conv_exp",
    "conv_log",
    "corestriction_series",
    "MapSeries",
    "word_vector",
]


# A linear map out of a coalgebra, sparse over its basis keys.
MapSeries = dict


class Coderivation:
    """Coderivation of a symmetric word coalgebra, given by a table on short words.

    `table` maps normal-form words of length >= 1 to sparse vectors over
    normal-form words, each value of degree `degree` more than its key.
    Keys longer than the truncation act on no word and are dropped.
    `expand` is the closed form of the module docstring, which is
    sum c * table(l) * r over the terms (l, r, c) of the unshuffle
    coproduct: it vanishes on the empty word, and a table on letters alone
    extends as a derivation.
    """

    def __init__(self, algebra: SymmetricWordAlgebra, degree: int,
                 table: Mapping[Word, Mapping[Word, object]]):
        if not algebra.symmetric:
            raise PreconditionError("coderivations are implemented on symmetric word algebras")
        self.algebra = algebra
        self.degree = int(degree)
        space_degree = algebra.space.degree
        cleaned: dict[Word, dict[Word, Scalar]] = {}
        for w, val in table.items():
            if len(w) < 1:
                raise PreconditionError("a coderivation table must vanish on the empty word")
            clean = {u: as_scalar(c) for u, c in val.items() if as_scalar(c) != 0}
            key_degree = sum(map(space_degree, w))
            for u in clean:
                if sum(map(space_degree, u)) - key_degree != self.degree:
                    raise PreconditionError(
                        f"table entry {w} -> {u} violates degree {self.degree}")
            if clean and len(w) <= algebra.max_len:
                cleaned[w] = clean
        self.table = cleaned
        self._arities = sorted({len(w) for w in cleaned})
        self._cache: dict[Word, dict[Word, Scalar]] = {}

    def expand(self, word: Word) -> dict[Word, Scalar]:
        cached = self._cache.get(word)
        if cached is not None:
            return cached
        table = self.table
        odd = self.algebra._odd_letters
        odd_before = None  # odd_before[i]: odd letters in word[:i]
        # (key, rest) -> summed sign.  Positions of an even letter repeated in
        # the word give equal pairs with equal signs, so nothing cancels and
        # each product is formed once.
        terms: dict[tuple[Word, Word], int] = {}
        for k in self._arities:
            for key, J in zip(itertools.combinations(word, k),
                              itertools.combinations(range(len(word)), k)):
                if key not in table:
                    continue
                if odd_before is None:
                    odd_before = list(itertools.accumulate((x in odd for x in word), initial=0))
                rest: Word = ()
                start = crossings = seen = 0
                for i in J:
                    rest += word[start:i]
                    start = i + 1
                    if word[i] in odd:
                        # the odd letters before i that stay behind
                        crossings += odd_before[i] - seen
                        seen += 1
                rest += word[start:]
                group = (key, rest)
                terms[group] = terms.get(group, 0) + (-1 if crossings % 2 else 1)
        out: dict[Word, Scalar] = {}
        mul_words = self.algebra.mul_words
        for (key, rest), c in terms.items():
            for u, v in table[key].items():
                for w, s in mul_words(u, rest).items():
                    vec_add_into(out, w, c * v * s)
        self._cache[word] = out
        return out

    apply_word = expand

    def apply(self, vec: Mapping[Word, Scalar]) -> dict[Word, Scalar]:
        out: dict[Word, Scalar] = {}
        for w, c in vec.items():
            if not c:
                continue
            for u, v in self.expand(w).items():
                vec_add_into(out, u, v * c)
        return out

    def __repr__(self):
        return f"Coderivation(degree={self.degree}, arities={self._arities})"


def corestriction_defect(words, compositions) -> tuple[Word, dict[Word, Scalar]] | None:
    """The first of `words` on which the corestriction of the sum of A ∘ B
    over the (A, B) pairs of coderivations is nonzero, with that value, or
    None.

    The corestriction of A on a word is its table's value there, so a pair
    costs one expansion B(w) and a table lookup per word of it.  A
    coderivation such as D^2 or a graded commutator vanishes on the words of
    length <= n exactly when its corestriction does.
    """
    for w in words:
        acc: dict[Word, Scalar] = {}
        for A, B in compositions:
            table = A.table
            for u, c in B.expand(w).items():
                for t, v in table.get(u, {}).items():
                    vec_add_into(acc, t, c * v)
        if acc:
            return w, acc
    return None


# -- convolution --------------------------------------------------------------


def conv_unit(coalg, ctx: SeriesContext) -> MapSeries:
    """Unit of the convolution product: unit ∘ counit."""
    out: MapSeries = {}
    for key in _basis_keys(coalg):
        c = coalg.counit_key(key) if hasattr(coalg, "counit_key") else (ONE if key == coalg.unit else ZERO)
        if c:
            out[key] = ctx.unit().scale(c)
    return out


def _basis_keys(coalg):
    if hasattr(coalg, "basis_keys"):
        return coalg.basis_keys
    return coalg.words


def _value(f: MapSeries, key) -> HbarSeries:
    v = f.get(key)
    return v if v is not None else HbarSeries()


def word_vector(F: MapSeries, key) -> dict[Word, Scalar]:
    """F(key) as a vector over words, for a map whose values carry no ring or hbar part."""
    series = F.get(key)
    return {} if series is None else {k[0]: c for k, c in series.terms.items()}


def convolve(coalg, ctx: SeriesContext, f: MapSeries, g: MapSeries, g_degree: int = 0) -> MapSeries:
    """f ⋆ g; `g_degree` is the total degree of g (hbar weight included)."""
    out: MapSeries = {}
    for key in _basis_keys(coalg):
        acc: dict = {}
        for k1, k2, c in coalg.coproduct(key):
            fv = f.get(k1)
            gv = g.get(k2)
            if fv is None or gv is None:
                continue
            ctx.mul_into(acc, fv, gv, -c if (g_degree * coalg.degree(k1)) % 2 else c)
        if acc:
            out[key] = HbarSeries(acc)
    return out


def _map_is_zero(f: MapSeries) -> bool:
    return all(v.is_zero() for v in f.values())


def corestriction_series(corestriction: Mapping[Word, Mapping[str, Scalar]]) -> MapSeries:
    """A corestriction (word -> sparse vector over letters) as a map into
    series over one-letter words, the form `conv_exp` takes."""
    return {w: HbarSeries({((t,), "1", 0): c for t, c in val.items()})
            for w, val in corestriction.items()}


def conv_exp(coalg, ctx: SeriesContext, f: MapSeries) -> MapSeries:
    """Convolution exponential of a degree-zero map killing the coaugmentation.

    On a word coalgebra, E(1) = 1 and E(w) = sum c f(l) E(r) over the terms
    (l, r, c) of `WordAlgebra.first_letter_coproduct(w)`; each set partition
    is reached once, through the block of w's first letter.
    """
    if not _value(f, coalg.unit).is_zero():
        raise PreconditionError("conv_exp requires f(1) = 0")
    if not isinstance(coalg, WordAlgebra):
        return _conv_exp_series(coalg, ctx, f)
    out: MapSeries = {coalg.unit: ctx.unit()}
    for w in coalg.words[1:]:  # after the unit, in length order: each E(r) is ready
        acc: dict = {}
        for l, r, c in coalg.first_letter_coproduct(w):
            fl = f.get(l)
            er = out.get(r)
            if fl is not None and er is not None:
                ctx.mul_into(acc, fl, er, c)
        if acc:
            out[w] = HbarSeries(acc)
    return out


def _conv_exp_series(coalg, ctx: SeriesContext, f: MapSeries) -> MapSeries:
    """sum_k f^{⋆k}/k!, one convolution per k; for any conilpotent coalgebra."""
    out = conv_unit(coalg, ctx)
    power: MapSeries = dict(f)
    limit = len(list(_basis_keys(coalg))) + 4
    n = 1
    while not _map_is_zero(power):
        for key, val in power.items():
            if key in out:
                out[key] = out[key].add(val)
            elif not val.is_zero():
                out[key] = val
        n += 1
        if n > limit:
            raise PreconditionError("convolution exponential did not terminate")
        power = convolve(coalg, ctx, power, f)
        power = {k: v.scale(Fraction(1, n)) for k, v in power.items()}
    return out


def conv_log(coalg, ctx: SeriesContext, F: MapSeries) -> MapSeries:
    """Convolution logarithm of a map with F(1) = 1."""
    unit_val = _value(F, coalg.unit).sub(ctx.unit())
    if not unit_val.is_zero():
        raise PreconditionError("conv_log requires F(1) = 1")
    e = conv_unit(coalg, ctx)
    base: MapSeries = {}
    for key in _basis_keys(coalg):
        d = _value(F, key).sub(_value(e, key))
        if not d.is_zero():
            base[key] = d
    out: MapSeries = {}
    power = dict(base)
    limit = len(list(_basis_keys(coalg))) + 4
    n = 1
    while not _map_is_zero(power):
        sign = ONE if n % 2 == 1 else -ONE
        for key, val in power.items():
            contrib = val.scale(sign * Fraction(1, n))
            out[key] = out.get(key, HbarSeries()).add(contrib)
        n += 1
        if n > limit:
            raise PreconditionError("convolution logarithm did not terminate")
        power = convolve(coalg, ctx, power, base)
    return {k: v for k, v in out.items() if not v.is_zero()}


class CoalgebraMorphism:
    """Coaugmented coalgebra morphism between word coalgebras.

    Determined by its corestriction: a degree-zero map from source words of
    positive length to the target cogenerators.  The induced map on words is
    the convolution exponential of the corestriction, built on the first
    `induced()` and shared by every check that reads it: this is the one
    route to the exponential of a corestriction.
    """

    def __init__(self, source: SymmetricWordAlgebra, target: SymmetricWordAlgebra,
                 corestriction: Mapping[Word, Mapping[str, object]]):
        self.source = source
        self.target = target
        cor: dict[Word, dict[str, Scalar]] = {}
        for w, val in corestriction.items():
            if len(w) < 1:
                raise PreconditionError("corestriction must vanish on the coaugmentation")
            clean = {t: as_scalar(c) for t, c in val.items() if as_scalar(c) != 0}
            for t in clean:
                if target.space.degree(t) != source.degree(w):
                    raise PreconditionError(f"corestriction entry {w} -> {t} is not degree zero")
            if clean:
                cor[w] = clean
        self.corestriction = cor
        self._induced: MapSeries | None = None

    def induced(self) -> MapSeries:
        """The full morphism, as a map from source words to target-word series;
        treat it as read-only."""
        if self._induced is None:
            self._induced = conv_exp(self.source, SeriesContext(self.target),
                                     corestriction_series(self.corestriction))
        return self._induced


def coproduct_defect(source, target, F: MapSeries):
    """The first basis key of `source` on which Δ_target ∘ F ≠ (F ⊗ F) ∘ Δ_source,
    or None; F maps source keys to plain series over target words, as `conv_exp` does."""
    vectors = {key: word_vector(F, key) for key in _basis_keys(source)}
    for key, vector in vectors.items():
        diff: dict[tuple[Word, Word], Scalar] = {}
        for u, c in vector.items():
            for l, r, s in target.coproduct(u):
                vec_add_into(diff, (l, r), c * s)
        for a, b, s in source.coproduct(key):
            for u1, c1 in vectors[a].items():
                for u2, c2 in vectors[b].items():
                    vec_add_into(diff, (u1, u2), -s * c1 * c2)
        if diff:
            return key
    return None


def intertwining_defect(keys, E: MapSeries, target_ops, source_ops,
                        cutoff: int | None = None, kept_below: int | None = None):
    """The first key on which sum_s hbar^s T ∘ E ≠ sum_s hbar^s E ∘ D, or None:
    D' ∘ E = E ∘ D, the condition of every morphism certificate.

    The ops are (operator with `apply_word`, hbar shift) pairs; E maps source
    keys to series over target keys, as `conv_exp` does.  As in
    `SeriesContext.apply_word_operator_into`, a term whose shifted power
    reaches `cutoff` is dropped before its operator is applied, so the same
    words are applied and the same `TruncationOverflow`s raised.  Only terms
    below `kept_below` count."""
    for key in keys:
        diff: dict = {}
        for T, s in target_ops:
            for (a, r, h), c in _value(E, key).terms.items():
                if cutoff is None or h + s < cutoff:
                    for w, v in T.apply_word(a).items():
                        vec_add_into(diff, (w, r, h + s), v * c)
        for D, s in source_ops:
            if cutoff is None or s < cutoff:
                for u, c in D.apply_word(key).items():
                    for (a, r, h), e in _value(E, u).terms.items():
                        vec_add_into(diff, (a, r, h + s), -c * e)
        if any(kept_below is None or h < kept_below for (_, _, h) in diff):
            return key
    return None
