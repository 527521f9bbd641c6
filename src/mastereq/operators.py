"""Linear operators on word algebras: composition, graded commutators, order checks.

Operators are degree-homogeneous and stored sparsely per basis word.  An
operator may be undefined on words whose image would overflow the word-length
truncation (e.g. a derivation that raises length, applied near the top); the
defined set is tracked explicitly so every certificate can state the window
it actually covers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping

from .diagnostics import CheckResult, PreconditionError
from .words import TruncationOverflow, WordAlgebra, vec_add_into, word_tuples_within

__all__ = ["Operator", "operator_order_check", "iterated_commutator_apply"]

ZERO = Fraction(0)
ONE = Fraction(1)


class Operator:
    def __init__(self, algebra: WordAlgebra, degree: int, entries: Mapping, defined: set | None = None, name: str = ""):
        self.algebra = algebra
        self.degree = int(degree)
        self.entries = {w: {u: c for u, c in img.items() if c} for w, img in entries.items()}
        self.entries = {w: img for w, img in self.entries.items() if img}
        self.defined = set(algebra.words) if defined is None else set(defined)
        self.name = name

    @classmethod
    def from_function(cls, algebra: WordAlgebra, degree: int, fn: Callable, name: str = "") -> "Operator":
        """Tabulate `fn` over the basis; words where it overflows stay undefined."""
        entries = {}
        defined = set()
        for w in algebra.words:
            try:
                entries[w] = fn(w)
            except TruncationOverflow:
                continue
            defined.add(w)
        return cls(algebra, degree, entries, defined, name)

    @classmethod
    def zero(cls, algebra: WordAlgebra, degree: int) -> "Operator":
        return cls(algebra, degree, {}, None, "0")

    def apply_word(self, w) -> dict:
        if w not in self.defined:
            raise TruncationOverflow(w, (), self.algebra.max_len)
        return self.entries.get(w, {})

    def apply(self, vec: Mapping) -> dict:
        out: dict = {}
        for w, c in vec.items():
            if not c:
                continue
            for u, v in self.apply_word(w).items():
                vec_add_into(out, u, v * c)
        return out

    @property
    def max_raise(self) -> int:
        """Largest word-length increase over the defined set."""
        worst = 0
        for w, img in self.entries.items():
            for u in img:
                worst = max(worst, len(u) - len(w))
        return worst

    def compose(self, inner: "Operator") -> "Operator":
        if inner.algebra is not self.algebra:
            raise PreconditionError("operators live on different algebras")
        entries = {}
        defined = set()
        for w in inner.defined:
            img = inner.entries.get(w, {})
            if any(u not in self.defined for u in img):
                continue
            out: dict = {}
            for u, c in img.items():
                for t, v in self.entries.get(u, {}).items():
                    vec_add_into(out, t, v * c)
            entries[w] = out
            defined.add(w)
        return Operator(self.algebra, self.degree + inner.degree, entries, defined,
                        f"{self.name}∘{inner.name}")

    def add(self, other: "Operator") -> "Operator":
        if other.degree != self.degree:
            raise PreconditionError("cannot add operators of different degrees")
        defined = self.defined & other.defined
        entries = {}
        for w in defined:
            out = dict(self.entries.get(w, {}))
            for u, c in other.entries.get(w, {}).items():
                vec_add_into(out, u, c)
            entries[w] = out
        return Operator(self.algebra, self.degree, entries, defined, f"{self.name}+{other.name}")

    def scale(self, c: Fraction) -> "Operator":
        return Operator(
            self.algebra, self.degree,
            {w: {u: c * v for u, v in img.items()} for w, img in self.entries.items()},
            self.defined, self.name,
        )

    def graded_commutator(self, other: "Operator") -> "Operator":
        """[self, other] = self other - (-1)^{|self||other|} other self."""
        sign = -ONE if (self.degree * other.degree) % 2 else ONE
        return self.compose(other).add(other.compose(self).scale(-sign))

    def is_zero_on_defined(self) -> CheckResult:
        for w in sorted(self.defined, key=lambda u: (len(u), u)):
            img = self.entries.get(w)
            if img:
                witness_val = {self.algebra.label(u): str(c) for u, c in sorted(img.items())}
                return CheckResult(self.name or "operator", False,
                                   witness={"word": self.algebra.label(w), "value": witness_val})
        return CheckResult(self.name or "operator", True)

    def __repr__(self):
        return f"Operator({self.name or 'anon'}, degree={self.degree})"


def iterated_commutator_apply(algebra: WordAlgebra, op: Operator, vs: list, target) -> dict:
    """Apply [...[[op, L_{v_0}], L_{v_1}], ..., L_{v_k}] to a basis word.

    Graded commutators with left multiplications, evaluated recursively; the
    operator is applied exactly once per expansion branch, so the word-length
    budget of the caller bounds every intermediate product.
    """

    def rec(k: int, x: Mapping) -> dict:
        # x: sparse word vector; returns C_k(x)
        if k < 0:
            out: dict = {}
            for w, c in x.items():
                for u, v in op.apply_word(w).items():
                    vec_add_into(out, u, v * c)
            return out
        v = vs[k]
        deg_ck = op.degree + sum(algebra.degree(u) for u in vs[:k])
        sign = -ONE if (deg_ck * algebra.degree(v)) % 2 else ONE
        left = rec(k - 1, algebra.mul({v: ONE}, x))
        right = algebra.mul({v: ONE}, rec(k - 1, x))
        out = dict(left)
        for w, c in right.items():
            vec_add_into(out, w, -sign * c)
        return out

    return rec(len(vs) - 1, {target: ONE})


def operator_order_check(algebra: WordAlgebra, op: Operator, n: int, name: str = "") -> CheckResult:
    """Differential-operator order certificate: order <= n iff all (n+1)-fold
    iterated graded commutators with left multiplications vanish.

    The commutator is multilinear in the test vectors, and a bracket with a
    left multiplication obeys the derivation rule

        [C, L_{ab}] = [C, L_a] L_b + (-1)^{|C||a|} L_a [C, L_b]

    (Koszul, *Crochet de Schouten-Nijenhuis et cohomologie*, Astérisque 1985;
    Akman, JPAA 120, 1997).  Every word is a combination of products of
    generators of the same total length, so expanding the test vectors
    writes the commutator with words as a sum of commutators with
    generators, composed with left multiplications, each applied within the
    same length budget.  So tuples of `algebra.generator_words()` decide the
    order: the letters for symmetric words, every word for the shuffle
    (tensor) algebra, whose letters do not generate it.

    A tuple of generators of total length `used` is tested on every target
    word w with used + len(w) <= N - max_raise, so no intermediate product
    overflows the truncation.  The bound's `checked` counts those
    (generator tuple, target) pairs.
    """
    budget = algebra.max_len - max(0, op.max_raise)
    gens = [w for w in algebra.generator_words() if len(w) <= budget]
    checked = 0
    for vs in word_tuples_within(gens, n + 1, budget):
        used = sum(len(v) for v in vs)
        for w in algebra.words:
            if used + len(w) > budget:
                continue
            checked += 1
            result = iterated_commutator_apply(algebra, op, list(vs), w)
            if any(result.values()):
                witness = {
                    "test_vectors": [algebra.label(v) for v in vs],
                    "word": algebra.label(w),
                    "value": {algebra.label(u): str(c) for u, c in sorted(result.items()) if c},
                }
                return CheckResult(name or f"order<={n}", False, witness=witness,
                                   bound={"word_length": algebra.max_len, "checked": checked})
    return CheckResult(name or f"order<={n}", True,
                       bound={"word_length": algebra.max_len, "checked": checked})
