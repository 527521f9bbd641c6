"""Linear operators on word algebras: composition, graded commutators, order checks.

Operators are degree-homogeneous and stored sparsely per basis word.  An
operator may be undefined on words whose image would overflow the word-length
truncation (e.g. a derivation that raises length, applied near the top); the
defined set is tracked explicitly so every certificate can state the window
it actually covers.
"""

from __future__ import annotations

import collections
import functools
import itertools
from typing import Callable, Mapping

from .diagnostics import CheckResult, InternalError, PreconditionError
from .graded import ONE
from .words import TruncationOverflow, WordAlgebra, vec_add_into, word_tuples_within

__all__ = ["Operator", "operator_order_check", "iterated_commutator_apply", "prefix_commutators"]


class Operator:
    def __init__(self, algebra: WordAlgebra, degree: int, entries: Mapping, defined: set | None = None, name: str = ""):
        self.algebra = algebra
        self.degree = int(degree)
        self.entries = {w: kept for w, img in entries.items()
                        if (kept := {u: c for u, c in img.items() if c})}
        self.defined = set(algebra.words) if defined is None else set(defined)
        self.name = name

    @classmethod
    def _adopt(cls, algebra: WordAlgebra, degree: int, entries: dict, defined: set, name: str) -> "Operator":
        """An operator that keeps `entries` and `defined` as given, uncopied.

        For data built by the caller with no empty image and no zero
        coefficient, as `__init__` would leave them.  Operators are not
        changed after construction, so `defined` may be shared.
        """
        op = cls.__new__(cls)
        op.algebra, op.degree, op.entries, op.defined, op.name = algebra, degree, entries, defined, name
        return op

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
            if out:
                entries[w] = out
            defined.add(w)
        return Operator._adopt(self.algebra, self.degree + inner.degree, entries, defined,
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
            if out:
                entries[w] = out
        return Operator._adopt(self.algebra, self.degree, entries, defined, f"{self.name}+{other.name}")

    def is_zero_on_defined(self, name: str = "") -> CheckResult:
        """Vanishing on the defined set, as the row `name` or the operator's name;
        the witness is the first defined word in (length, word) order with a
        nonzero image.  Stored images are nonzero, so only defined keys of
        `entries` can be witnesses."""
        name = name or self.name or "operator"
        w = min((u for u in self.entries if u in self.defined), key=lambda u: (len(u), u), default=None)
        if w is None:
            return CheckResult(name, True)
        witness_val = {self.algebra.label(u): str(c) for u, c in sorted(self.entries[w].items())}
        return CheckResult(name, False,
                           witness={"word": self.algebra.label(w), "value": witness_val})

    def __repr__(self):
        return f"Operator({self.name or 'anon'}, degree={self.degree})"


def iterated_commutator_apply(algebra: WordAlgebra, op: Operator, vs: list, target) -> dict:
    """Apply [...[[op, L_{v_0}], L_{v_1}], ..., L_{v_k}] to a basis word.

    This is the definition, evaluated recursively with nothing shared: the
    operator is applied once on each of the 2^(k+1) expansion branches, so
    the word-length budget of the caller bounds every intermediate product.
    `operator_order_check` evaluates the same commutators through shared
    tables and confirms every witness it reports with this function.
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


def prefix_commutators(algebra: WordAlgebra, degree: int, n: int, base: Callable,
                       times: Callable) -> Callable:
    """`at(vs)` for n basis words vs returns x -> [...[base, L_{v_0}], ...,
    L_{v_{n-1}}](x) on basis words x; `base` maps a basis word to a sparse
    vector (an operator of degree `degree`) and `times(v, key)` multiplies
    one of its keys by v.

        C_{-1} = base,   C_k(x) = C_{k-1}(v_k x) - (-1)^{|C_{k-1}||v_k|} v_k C_{k-1}(x)

    C_k depends on the prefix (v_0, ..., v_k) only, so each level k < n - 1
    keeps a table of C_k on basis words, filled on demand and cleared by `at`
    when the prefix changes; the last tuple's evaluator stays valid until the
    next `at`.  In `word_tuples_within` order the tuples sharing a prefix are
    consecutive, so each prefix's table is built once.

    `at.level(k, x)`, k < n - 1, reads C_k(x) for the prefix of the last
    `at` from the same table.  C_{k+1}, ..., C_{n-1} applied to x read C_k
    only on words of length at most len(x) + len(v_{k+1}) + ... +
    len(v_{n-1}), by the recursion above and linearity; so a C_k that
    vanishes on every word of that window makes every deeper commutator
    vanish there, whatever the later v's (`operator_order_check` prunes
    on this).
    """
    mul_words = algebra.mul_words
    tables: list[dict] = [{} for _ in range(n - 1)]
    prefix: tuple = (None,) * n  # matches no tuple: the first one fills every table
    # minus_signs[k] = -(-1)^{|C_{k-1}||v_k|}, the coefficient of v_k C_{k-1}(x)
    minus_signs: list = [ONE] * n

    def apply_level(k: int, vs: tuple, x) -> dict:
        """C_k(x) from C_{k-1}, for a basis word x."""
        v = vs[k]
        out: dict = {}
        for u, s in mul_words(v, x).items():
            for t, c in lower(k - 1, vs, u).items():
                vec_add_into(out, t, s * c)
        for u, c in lower(k - 1, vs, x).items():
            c = minus_signs[k] * c
            for t, s in times(v, u).items():
                vec_add_into(out, t, s * c)
        return out

    def lower(k: int, vs: tuple, x) -> dict:
        if k < 0:
            return base(x)
        table = tables[k]
        value = table.get(x)
        if value is None:
            value = table[x] = apply_level(k, vs, x)
        return value

    def at(vs: tuple) -> Callable:
        nonlocal prefix
        shared = next((k for k in range(n - 1) if vs[k] != prefix[k]), n - 1)
        for table in tables[shared:]:
            table.clear()
        prefix = vs
        deg_c = degree
        for k, v in enumerate(vs):
            minus_signs[k] = ONE if (deg_c * algebra.degree(v)) % 2 else -ONE
            deg_c += algebra.degree(v)
        return functools.partial(apply_level, n - 1, vs)

    def level(k: int, x) -> dict:
        return lower(k, prefix, x)

    at.level = level
    return at


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
    (generator tuple, target) pairs.  `max_raise` sees only stored entries:
    an operator undefined on a word inside that budget cannot be certified
    there, and the check raises a `PreconditionError` naming the word.

    The commutators go through the prefix tables of `prefix_commutators`
    (at most n * |words| entries, for one call).  A nonzero value is
    confirmed with `iterated_commutator_apply`, the unshared definition,
    before it is reported.

    Pruning.  When the listing reaches a new prefix p = (v_0, ..., v_k),
    k = -1, ..., n - 1, the check tests whether C_k(p) vanishes on every
    word of length <= budget - used(p), the window p's subtree reads it on
    (level -1 is the operator itself, tested on its stored entries).  By
    linearity alone, C_{k+1}(p, v)(x) = C_k(p)(v x) - (-1)^{|C_k||v|} v C_k(p)(x),
    every (tuple, target) pair under p is then zero: its pairs are counted
    in `checked` from the number of words of each length, and none is
    evaluated.  No graded commutativity is used, so this holds for shuffle
    words too.  It is done only when `op` is defined on every word of
    length <= budget, so a `PreconditionError` is raised where the full
    scan would raise it; the first failing pair, its witness and `checked`
    are those of the full scan.
    """
    budget = algebra.max_len - max(0, op.max_raise)
    gens = [w for w in algebra.generator_words() if len(w) <= budget]
    words = algebra.words
    # within[L]: the number of words of length <= L, a prefix of `words`
    lengths = collections.Counter(map(len, words))
    within = list(itertools.accumulate(lengths[length] for length in range(budget + 1)))
    prunable = all(w in op.defined for w in words[:within[budget]])

    def apply_op(x) -> dict:
        try:
            return op.apply_word(x)
        except TruncationOverflow:
            raise PreconditionError(
                f"order check: {op.name or 'the operator'} is undefined on "
                f"{algebra.label(x)}, a word inside the length budget "
                f"N - max_raise = {algebra.max_len} - {op.max_raise}") from None

    commutators = prefix_commutators(algebra, op.degree, n + 1, apply_op, algebra.mul_words)
    checked = 0
    # the lowest level k whose prefix vs[:k+1] vanishes on its window: -1 for
    # the operator itself, n for none; a tuple that still shares that prefix
    # with the last one (dead < shared) is skipped untested
    dead = -1 if prunable and all(len(w) > budget for w in op.entries) else n
    last: tuple = ()
    for vs in word_tuples_within(gens, n + 1, budget):
        shared = next((k for k in range(n) if vs[k] != last[k]), n) if last else 0
        last = vs
        # rooms[k]: the target window of the prefix vs[:k+1]
        rooms = [budget - used for used in itertools.accumulate(map(len, vs))]
        if dead >= shared:
            commutator = commutators(vs)
            dead = next((k for k in range(shared, n) if prunable and not any(
                commutators.level(k, x) for x in words[:within[rooms[k]]])), n)
        if dead < n:
            checked += within[rooms[n]]
            continue
        for w in words[:within[rooms[n]]]:
            checked += 1
            value = commutator(w)
            if not value:
                continue
            result = iterated_commutator_apply(algebra, op, list(vs), w)
            if result != value:
                raise InternalError(
                    f"order check: shared tables and the definition disagree on "
                    f"{[algebra.label(v) for v in vs]} applied to {algebra.label(w)}")
            witness = {
                "test_vectors": [algebra.label(v) for v in vs],
                "word": algebra.label(w),
                "value": {algebra.label(u): str(c) for u, c in sorted(result.items()) if c},
            }
            return CheckResult(name or f"order<={n}", False, witness=witness,
                               bound={"word_length": algebra.max_len, "checked": checked})
    return CheckResult(name or f"order<={n}", True,
                       bound={"word_length": algebra.max_len, "checked": checked})
