"""dg-BV and BV-infinity algebras: operator orders, antibrackets, the QME.

A BV-infinity algebra carries operators Delta_n of order <= n and degree
3 - 2n, assembled into dhat = sum_n hbar^{n-1} Delta_n of total degree one
(|hbar| = 2), with dhat(1) = 0 and dhat^2 = 0 modulo the hbar cutoff K: its
hbar^k parts D_k = sum_{n+m=k+2} Delta_n Delta_m vanish for k < K.

A dg-BV algebra is the BV-infinity algebra with hbar window 3, Delta_1 = d
(a derivation of degree +1) and Delta_2 = Delta (second order, degree -1).
Its axioms d^2 = 0, [Delta, d] = 0 and Delta^2 = 0 are the hbar^0, hbar^1
and hbar^2 parts D_0, D_1, D_2 of dhat^2 = (d + hbar Delta)^2; [Delta, d] is
the graded commutator, the anticommutator of the two odd operators.

Everything QME-related reduces to iterated graded commutators of dhat with
left multiplications: with K_0 = dhat and K_j = [K_{j-1}, L_S],

    e^{-S/hbar} dhat e^{S/hbar} = sum_{0<=j<=M-1} (1/j!) hbar^{-j} K_j   (as operators),
    residual = sum_{1<=j<=M-1} (1/j!) hbar^{-(j-1)} K_j(1),

which is the source of both QME forms and of the conjugation identity check.
Both sums stop at j = M-1: S has coefficients in m, so K_j carries m^j, and
m^M = 0 makes every K_j with j >= M vanish.

K_j is computed on integer numerators: S = N/D and x = N_x/D_x with int
coefficients, K_j(x) = K_j[N](N_x) / (D^j D_x), since K_j is multilinear in
its series arguments and linear in x. Scaling an argument by a nonzero
constant scales every intermediate series and keeps its support, so the
same products are formed and the same words overflow the window; only the
one division at the end leaves the integers.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .artin import ArtinLocalAlgebra, TRIVIAL_RING
from .diagnostics import CheckResult, InternalError, PreconditionError, StructureError, timed
from .graded import ONE, ZERO, Scalar
from .operators import Operator, operator_order_check, prefix_commutators
from .series import HbarSeries, LinearPart, SeriesContext, SolveResult, lift_perturbative
from .words import TruncationOverflow, Word, WordAlgebra, vec_add_into, word_tuples_within

__all__ = [
    "BVAlgebra",
    "BVInftyAlgebra",
    "antibracket",
    "derived_bracket",
    "derived_brackets_linfty_check",
    "qme_residual",
    "bvinfty_qme_residual",
    "qme_exp_check",
    "conjugation_identity_check",
    "qme_linear_part",
    "qme_solve_perturbative",
]

HALF = Fraction(1, 2)


class BVInftyAlgebra:
    def __init__(self, algebra: WordAlgebra, operators: Mapping[int, Operator],
                 hbar_cutoff: int = 3, name: str = "V"):
        if hbar_cutoff < 1:
            raise PreconditionError(f"hbar cutoff must be >= 1, got {hbar_cutoff}")
        self.algebra = algebra
        self.operators = {int(n): op for n, op in operators.items() if op.entries}
        # dhat as (Delta_n, hbar power n - 1) pairs, by arity
        self.shifted_operators = [(op, n - 1) for n, op in sorted(self.operators.items())]
        self.hbar_cutoff = int(hbar_cutoff)
        self.name = name
        self._certificates: list[CheckResult] | None = None
        self._square_parts: dict[int, Operator] = {}
        self._windows: dict[int, BVInftyAlgebra] = {}

    def context(self, ring: ArtinLocalAlgebra = TRIVIAL_RING) -> SeriesContext:
        return SeriesContext(self.algebra, ring, self.hbar_cutoff)

    def dhat(self, s: HbarSeries, ctx: SeriesContext | None = None) -> HbarSeries:
        """sum_n hbar^{n-1} Delta_n, applied ring- and hbar-linearly."""
        ctx = ctx or self.context()
        out: dict = {}
        for op, shift in self.shifted_operators:
            ctx.apply_word_operator_into(out, op, s, hbar_shift=shift)
        return HbarSeries(out)

    def as_bvinfty(self, hbar_cutoff: int | None = None) -> "BVInftyAlgebra":
        """These operators at window `hbar_cutoff` (None: its own), built once per window."""
        if hbar_cutoff is None or hbar_cutoff == self.hbar_cutoff:
            return self
        if hbar_cutoff not in self._windows:
            self._windows[hbar_cutoff] = BVInftyAlgebra(self.algebra, self.operators, hbar_cutoff, self.name)
        return self._windows[hbar_cutoff]

    def certify(self) -> list[CheckResult]:
        """All defining identities, each as its own certificate, timed."""
        if self._certificates is not None:
            return self._certificates
        A = self.algebra
        out: list[CheckResult] = []
        bound = {"word_length": A.max_len, "hbar_cutoff": self.hbar_cutoff}
        for n, op in sorted(self.operators.items()):
            expected = 3 - 2 * n
            out.append(timed(lambda: CheckResult(f"degree(Delta_{n})={expected}",
                                                 op.degree == expected, bound=bound)))
            out.append(timed(lambda: operator_order_check(A, op, n, name=f"Delta_{n} order<={n}")))
        out.append(timed(lambda: CheckResult(
            "dhat(1)=0", all(not op.entries.get((), {}) for op in self.operators.values()), bound=bound)))
        out.append(self.square)
        out.append(timed(lambda: _augmentation_row(
            A, [(f"Delta_{n}", op) for n, op in sorted(self.operators.items())], bound)))
        self._certificates = out
        return out

    def is_certified(self) -> bool:
        return all(self.certify())

    def square_part(self, k: int) -> Operator:
        """D_k = sum_{n+m=k+2} Delta_n Delta_m, the hbar^k part of dhat^2, formed
        once per algebra; the zero operator when no two arities sum to k + 2."""
        if k not in self._square_parts:
            ops = self.operators
            terms = [ops[n].compose(ops[k + 2 - n]) for n in sorted(ops) if k + 2 - n in ops]
            for term in terms:  # |dhat| = 1, |hbar| = 2; also where a degree row fails
                term.degree = 2 - 2 * k
            self._square_parts[k] = (functools.reduce(Operator.add, terms) if terms
                                     else Operator.zero(self.algebra, 2 - 2 * k))
        return self._square_parts[k]

    @functools.cached_property
    def square(self) -> CheckResult:
        """The dhat-squared row, timed: D_k(w) = 0 for k < K on each word w,
        in (length, word) order, where no operator and no D_k is undefined;
        the first failing word is the witness, the words before it where one
        is undefined are `skipped`."""
        return timed(self._square_check)

    def _square_check(self) -> CheckResult:
        A = self.algebra
        parts = [self.square_part(k) for k in range(self.hbar_cutoff)]
        common = set(A.words).intersection(*(op.defined for op in (*self.operators.values(), *parts)))
        square_ok, witness, skipped = True, None, []
        for w in sorted(A.words, key=lambda u: (len(u), u)):
            if w not in common:
                skipped.append(A.label(w))
            elif any(w in part.entries for part in parts):
                square_ok, witness = False, {"word": A.label(w)}
                break
        return CheckResult("dhat-squared", square_ok, witness=witness,
                           bound={"word_length": A.max_len, "hbar_cutoff": self.hbar_cutoff,
                                  "skipped": skipped})

    def __repr__(self):
        return f"{type(self).__name__}({self.name}, operators={sorted(self.operators)}, K={self.hbar_cutoff})"


class BVAlgebra(BVInftyAlgebra):
    """A dg-BV algebra: the BV-infinity algebra with Delta_1 = d, Delta_2 = delta, window 3."""

    def __init__(self, algebra: WordAlgebra, d: Operator, delta: Operator, name: str = "V"):
        super().__init__(algebra, {1: d, 2: delta}, 3, name)
        self.d = d
        self.delta = delta

    def certify(self) -> list[CheckResult]:
        """All defining identities, each as its own certificate, timed; d^2,
        [delta,d] and delta^2 are the hbar^0, hbar^1 and hbar^2 parts of dhat^2."""
        if self._certificates is not None:
            return self._certificates
        A = self.algebra
        bound = {"word_length": A.max_len}
        self._certificates = [timed(check) for check in (
            lambda: CheckResult("d(1)=0", not self.d.entries.get((), {}), bound=bound),
            lambda: CheckResult("delta(1)=0", not self.delta.entries.get((), {}), bound=bound),
            lambda: self.square_part(0).is_zero_on_defined("d-squared"),
            lambda: self.square_part(2).is_zero_on_defined("delta-squared"),
            lambda: self.square_part(1).is_zero_on_defined("[delta,d]"),
            lambda: operator_order_check(A, self.d, 1, name="d order<=1"),
            lambda: operator_order_check(A, self.delta, 2, name="delta order<=2"),
            lambda: _augmentation_row(A, [("d", self.d), ("delta", self.delta)], {}),
        )]
        return self._certificates


def _augmentation_row(A: WordAlgebra, operators: Sequence[tuple[str, Operator]],
                      bound: dict) -> CheckResult:
    """augmentation-compatibility: no named operator has a unit component in
    the image of a word; the witness names the first operator and word that do."""
    for label, op in operators:
        for w, img in op.entries.items():
            if img.get((), ZERO):
                return CheckResult("augmentation-compatibility", False, bound=bound,
                                   witness={"operator": label, "word": A.label(w)})
    return CheckResult("augmentation-compatibility", True, bound=bound)


# -- brackets -----------------------------------------------------------------


def antibracket(bv: BVAlgebra, a: Mapping[Word, Scalar] | Word, b: Mapping[Word, Scalar] | Word) -> dict[Word, Scalar]:
    """{a,b} = (-1)^{|a|} (Delta(ab) - (Delta a) b - (-1)^{|a|} a (Delta b)).

    Arguments are homogeneous words or word vectors; the result measures the
    failure of Delta to be a derivation and has degree |a| + |b| - 1.
    """
    A = bv.algebra
    va = {a: ONE} if isinstance(a, tuple) else dict(a)
    vb = {b: ONE} if isinstance(b, tuple) else dict(b)
    deg_a = _homogeneous_degree(A, va)
    sa = -ONE if deg_a % 2 else ONE
    ab = A.mul(va, vb)
    t1 = bv.delta.apply(ab)
    t2 = A.mul(bv.delta.apply(va), vb)
    t3 = A.mul(va, bv.delta.apply(vb))
    out: dict[Word, Scalar] = {}
    for w, c in t1.items():
        vec_add_into(out, w, sa * c)
    for w, c in t2.items():
        vec_add_into(out, w, -sa * c)
    for w, c in t3.items():
        vec_add_into(out, w, -c)
    return out


def _homogeneous_degree(A: WordAlgebra, vec: Mapping[Word, Scalar]) -> int:
    degs = {A.degree(w) for w, c in vec.items() if c}
    if len(degs) > 1:
        raise PreconditionError(f"argument is not homogeneous: degrees {sorted(degs)}")
    return degs.pop() if degs else 0


def _commutator_chain(bvi: BVInftyAlgebra, ctx: SeriesContext, args: Sequence[HbarSeries],
                      arg_degrees: Sequence[int], x: HbarSeries) -> HbarSeries:
    """Apply [...[dhat, L_{args[0]}], ..., L_{args[-1]}] to x, graded signs included.

    With every argument an even S this is K_j(x), K_0 = dhat and K_j =
    [K_{j-1}, L_S]: a sum of S^a dhat(S^b x) with a + b = j, whose
    ring-nonzero partial products are those with a + b < M. With the ring
    basis adapted to the m-adic filtration, every such product of K_M(x) is
    also made by K_{M-1}(x), so dropping K_M(x) hides no TruncationOverflow.
    K_j's arguments are equal series, not basis words, so it keeps this
    recursion: sharing over j would be a ladder, not `prefix_commutators`.

    The recursion runs on integer numerators. Each distinct argument and x
    is cleared once, v = N_v / D_v (`HbarSeries.cleared`); the chain is
    multilinear in its arguments and linear in x, so its value on the
    numerators is D_x * prod_i D_{args[i]} times the value asked for, and one
    division at the end gives it exactly. Every intermediate series is the
    same nonzero multiple of the one the rational recursion forms, with the
    same support, so the same products are formed and the same words raise
    TruncationOverflow.
    """
    cleared: dict[int, tuple[HbarSeries, int]] = {}
    den = 1
    numerators = []
    for v in (*args, x):
        if id(v) not in cleared:  # [S] * j repeats one series: clear it once
            cleared[id(v)] = v.cleared()
        num, d = cleared[id(v)]
        numerators.append(num)
        den *= d
    val = _commutator_prefix(bvi, ctx, numerators[:-1], arg_degrees, len(args) - 1, numerators[-1])
    return val if den == 1 else val.scale(Fraction(1, den))


def _commutator_prefix(bvi: BVInftyAlgebra, ctx: SeriesContext, args: Sequence[HbarSeries],
                       arg_degrees: Sequence[int], j: int, x: HbarSeries) -> HbarSeries:
    """`_commutator_chain` of args[:j+1], recursing on the index j."""
    if j < 0:
        return bvi.dhat(x, ctx)
    v = args[j]
    outer = _commutator_prefix(bvi, ctx, args, arg_degrees, j - 1, ctx.mul(v, x))
    inner = ctx.mul(v, _commutator_prefix(bvi, ctx, args, arg_degrees, j - 1, x))
    # [K, L_v] = K L_v - (-1)^{|K||v|} L_v K, |K| = 1 + earlier degrees: odd iff |v| odd, sum even
    return outer.add(inner) if arg_degrees[j] % 2 and not sum(arg_degrees[:j]) % 2 else outer.sub(inner)


def derived_bracket(bvi: BVInftyAlgebra, words: Sequence[Word],
                    ring: ArtinLocalAlgebra = TRIVIAL_RING) -> HbarSeries:
    """{v_1,...,v_n} = hbar^{-(n-1)} [...[dhat, L_{v_1}],...,L_{v_n}](1).

    The order bounds on the Delta_k guarantee no negative hbar powers; if one
    survives, the operator family violates its declared orders and a
    structure error is raised.
    """
    ctx = SeriesContext(bvi.algebra, ring, bvi.hbar_cutoff + len(words))
    args = [HbarSeries({(w, "1", 0): ONE}) for w in words]
    degs = [bvi.algebra.degree(w) for w in words]
    val = _commutator_chain(bvi, ctx, args, degs, ctx.unit())
    val = val.shift_hbar(-(len(words) - 1))
    low = val.min_hbar()
    if low is not None and low < 0:
        raise StructureError(
            "derived bracket has a negative hbar power; an operator exceeds its order",
            witness={"words": [bvi.algebra.label(w) for w in words], "min_power": low})
    return SeriesContext(bvi.algebra, ring, bvi.hbar_cutoff).truncate(val)


def _shared_derived_brackets(bvi: BVInftyAlgebra, n: int) -> Callable:
    """`bracket(vs)`: hbar^{n-1} {v_1,...,v_n} over the trivial ring, before
    truncation, through the prefix tables of `operators.prefix_commutators`;
    pass the n basis words in `word_tuples_within` order."""
    A = bvi.algebra
    ops = [(op, shift) for op, shift in bvi.shifted_operators if shift < bvi.hbar_cutoff + n]

    def dhat_word(x: Word) -> dict:
        return {(w, "1", shift): c for op, shift in ops for w, c in op.apply_word(x).items()}

    def times(v: Word, key) -> dict:
        w, r, h = key
        return {(u, r, h): s for u, s in A.mul_words(v, w).items()}

    commutators = prefix_commutators(A, 1, n, dhat_word, times)
    return lambda vs: commutators(vs)(A.unit)


DERIVED_MAX_ARITY = 4
DEVIATION_SAMPLES = 12


def derived_brackets_linfty_check(bvi: BVInftyAlgebra) -> CheckResult:
    """Certify the homotopy-Lie package carried by the derived brackets.

    Three ingredients, each exact within the truncation window: the master
    condition dhat^2 = 0 (equivalent to all generalized Jacobi identities for
    the brackets multiplied back by hbar^{n-1}); absence of negative hbar
    powers in every bracket of arity <= DERIVED_MAX_ARITY within the length
    budget; and the deviation identity, on the first DEVIATION_SAMPLES
    in-budget triples, expressing the failure of the n-th bracket to be a
    multiderivation through the (n+1)-st:

        {v,..,ab} = hbar {v,..,a,b} + (-1)^{(|K|+|a|)|b|} b {v,..,a}
                    + (-1)^{|K||a|} a {v,..,b},   |K| = 1 + sum |v_i|.

    The brackets go through `_shared_derived_brackets`; a negative power is
    reported once `derived_bracket`, the unshared definition, reproduces it.
    """
    A = bvi.algebra
    square = bvi.square
    if not square.ok:
        return CheckResult("derived-brackets", False, witness=square.witness)
    raise_bound = max((op.max_raise for op in bvi.operators.values()), default=0)
    budget = A.max_len - max(0, raise_bound)
    letters = [w for w in A.augmentation_ideal_words() if len(w) <= budget]
    checked = 0
    for n in range(1, DERIVED_MAX_ARITY + 1):
        bracket = _shared_derived_brackets(bvi, n)
        for vs in word_tuples_within(letters, n, budget):
            checked += 1
            low = min((h for (_, _, h) in bracket(vs)), default=n - 1) - (n - 1)
            if low >= 0:
                continue
            try:
                derived_bracket(bvi, list(vs))
            except StructureError as err:
                if err.witness["min_power"] == low:
                    return CheckResult("derived-brackets", False, witness=err.witness)
            raise InternalError(f"derived brackets: shared tables and the definition "
                                f"disagree on {[A.label(v) for v in vs]}")
    # deviation identity on the first few in-budget triples (v-tuple, a, b)
    ctx = SeriesContext(A, TRIVIAL_RING, bvi.hbar_cutoff)
    triples = ((vs, a, b)
               for n in range(1, DERIVED_MAX_ARITY)
               for vs in word_tuples_within(letters, n - 1, budget)
               for a in letters
               for b in letters
               if sum(len(v) for v in vs) + len(a) + len(b) <= budget)
    sampled = 0
    for vs, a, b in itertools.islice(triples, DEVIATION_SAMPLES):
        ab = A.mul_words(a, b)
        lhs = HbarSeries()
        for w, c in ab.items():
            lhs = lhs.add(derived_bracket(bvi, list(vs) + [w]).scale(c))
        da = A.degree(a)
        db = A.degree(b)
        deg_k = 1 + sum(A.degree(v) for v in vs)
        rhs = derived_bracket(bvi, list(vs) + [a, b]).shift_hbar(1)
        rhs = ctx.truncate(rhs)
        s1 = -ONE if ((deg_k + da) * db) % 2 else ONE
        s2 = -ONE if (deg_k * da) % 2 else ONE
        rhs = rhs.add(ctx.mul(HbarSeries({(b, "1", 0): s1}),
                              derived_bracket(bvi, list(vs) + [a])))
        rhs = rhs.add(ctx.mul(HbarSeries({(a, "1", 0): s2}),
                              derived_bracket(bvi, list(vs) + [b])))
        if not lhs.sub(rhs).is_zero():
            return CheckResult(
                "derived-brackets", False,
                witness={"deviation": [A.label(v) for v in vs],
                         "a": A.label(a), "b": A.label(b)})
        sampled += 1
    return CheckResult("derived-brackets", True,
                       bound={"word_length": A.max_len, "max_arity": DERIVED_MAX_ARITY,
                              "tuples": checked, "deviation_samples": sampled,
                              # the arity-2 derived bracket relates to the
                              # antibracket by this per-degree sign
                              "arity2_vs_antibracket_sign": "(-1)^|a|"})


# -- QME ----------------------------------------------------------------------


def _validate_qme_element(bvi: BVInftyAlgebra, ring: ArtinLocalAlgebra, S: HbarSeries) -> None:
    ctx = bvi.context(ring)
    for key in S.terms:
        _, r, h = key
        if r not in ring.ideal_labels:
            raise PreconditionError("QME elements have coefficients in the maximal ideal")
        if h < 0:
            raise PreconditionError("QME elements are power series in hbar")
        if ctx.degree(key) != 2:
            raise PreconditionError(
                f"QME elements are homogeneous of total degree 2; term {key} has degree {ctx.degree(key)}")


def qme_residual(bv: BVAlgebra, ring: ArtinLocalAlgebra, S: HbarSeries,
                 hbar_cutoff: int = 3) -> HbarSeries:
    """dS + hbar Delta S + {S,S}/2 for a dg-BV algebra, exact mod hbar cutoff."""
    _validate_qme_element(bv, ring, S)
    ctx = SeriesContext(bv.algebra, ring, hbar_cutoff)
    dS = ctx.apply_word_operator(bv.d, S)
    deltaS = ctx.apply_word_operator(bv.delta, S, hbar_shift=1)
    delta_plain = ctx.apply_word_operator(bv.delta, S)
    ss = ctx.apply_word_operator(bv.delta, ctx.mul(S, S))
    ss = ss.sub(ctx.mul(delta_plain, S)).sub(ctx.mul(S, delta_plain))
    return dS.add(deltaS).add(ss.scale(HALF))


def bvinfty_qme_residual(bvi: BVInftyAlgebra, ring: ArtinLocalAlgebra, S: HbarSeries) -> HbarSeries:
    """dhat S + {S,S}/2! + {S,S,S}/3! + ..., via iterated commutators K_j(1).

    K_j(1) carries a coefficient in m^j and m^M = 0, so the sum runs over
    1 <= j <= M-1, where M is the nilpotency order of the ring.
    """
    _validate_qme_element(bvi, ring, S)
    ctx = SeriesContext(bvi.algebra, ring, bvi.hbar_cutoff + ring.nilpotency)
    return bvi.context(ring).truncate(_k_of_one(bvi, ctx, S)[1])


def _k_of_one(bvi: BVInftyAlgebra, ctx: SeriesContext,
              S: HbarSeries) -> tuple[list[HbarSeries], HbarSeries]:
    """K_j(1) for 1 <= j <= M-1, and the residual sum_j hbar^{-(j-1)} K_j(1)/j! they make."""
    k_of_one = [_commutator_chain(bvi, ctx, [S] * j, [2] * j, ctx.unit())
                for j in range(1, ctx.ring.nilpotency)]
    residual = HbarSeries()
    for j, val in enumerate(k_of_one, start=1):
        if not val.is_zero():
            residual = residual.add(val.shift_hbar(-(j - 1)).scale(Fraction(1, math.factorial(j))))
    return k_of_one, residual


def qme_exp_check(V, ring: ArtinLocalAlgebra, S: HbarSeries, hbar_cutoff: int | None = None) -> dict:
    """dhat e^{S/hbar} = 0  <=>  QME residual = 0, both sides computed independently.

    Refuses uncertified structures: on a corrupted algebra the equivalence is
    meaningless, so failure of the axioms is reported as a precondition
    violation rather than folded into the boolean.
    """
    bvi = V.as_bvinfty(hbar_cutoff)
    if not bvi.is_certified():
        bad = [r.name for r in bvi.certify() if not r.ok]
        raise PreconditionError(f"structure is not a certified BV algebra: {bad}")
    _validate_qme_element(bvi, ring, S)
    M = ring.nilpotency
    ctx = SeriesContext(bvi.algebra, ring, bvi.hbar_cutoff)
    wide = SeriesContext(bvi.algebra, ring, bvi.hbar_cutoff + M)
    exp_s = wide.exp_over_hbar(S)
    d_exp = ctx.truncate(bvi.dhat(exp_s, wide))
    exp_zero = d_exp.is_zero()
    # a dg-BV algebra has a closed-form residual, far cheaper than the K_j route
    residual = (qme_residual(V, ring, S, bvi.hbar_cutoff) if isinstance(V, BVAlgebra)
                else bvinfty_qme_residual(bvi, ring, S))
    residual_zero = residual.is_zero()
    return {
        "exp_zero": exp_zero,
        "residual_zero": residual_zero,
        "equivalence": exp_zero == residual_zero,
        "ok": exp_zero == residual_zero,
        "bound": {"word_length": bvi.algebra.max_len, "hbar_cutoff": bvi.hbar_cutoff,
                  "nilpotency": M},
    }


def conjugation_identity_check(V, ring: ArtinLocalAlgebra, S: HbarSeries,
                               hbar_cutoff: int | None = None) -> CheckResult:
    """Exact operator identity, applied to basis words:

    e^{-S/hbar} dhat e^{S/hbar}
        = dhat + {S,-} + {S,S,-}/2! + ... + (1/hbar)(dhat S + {S,S}/2! + ...),

    with all brackets hbar-multilinear derived brackets.  Both sides are
    computed independently: the left by multiplying out exponentials, the
    right from iterated commutators K_j, 1 <= j <= M-1 (K_M is zero). Each
    K_{M-1}(x) is evaluated before the dropped K_M(x) would have been, and in
    an adapted ring basis makes every ring-nonzero product K_M(x) makes, so a
    word raises TruncationOverflow, and is skipped, exactly as with K_M.
    """
    bvi = V.as_bvinfty(hbar_cutoff)
    _validate_qme_element(bvi, ring, S)
    M = ring.nilpotency
    K = bvi.hbar_cutoff
    wide = SeriesContext(bvi.algebra, ring, K + 2 * M + 2)
    narrow = bvi.context(ring)
    exp_plus = wide.exp_over_hbar(S)
    exp_minus = wide.exp_over_hbar(S.scale(-ONE))
    k_of_one, residual = _k_of_one(bvi, wide, S)

    tested, skipped = 0, []
    for w in bvi.algebra.words:
        try:
            x = HbarSeries({(w, "1", 0): ONE})
            lhs = wide.mul(exp_minus, bvi.dhat(wide.mul(exp_plus, x), wide))
            deg_w = bvi.algebra.degree(w)
            sw = -ONE if deg_w % 2 else ONE
            rhs = bvi.dhat(x, wide)
            for idx, kj1 in enumerate(k_of_one, start=1):
                term = _commutator_chain(bvi, wide, [S] * idx, [2] * idx, x)
                term = term.sub(wide.mul(x, kj1).scale(sw))
                rhs = rhs.add(term.shift_hbar(-idx).scale(Fraction(1, math.factorial(idx))))
            rhs = rhs.add(wide.mul(residual, x).shift_hbar(-1))
            diff = narrow.truncate(lhs.sub(rhs))
            if not diff.is_zero():
                return CheckResult("conjugation-identity", False,
                                   witness={"word": bvi.algebra.label(w)},
                                   bound={"hbar_cutoff": K})
            tested += 1
        except TruncationOverflow:
            skipped.append(bvi.algebra.label(w))
    return CheckResult("conjugation-identity", True,
                       bound={"word_length": bvi.algebra.max_len, "hbar_cutoff": K,
                              "tested": tested, "skipped": skipped})


def qme_linear_part(bvi: BVInftyAlgebra, unknown_word: Callable[[Word], bool]) -> LinearPart:
    """The banded system sum_n Delta_n u_{j-(n-1)} from total degree two to
    three, keyed (word, hbar power) for `lift_perturbative`; the unknowns are
    the degree-two keys whose word passes `unknown_word`."""
    A = bvi.algebra
    K = bvi.hbar_cutoff
    unknowns = [(w, j) for j in range(K) for w in A.words
                if A.degree(w) + 2 * j == 2 and unknown_word(w)]
    equations = [(w, j) for j in range(K) for w in A.words if A.degree(w) + 2 * j == 3]
    delta = {n: op.entries for n, op in bvi.operators.items() if n >= 1}  # Delta_n, n = i - j + 1
    rows = [[delta[i - j + 1].get(w, {}).get(u, ZERO) if i - j + 1 in delta else ZERO
             for w, j in unknowns] for u, i in equations]
    return unknowns, equations, rows


def qme_solve_perturbative(V, ring: ArtinLocalAlgebra, seed: HbarSeries,
                           hbar_cutoff: int | None = None) -> SolveResult:
    """Order-by-order lift of a first-order QME solution along the m-adic
    filtration, with dhat = d + hbar Delta (+ higher) as the linear part.

    `lift_perturbative` solves the banded system of `qme_linear_part` on the
    words every Delta_n is defined on; representatives pick the earliest
    coordinates in canonical word-then-power order.
    """
    bvi = V.as_bvinfty(hbar_cutoff)
    if not ring.adapted:
        raise PreconditionError("ring basis is not adapted to the m-adic filtration")
    _validate_qme_element(bvi, ring, seed)
    for (w, r, h) in seed.terms:
        if ring.order(r) != 1:
            raise PreconditionError("seed must live in m/m^2")
    start = time.perf_counter()
    # dhat keeps ring labels, so this is dhat of each ring layer at once
    if not bvi.dhat(seed, bvi.context(ring)).is_zero():
        raise PreconditionError("seed is not closed under the linear part dhat")
    closed_ms = (time.perf_counter() - start) * 1000.0
    start = time.perf_counter()
    result = lift_perturbative(
        ring, seed, lambda R, S: bvinfty_qme_residual(bvi, R, S),
        qme_linear_part(bvi, lambda w: all(w in op.defined for op in bvi.operators.values())),
        {"nilpotency": ring.nilpotency, "hbar_cutoff": bvi.hbar_cutoff})
    if result.status == "solved":
        report = qme_exp_check(V, ring, result.element, hbar_cutoff)
        if not (report["exp_zero"] and report["residual_zero"]):
            raise StructureError("perturbative QME lift failed validation", witness=report)
    result.timing_ms = {"seed-closed": closed_ms, "solution-verified": (time.perf_counter() - start) * 1000.0}
    return result
