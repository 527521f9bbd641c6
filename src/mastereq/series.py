"""Sparse elements of A (x) R with formal hbar powers, |hbar| = 2.

Terms are keyed by (basis key of the ambient algebra A, ring label, hbar
power).  Nonnegative powers live in the truncated polynomial window
[0, cutoff); negative powers appear only inside e^{S/hbar} computations and
are bounded below by the ring nilpotency, since every hbar^{-n} comes with a
coefficient in m^n.  Multiplication drops powers at or above the cutoff.
Where every factor has a nonnegative power this is exact, since products and
BV operators only raise the power.  A factor with a negative power lowers a
product: if the factors still to come carry at most hbar^{-k} between them, a
term dropped now could have ended at any power from cutoff - k up, so the
result is exact only below cutoff - k.  `BVMorphism.exp_map` multiplies up to
c factors of hbar^{-1}, c the conilpotency of its source, so it works at the
target's cutoff + c + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

from .artin import ArtinLocalAlgebra, TRIVIAL_RING, quotient
from .diagnostics import PreconditionError
from .graded import ONE, ZERO, Scalar, as_scalar
from .linalg import nullspace, solve_linear

__all__ = ["HbarSeries", "SeriesContext", "SolveResult", "lift_perturbative", "closed_seed"]


Key = tuple[object, str, int]


def _canonical(terms: dict) -> dict:
    """Coefficients of a fresh sum or product, with each integral `Fraction` made `int`."""
    for key, v in terms.items():
        if type(v) is Fraction:
            terms[key] = as_scalar(v)
    return terms


class HbarSeries:
    """Sparse A (x) R element with integer hbar powers.

    Coefficients follow the scalar rule of `graded`: every operation here
    returns `int` coefficients where they are integral, so products of
    integral series never enter `Fraction` arithmetic.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Key, object] | None = None):
        clean: dict[Key, Scalar] = {}
        for key, value in (terms or {}).items():
            c = as_scalar(value)
            if c:
                clean[key] = c
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "HbarSeries") -> "HbarSeries":
        out = dict(self.terms)
        for key, c in other.terms.items():
            v = out.get(key, ZERO) + c
            if v:
                out[key] = v if type(v) is int else as_scalar(v)
            else:
                out.pop(key, None)
        s = HbarSeries.__new__(HbarSeries)
        s.terms = out
        return s

    def sub(self, other: "HbarSeries") -> "HbarSeries":
        return self.add(other.scale(-ONE))

    def scale(self, c) -> "HbarSeries":
        c = as_scalar(c)
        terms = {k: c * v for k, v in self.terms.items()} if c else {}
        s = HbarSeries.__new__(HbarSeries)
        # a sign keeps coefficients canonical; 1/n! or 2 may clear a denominator
        s.terms = terms if c == 1 or c == -1 else _canonical(terms)
        return s

    def cleared(self) -> tuple["HbarSeries", int]:
        """(N, D): an int-coefficient series N and the least positive int D
        with N = D * self, so that self = N / D."""
        den = 1
        for c in self.terms.values():
            if type(c) is not int:
                den = math.lcm(den, c.denominator)
        if den == 1:
            return self, 1
        s = HbarSeries.__new__(HbarSeries)
        s.terms = {k: c * den if type(c) is int else c.numerator * (den // c.denominator)
                   for k, c in self.terms.items()}
        return s, den

    def shift_hbar(self, j: int) -> "HbarSeries":
        s = HbarSeries.__new__(HbarSeries)
        s.terms = {(a, r, h + j): c for (a, r, h), c in self.terms.items()}
        return s

    def hbar_coefficient(self, j: int) -> dict[tuple[object, str], Scalar]:
        return {(a, r): c for (a, r, h), c in self.terms.items() if h == j}

    def min_hbar(self) -> int | None:
        return min((h for (_, _, h) in self.terms), default=None)

    def ring_project(self, ring: ArtinLocalAlgebra, order: int) -> "HbarSeries":
        """Terms whose ring label has exactly the given m-adic order."""
        s = HbarSeries.__new__(HbarSeries)
        s.terms = {k: c for k, c in self.terms.items() if ring.order(k[1]) == order}
        return s

    def __eq__(self, other) -> bool:
        return isinstance(other, HbarSeries) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "HbarSeries(0)"
        bits = []
        for (a, r, h), c in sorted(self.terms.items(), key=lambda kv: (kv[0][2], str(kv[0][0]), kv[0][1])):
            piece = f"({c})*{a}"
            if r != "1":
                piece += f"*{r}"
            if h:
                piece += f"*h^{h}"
            bits.append(piece)
        return "HbarSeries(" + " + ".join(bits) + ")"


class SeriesContext:
    """Arithmetic for HbarSeries over a fixed algebra, ring and hbar cutoff.

    The algebra must provide `mul_words(k1, k2) -> dict`, `degree(key)` and a
    `unit` key; word algebras and the dual-ring algebra both qualify.
    """

    def __init__(self, algebra, ring: ArtinLocalAlgebra = TRIVIAL_RING, hbar_cutoff: int | None = None):
        self.algebra = algebra
        self.ring = ring
        self.hbar_cutoff = hbar_cutoff

    # -- constructors --------------------------------------------------------

    def unit(self) -> HbarSeries:
        return HbarSeries({(self.algebra.unit, "1", 0): ONE})

    # -- degree bookkeeping ----------------------------------------------------

    def degree(self, key: Key) -> int:
        a, _, h = key
        return self.algebra.degree(a) + 2 * h

    # -- ring/hbar-bilinear multiplication ------------------------------------

    def keep(self, h: int) -> bool:
        return self.hbar_cutoff is None or h < self.hbar_cutoff

    def mul(self, s1: HbarSeries, s2: HbarSeries) -> HbarSeries:
        out: dict[Key, Scalar] = {}
        self.mul_into(out, s1, s2)
        res = HbarSeries.__new__(HbarSeries)
        res.terms = _canonical(out)
        return res

    def mul_into(self, out: dict, s1: HbarSeries, s2: HbarSeries, scale: Scalar = ONE) -> None:
        """Add scale * s1 * s2 into the term dict `out`: the one product loop.

        `out` keeps no zero entry and is not canonicalised, so a sum of
        products builds one dict; `HbarSeries(out)` canonicalises it."""
        get = out.get
        cutoff = self.hbar_cutoff
        mul_labels = self.ring.mul_labels
        mul_words = self.algebra.mul_words
        # a Fraction times 1 is a full Fraction product: leave unit scales out
        terms = s1.terms.items() if scale == 1 else [(k, c * scale) for k, c in s1.terms.items()]
        for (a1, r1, h1), c1 in terms:
            for (a2, r2, h2), c2 in s2.terms.items():
                h = h1 + h2
                if cutoff is not None and h >= cutoff:
                    continue
                rprod = mul_labels(r1, r2)
                if not rprod:
                    continue
                c = c1 * c2
                for w, s in mul_words(a1, a2).items():
                    cs = c * s
                    for r, rc in rprod.items():
                        key = (w, r, h)
                        v = get(key, ZERO) + cs * rc
                        if v:
                            out[key] = v
                        else:
                            out.pop(key, None)

    def truncate(self, s: HbarSeries) -> HbarSeries:
        res = HbarSeries.__new__(HbarSeries)
        res.terms = {k: c for k, c in s.terms.items() if self.keep(k[2])}
        return res

    # -- exponentials ----------------------------------------------------------

    def exp_over_hbar(self, s: HbarSeries) -> HbarSeries:
        """e^{s/hbar}; terminates because the coefficients of s lie in m.

        The n-th term carries a coefficient in m^n, so the series is finite,
        with hbar powers bounded below by -(M-1).
        """
        for (_, r, _) in s.terms:
            if r == "1":
                raise PreconditionError("exponent must have coefficients in the maximal ideal")
        shifted = s.shift_hbar(-1)
        out = self.unit()
        term = self.unit()
        n = 0
        while True:
            n += 1
            term = self.mul(term, shifted).scale(Fraction(1, n))
            if term.is_zero():
                break
            out = out.add(term)
            if n > len(self.ring.labels) + (self.hbar_cutoff or 0) + 4:
                raise PreconditionError("exponential did not terminate; exponent not nilpotent")
        return out

    # -- operator application ----------------------------------------------------

    def apply_word_operator(self, op, s: HbarSeries, hbar_shift: int = 0) -> HbarSeries:
        """Apply a word-level operator (key -> dict) hbar- and ring-linearly."""
        out: dict[Key, Scalar] = {}
        self.apply_word_operator_into(out, op, s, hbar_shift)
        res = HbarSeries.__new__(HbarSeries)
        res.terms = _canonical(out)
        return res

    def apply_word_operator_into(self, out: dict, op, s: HbarSeries, hbar_shift: int = 0) -> None:
        """Add hbar^{hbar_shift} op(s) into the term dict `out`: the one
        operator loop.  As in `mul_into`, `out` keeps no zero entry and is
        not canonicalised."""
        get = out.get
        cutoff = self.hbar_cutoff
        apply_word = op.apply_word
        for (a, r, h), c in s.terms.items():
            hh = h + hbar_shift
            if cutoff is not None and hh >= cutoff:
                continue
            for w, v in apply_word(a).items():
                key = (w, r, hh)
                val = get(key, ZERO) + v * c
                if val:
                    out[key] = val
                else:
                    out.pop(key, None)


@dataclass
class SolveResult:
    """What `lift_perturbative` returns for either equation: the solution, or
    the first obstructed order with its residual and the lift so far.

    `timing_ms` holds the milliseconds a solver spent on its seed check
    ("seed-closed") and on the lift with its validation
    ("solution-verified"); it is no part of the result's value."""

    status: str  # "solved" | "obstructed"
    element: HbarSeries | None = None
    obstruction_order: int | None = None
    obstruction: HbarSeries | None = None
    partial: HbarSeries | None = None
    bound: dict = field(default_factory=dict)
    timing_ms: dict[str, float] = field(default_factory=dict, compare=False)


# The linear part of an equation: unknown keys, equation keys and the matrix
# whose row i holds the coefficients of equation i in the unknowns.  Keys are
# (basis label, hbar power); the classical Maurer-Cartan equation uses power 0.
LinearPart = tuple[list[tuple[object, int]], list[tuple[object, int]], list[list[Scalar]]]


def lift_perturbative(ring: ArtinLocalAlgebra, seed: HbarSeries,
                      residual: Callable[[ArtinLocalAlgebra, HbarSeries], HbarSeries],
                      linear: LinearPart, bound: dict) -> SolveResult:
    """Lift a first-order solution order by order along the m-adic filtration.

    At each order 2 <= k < M the order-k part of the residual is cancelled
    one ring monomial r at a time: rows u = -rho_r is solved by exact row
    reduction and u, times r, joins the lift.  The partial lift has order
    < k, so its order-k residual is the same over R and over the small
    quotient R/m^{k+1}; `residual(quotient(ring, k), partial)` computes it
    there.  The first monomial with no solution is an obstruction, reported
    with the order-k residual and the lift so far.  The ring basis must be
    adapted to the filtration; the caller validates the seed and, over R,
    the returned solution.
    """
    unknowns, equations, rows = linear
    partial = seed
    for k in range(2, ring.nilpotency):
        rho_k = residual(quotient(ring, k), partial).ring_project(ring, k)
        if rho_k.is_zero():
            continue
        new_terms: dict = {}
        for r in ring.ideal_labels:  # rho_k has order-k labels only
            b = {(a, h): c for (a, rr, h), c in rho_k.terms.items() if rr == r}
            if not b:
                continue
            sol = solve_linear(rows, [-b.get(key, ZERO) for key in equations])
            if sol is None:
                return SolveResult(status="obstructed", obstruction_order=k,
                                   obstruction=rho_k, partial=partial, bound=bound)
            for (a, h), c in zip(unknowns, sol):
                if c:
                    new_terms[(a, r, h)] = c
        partial = partial.add(HbarSeries(new_terms))
    return SolveResult(status="solved", element=partial, bound=bound)


def closed_seed(ring: ArtinLocalAlgebra, linear: LinearPart, rng, spread: int) -> HbarSeries:
    """A random first-order solution: on each ring monomial of order one, a
    combination of kernel vectors of the linear part with integer weights
    drawn from [-spread, spread]."""
    unknowns, equations, rows = linear
    kernel = nullspace(rows or [[ZERO] * len(unknowns)])  # no equations: every unknown is free
    terms: dict = {}
    for r in ring.ideal_labels:
        if ring.order(r) != 1:
            continue
        for vec in kernel:
            c = rng.randint(-spread, spread)
            if not c:
                continue
            for (a, h), v in zip(unknowns, vec):
                if v:
                    key = (a, r, h)
                    terms[key] = terms.get(key, ZERO) + c * v
    return HbarSeries(terms)
