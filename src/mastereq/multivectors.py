"""Polynomial multivector fields on a small coordinate space, as words.

Polyvector fields in dimension d <= 3 are the free graded-commutative
algebra on x_1..x_d (degree 0) and xi_1..xi_d (degree +1): the kernel's
`SymmetricWordAlgebra`, cut at word length N = MAX_POLY_DEGREE + d, so every
field of polynomial degree <= MAX_POLY_DEGREE is a vector over its words.
d/dx_i and the left d/dxi_i are the `Coderivation`s of the one-letter tables
(x_i,) -> 1 and (xi_i,) -> 1.  The divergence of the standard volume form,
Delta = sum_i d/dx_i d/dxi_i, has degree -1 and order 2, and polyvector
fields with it form the dg-BV algebra `BVAlgebra(A, 0, Delta)` whose
antibracket is the Schouten bracket (Koszul, *Crochet de Schouten-Nijenhuis
et cohomologie*, Astérisque 1985).  It is built once per d.  It is not
passed to `BVAlgebra.certify()`: Delta(x_i xi_i) = 1, so augmentation
compatibility fails by design.

The bracket is computed two ways, kept separate so the unimodularity check
can cross-validate them: `schouten_direct`, the contraction formula

    {a, b} = (-1)^{|a|} sum_i (dxi_i a)(dx_i b) + sum_i (dx_i a)(dxi_i b),

and `bv.antibracket`, the second-order deviation of Delta.

A bivector S0 and a function S1 define a unimodular Poisson structure when
{S0, S0} = 0 and Delta(S0) + {S1, S0} = 0.
"""

from __future__ import annotations

import functools
from typing import Mapping, NamedTuple

from .bv import BVAlgebra, _homogeneous_degree, antibracket
from .coalgebra import Coderivation
from .diagnostics import PreconditionError
from .graded import ONE, GradedVectorSpace, Scalar, as_scalar
from .operators import Operator
from .words import SymmetricWordAlgebra, TruncationOverflow, Word, vec_add_into

__all__ = [
    "Polyvector",
    "PolyvectorFields",
    "polyvector_fields",
    "schouten_direct",
    "unimodular_poisson_check",
]


# term key: (exponent tuple, xi bitmask)
Key = tuple[tuple[int, ...], int]

MAX_DIM = 3
MAX_POLY_DEGREE = 3


class PolyvectorFields(NamedTuple):
    """The dg-BV algebra of polyvector fields and its partial derivatives."""

    bv: BVAlgebra
    dx: tuple[Coderivation, ...]
    dxi: tuple[Coderivation, ...]


@functools.cache
def polyvector_fields(dim: int) -> PolyvectorFields:
    """The polyvector fields of dimension `dim`, 1 <= dim <= MAX_DIM, built once."""
    xs = [f"x{i}" for i in range(1, dim + 1)]
    xis = [f"xi{i}" for i in range(1, dim + 1)]
    A = SymmetricWordAlgebra(GradedVectorSpace([(x, 0) for x in xs] + [(xi, 1) for xi in xis]),
                             MAX_POLY_DEGREE + dim)
    dx = tuple(Coderivation(A, 0, {(x,): {(): 1}}) for x in xs)
    dxi = tuple(Coderivation(A, -1, {(xi,): {(): 1}}) for xi in xis)

    def divergence(w: Word) -> dict[Word, Scalar]:
        out: dict[Word, Scalar] = {}
        for d_x, d_xi in zip(dx, dxi):
            for u, c in d_x.apply(d_xi.expand(w)).items():
                vec_add_into(out, u, c)
        return out

    delta = Operator.from_function(A, -1, divergence, name="divergence")
    return PolyvectorFields(BVAlgebra(A, Operator.zero(A, 1), delta, name=f"polyvectors{dim}"), dx, dxi)


class Polyvector:
    """Sparse polynomial multivector field in dimension <= 3, degree <= 3.

    Given by terms {(exponents, xi bitmask): coefficient}; `vector` is the
    field over the words of `polyvector_fields(dim)`.
    """

    __slots__ = ("dim", "vector")

    def __init__(self, dim: int, terms: Mapping[Key, object] | None = None):
        if not 1 <= dim <= MAX_DIM:
            raise PreconditionError(f"dimension {dim} outside 1..{MAX_DIM}")
        self.dim = dim
        self.vector: dict[Word, Scalar] = {}
        for (alpha, mask), value in (terms or {}).items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != dim:
                raise PreconditionError("exponent tuple has the wrong length")
            if sum(alpha) > MAX_POLY_DEGREE:
                raise PreconditionError(f"polynomial degree {sum(alpha)} exceeds {MAX_POLY_DEGREE}")
            if mask >> dim:
                raise PreconditionError("xi index outside the coordinate range")
            # the normal form: x letters, then the xi letters in increasing order
            word = tuple(f"x{i + 1}" for i, a in enumerate(alpha) for _ in range(a))
            word += tuple(f"xi{i + 1}" for i in range(dim) if mask >> i & 1)
            vec_add_into(self.vector, word, as_scalar(value))

    @classmethod
    def zero(cls, dim: int) -> "Polyvector":
        return cls(dim, {})


def _within_window(fn, *args):
    """fn(*args), with a product that leaves the window raised as a
    `PreconditionError` that names it."""
    try:
        return fn(*args)
    except TruncationOverflow as err:
        raise PreconditionError(
            f"a product of polyvector fields leaves the word-length window N = {err.max_len} "
            f"(polynomial degree {MAX_POLY_DEGREE} plus the dimension)") from None


def schouten_direct(fields: PolyvectorFields, a: Mapping[Word, Scalar],
                    b: Mapping[Word, Scalar]) -> dict[Word, Scalar]:
    """Explicit contraction formula for the odd Poisson bracket of two word vectors."""
    A = fields.bv.algebra
    sign = -ONE if _homogeneous_degree(A, a) % 2 else ONE
    out: dict[Word, Scalar] = {}
    for d_x, d_xi in zip(fields.dx, fields.dxi):
        for w, c in _within_window(A.mul, d_xi.apply(a), d_x.apply(b)).items():
            vec_add_into(out, w, sign * c)
        for w, c in _within_window(A.mul, d_x.apply(a), d_xi.apply(b)).items():
            vec_add_into(out, w, c)
    return out


def unimodular_poisson_check(S0: Polyvector, S1: Polyvector) -> dict:
    """{S0,S0} = 0 and Delta(S0) + {S1,S0} = 0, each bracket cross-validated
    between `schouten_direct` and `bv.antibracket`."""
    if S0.dim != S1.dim:
        raise PreconditionError(f"S0 and S1 live in dimensions {S0.dim} and {S1.dim}")
    fields = polyvector_fields(S0.dim)
    bv = fields.bv
    if _homogeneous_degree(bv.algebra, S0.vector) not in (0, 2):
        raise PreconditionError("S0 must be a bivector (or zero)")
    if _homogeneous_degree(bv.algebra, S1.vector) != 0:
        raise PreconditionError("S1 must be a function")
    s00 = schouten_direct(fields, S0.vector, S0.vector)
    s10 = schouten_direct(fields, S1.vector, S0.vector)
    routes_agree = (s00 == _within_window(antibracket, bv, S0.vector, S0.vector)
                    and s10 == _within_window(antibracket, bv, S1.vector, S0.vector))
    closure = dict(s10)
    for w, c in bv.delta.apply(S0.vector).items():
        vec_add_into(closure, w, c)
    poisson, modular = not s00, not closure
    return {
        "poisson": poisson,
        "modular_closure": modular,
        "routes_agree": routes_agree,
        "ok": routes_agree and poisson and modular,
        "unimodular": poisson and modular,
    }
