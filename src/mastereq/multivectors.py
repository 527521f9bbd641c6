"""Polynomial multivector fields on a small coordinate space.

Functions are polynomials in x_1..x_d, multivectors add odd generators
xi_1..xi_d of degree +1 (so a bivector has degree 2 and the divergence
operator has degree -1, matching the ambient conventions).  The divergence
of the standard volume form is Delta = sum_i d/dx_i d/dxi_i, a second-order
operator, and the odd Poisson (Schouten) bracket it generates is

    {a, b} = (-1)^{|a|} sum_i (dxi_i a)(dx_i b) + sum_i (dx_i a)(dxi_i b),

computed here both from that explicit contraction formula and from the
second-order deviation of Delta; the two routes are kept separate so the
unimodularity check can cross-validate them.

A bivector S0 and a function S1 define a unimodular Poisson structure when
[S0, S0] = 0 and Delta(S0) + [S1, S0] = 0.
"""

from __future__ import annotations

from typing import Mapping

from .diagnostics import PreconditionError
from .graded import ONE, ZERO, Scalar, as_scalar
from .words import vec_add_into

__all__ = [
    "Polyvector",
    "schouten_direct",
    "schouten_via_divergence",
    "divergence",
    "unimodular_poisson_check",
]


# term key: (exponent tuple, xi bitmask)
Key = tuple[tuple[int, ...], int]

MAX_DIM = 3
MAX_POLY_DEGREE = 3


class Polyvector:
    """Sparse polynomial multivector field in dimension <= 3, degree <= 3."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[Key, object] | None = None):
        if not 1 <= dim <= MAX_DIM:
            raise PreconditionError(f"dimension {dim} outside 1..{MAX_DIM}")
        self.dim = dim
        clean: dict[Key, Scalar] = {}
        for (alpha, mask), value in (terms or {}).items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != dim:
                raise PreconditionError("exponent tuple has the wrong length")
            if sum(alpha) > MAX_POLY_DEGREE:
                raise PreconditionError(f"polynomial degree {sum(alpha)} exceeds {MAX_POLY_DEGREE}")
            if mask >> dim:
                raise PreconditionError("xi index outside the coordinate range")
            c = as_scalar(value)
            if c:
                clean[(alpha, int(mask))] = c
        self.terms = clean

    @classmethod
    def zero(cls, dim: int) -> "Polyvector":
        return cls(dim, {})

    def is_zero(self) -> bool:
        return not self.terms

    def xi_degree(self) -> int | None:
        degs = {bin(mask).count("1") for (_, mask) in self.terms}
        if len(degs) > 1:
            return None
        return degs.pop() if degs else 0

    def add(self, other: "Polyvector") -> "Polyvector":
        out = dict(self.terms)
        for key, c in other.terms.items():
            vec_add_into(out, key, c)
        return Polyvector(self.dim, out)

    def scale(self, c) -> "Polyvector":
        c = as_scalar(c)
        return Polyvector(self.dim, {k: c * v for k, v in self.terms.items()})

    def mul(self, other: "Polyvector") -> "Polyvector":
        out: dict[Key, Scalar] = {}
        for (a1, m1), c1 in self.terms.items():
            for (a2, m2), c2 in other.terms.items():
                if m1 & m2:
                    continue
                sign = _interleave_sign(m1, m2)
                alpha = tuple(x + y for x, y in zip(a1, a2))
                if sum(alpha) > MAX_POLY_DEGREE:
                    raise PreconditionError("product exceeds the polynomial degree budget")
                vec_add_into(out, (alpha, m1 | m2), sign * c1 * c2)
        return Polyvector(self.dim, out)

    def dx(self, i: int) -> "Polyvector":
        out: dict[Key, Scalar] = {}
        for (alpha, mask), c in self.terms.items():
            if alpha[i] == 0:
                continue
            new_alpha = tuple(a - 1 if j == i else a for j, a in enumerate(alpha))
            key = (new_alpha, mask)
            out[key] = out.get(key, ZERO) + c * alpha[i]
        return Polyvector(self.dim, out)

    def dxi(self, i: int) -> "Polyvector":
        """Left derivative: remove xi_i, with the sign of moving it to the front."""
        out: dict[Key, Scalar] = {}
        bit = 1 << i
        for (alpha, mask), c in self.terms.items():
            if not mask & bit:
                continue
            below = bin(mask & (bit - 1)).count("1")
            sign = -ONE if below % 2 else ONE
            out[(alpha, mask ^ bit)] = out.get((alpha, mask ^ bit), ZERO) + sign * c
        return Polyvector(self.dim, out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polyvector) and self.dim == other.dim and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "Polyvector(0)"
        bits = []
        for (alpha, mask), c in sorted(self.terms.items()):
            mono = "".join(f"x{i + 1}^{a}" for i, a in enumerate(alpha) if a)
            xis = "".join(f"xi{i + 1}" for i in range(self.dim) if mask >> i & 1)
            bits.append(f"({c}){mono}{xis}" or f"({c})")
        return "Polyvector(" + " + ".join(bits) + ")"


def _interleave_sign(m1: int, m2: int) -> int:
    # sign of sorting xi(m1) xi(m2) into increasing order: count pairs i>j
    inv = 0
    for j in range(MAX_DIM):
        if m2 >> j & 1:
            inv += bin(m1 >> (j + 1)).count("1")
    return -ONE if inv % 2 else ONE


def divergence(p: Polyvector) -> Polyvector:
    out = Polyvector.zero(p.dim)
    for i in range(p.dim):
        out = out.add(p.dxi(i).dx(i))
    return out


def schouten_direct(a: Polyvector, b: Polyvector) -> Polyvector:
    """Explicit contraction formula for the odd Poisson bracket."""
    deg = a.xi_degree()
    if deg is None:
        raise PreconditionError("bracket arguments must have homogeneous xi-degree")
    sign = -ONE if deg % 2 else ONE
    out = Polyvector.zero(a.dim)
    for i in range(a.dim):
        out = out.add(a.dxi(i).mul(b.dx(i)).scale(sign))
        out = out.add(a.dx(i).mul(b.dxi(i)))
    return out


def schouten_via_divergence(a: Polyvector, b: Polyvector) -> Polyvector:
    """Independent route: the second-order deviation of the divergence."""
    deg = a.xi_degree()
    if deg is None:
        raise PreconditionError("bracket arguments must have homogeneous xi-degree")
    sa = -ONE if deg % 2 else ONE
    t1 = divergence(a.mul(b))
    t2 = divergence(a).mul(b)
    t3 = a.mul(divergence(b)).scale(sa)
    return t1.add(t2.scale(-ONE)).add(t3.scale(-ONE)).scale(sa)


def unimodular_poisson_check(S0: Polyvector, S1: Polyvector) -> dict:
    """[S0,S0] = 0 and Delta(S0) + [S1,S0] = 0, each bracket cross-validated
    through the two independent Schouten code paths."""
    if S0.xi_degree() not in (0, 2):
        raise PreconditionError("S0 must be a bivector (or zero)")
    if S1.xi_degree() not in (0,):
        raise PreconditionError("S1 must be a function")
    s00_a = schouten_direct(S0, S0)
    s00_b = schouten_via_divergence(S0, S0)
    s10_a = schouten_direct(S1, S0)
    s10_b = schouten_via_divergence(S1, S0)
    routes_agree = s00_a == s00_b and s10_a == s10_b
    poisson = s00_a.is_zero()
    modular = divergence(S0).add(s10_a).is_zero()
    return {
        "poisson": poisson,
        "modular_closure": modular,
        "routes_agree": routes_agree,
        "ok": routes_agree and poisson and modular,
        "unimodular": poisson and modular,
    }
