"""Exact row reduction for small dense systems.

Everything here works on lists of exact scalars (`int`, or `Fraction` when
the denominator is above 1; see `graded`).  Division is exact: a pivot row
is divided as `Fraction` and canonicalised back to `int` where integral,
so no float can arise.  Pivots are chosen greedily in column order, so the
particular solution produced by `solve_linear` (free variables set to zero)
is supported on the earliest possible coordinates of the canonical ordering.
"""

from __future__ import annotations

from fractions import Fraction

from .graded import ONE, ZERO, Scalar, as_scalar

__all__ = ["rref", "solve_linear"]


def rref(rows: list[list[Scalar]]) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [as_scalar(Fraction(x, pv)) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [as_scalar(a - f * b) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def solve_linear(rows: list[list[Scalar]], rhs: list[Scalar]) -> list[Scalar] | None:
    """Solve A x = b exactly; None if inconsistent.

    Returns the representative with free variables zero (support on pivot
    columns, which are the lexicographically earliest in column order).
    """
    if not rows:
        return None if any(b != 0 for b in rhs) else []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    reduced, pivots = rref(aug)
    sol = [ZERO] * ncols
    for row, c in zip(reduced, pivots):
        if c == ncols:
            return None  # pivot in the constant column: inconsistent
        sol[c] = row[-1]
    return sol


def nullspace(rows: list[list[Scalar]]) -> list[list[Scalar]]:
    """Basis of the kernel of A (as column vectors), one per free column."""
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [ZERO] * ncols
        vec[f] = ONE
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        basis.append(vec)
    return basis
