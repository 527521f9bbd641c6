"""Exact graded linear algebra: spaces, tables of linear maps, Koszul signs.

Degrees are arbitrary integers.  Scalars are exact rationals under one rule:
a scalar is a Python `int` when it is integral and a `fractions.Fraction`
only when its denominator is above 1.  `as_scalar` is the one canonicaliser;
floats and bools are rejected at the boundary, so sign-sensitive identities
are checked by exact equality and no float can arise (divide as `Fraction`).
Signs and structure constants stay `int`, which keeps the hot products off
`Fraction` arithmetic.  Sign conventions, fixed once for the whole package:
Koszul rule for permuting homogeneous factors, operators act from the left,
differentials have degree +1, BV operators have degree -1, and the graded
commutator is [A, B] = A B - (-1)^{|A||B|} B A.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Scalar",
    "ZERO",
    "ONE",
    "as_scalar",
    "koszul_sign",
    "GradedVectorSpace",
    "DegreeError",
]

Scalar = int | Fraction

ZERO = 0
ONE = 1


class DegreeError(ValueError):
    """A degree constraint is violated."""


def as_scalar(value) -> Scalar:
    """The canonical exact scalar: `int` when integral, else `Fraction`.

    Floats and bools are deliberately rejected.
    """
    kind = type(value)
    if kind is int:
        return value
    if kind is not Fraction:
        if kind is bool or isinstance(value, float):
            raise TypeError(f"exact rational required, got {value!r}")
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def koszul_sign(perm: Sequence[int], degrees: Sequence[int]) -> int:
    """Sign acquired by permuting graded factors.

    `perm[k]` is the index (in the original sequence) of the factor that ends
    up in position k, so the permuted sequence is (x_perm[0], ..., x_perm[n-1]).
    Each inversion of factors of degrees p, q contributes (-1)^{pq}.
    """
    if len(perm) != len(degrees):
        raise ValueError(f"permutation length {len(perm)} != degrees length {len(degrees)}")
    if sorted(perm) != list(range(len(perm))):
        raise ValueError(f"not a permutation: {perm!r}")
    exponent = 0
    for k in range(len(perm)):
        for l in range(k + 1, len(perm)):
            if perm[k] > perm[l]:
                exponent += degrees[perm[k]] * degrees[perm[l]]
    return ONE if exponent % 2 == 0 else -ONE


class GradedVectorSpace:
    """Finite ordered basis of labeled homogeneous vectors.

    Declaration order is canonical and is used (together with the degree) to
    normalize symmetric words built on top of this space: `sort_key` maps each
    label to (degree, declaration index).
    """

    __slots__ = ("basis", "sort_key", "_index", "_degree", "_symmetric_algebras")

    def __init__(self, basis: Iterable[tuple[str, int]]):
        self.basis = tuple((str(label), int(deg)) for label, deg in basis)
        self._index = {}
        self._degree = {}
        for i, (label, deg) in enumerate(self.basis):
            if label in self._index:
                raise ValueError(f"duplicate basis label {label!r}")
            self._index[label] = i
            self._degree[label] = deg
        self.sort_key = {label: (deg, i) for i, (label, deg) in enumerate(self.basis)}
        self._symmetric_algebras = {}

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def degree(self, label: str) -> int:
        try:
            return self._degree[label]
        except KeyError:
            raise KeyError(f"unknown basis label {label!r}") from None

    def index(self, label: str) -> int:
        return self._index[label]

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def map_table(self, entries: Mapping[tuple[str, str], object] | None, degree: int,
                  name: str = "map") -> dict[tuple[str, str], Scalar]:
        """A linear map of this space that raises degrees by `degree`, as the
        sparse table {(source, target): coefficient} with zero entries dropped.

        An unknown label raises `KeyError`; an entry of any other degree
        raises `DegreeError` naming the map and the entry.
        """
        table: dict[tuple[str, str], Scalar] = {}
        for (src, tgt), value in (entries or {}).items():
            c = as_scalar(value)
            if c == 0:
                continue
            shift = self.degree(tgt) - self.degree(src)
            if shift != degree:
                raise DegreeError(f"{name} entry {src!r} -> {tgt!r} has degree {shift}, "
                                  f"not {degree}")
            table[(src, tgt)] = c
        return table

    def shift(self, n: int) -> "GradedVectorSpace":
        """Shifted space: the element of degree p + n sits in degree p."""
        return GradedVectorSpace((label, deg - n) for label, deg in self.basis)

    def symmetric_algebra(self, shift: int, max_len: int):
        """S(self[shift]) cut at word length `max_len`, as a `SymmetricWordAlgebra`.

        Built once per space object and (shift, max_len), so every structure
        on this space shares one word basis and coproduct table; treat it as
        read-only.  An equal space built elsewhere gets its own.
        """
        key = (shift, max_len)
        algebra = self._symmetric_algebras.get(key)
        if algebra is None:
            from .words import SymmetricWordAlgebra  # words builds on this module
            algebra = SymmetricWordAlgebra(self.shift(shift), max_len)
            self._symmetric_algebras[key] = algebra
        return algebra

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedVectorSpace) and self.basis == other.basis

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self):
        return f"GradedVectorSpace({list(self.basis)!r})"
