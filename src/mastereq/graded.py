"""Exact graded linear algebra: spaces, sparse vectors, sparse maps, Koszul signs.

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
    "GradedVector",
    "GradedLinearMap",
    "SpaceMismatch",
    "DegreeError",
]

Scalar = int | Fraction

ZERO = 0
ONE = 1


class SpaceMismatch(ValueError):
    """Operands live over incompatible spaces."""


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
    normalize symmetric words built on top of this space.
    """

    __slots__ = ("basis", "_index", "_degree", "_symmetric_algebras")

    def __init__(self, basis: Iterable[tuple[str, int]]):
        self.basis = tuple((str(label), int(deg)) for label, deg in basis)
        self._index = {}
        self._degree = {}
        for i, (label, deg) in enumerate(self.basis):
            if label in self._index:
                raise ValueError(f"duplicate basis label {label!r}")
            self._index[label] = i
            self._degree[label] = deg
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

    def dims_by_degree(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for _, deg in self.basis:
            out[deg] = out.get(deg, 0) + 1
        return dict(sorted(out.items()))

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

    def dual(self) -> "GradedVectorSpace":
        """Dual space on the dual basis; the dual of a degree-p vector has degree -p.

        Labels gain a trailing ``*`` (stripped again by a second dual), so
        dualizing twice returns the original space on the nose.
        """
        return GradedVectorSpace((_dual_label(label), -deg) for label, deg in self.basis)

    def vector(self, coeffs: Mapping[str, object] | None = None, degree: int | None = None) -> "GradedVector":
        return GradedVector(self, coeffs or {}, degree=degree)

    def basis_vector(self, label: str) -> "GradedVector":
        return GradedVector(self, {label: ONE}, degree=self.degree(label))

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedVectorSpace) and self.basis == other.basis

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self):
        return f"GradedVectorSpace({list(self.basis)!r})"


def _dual_label(label: str) -> str:
    return label[:-1] if label.endswith("*") else label + "*"


class GradedVector:
    """Sparse exact-rational element of a graded space.

    If `degree` is given the vector is checked to be homogeneous of that
    degree; the zero vector is homogeneous of every degree.
    """

    __slots__ = ("space", "coeffs", "degree")

    def __init__(self, space: GradedVectorSpace, coeffs: Mapping[str, object], degree: int | None = None):
        self.space = space
        clean: dict[str, Scalar] = {}
        for label, value in coeffs.items():
            c = as_scalar(value)
            if c != 0:
                if label not in space:
                    raise KeyError(f"unknown basis label {label!r}")
                clean[label] = c
        self.coeffs = clean
        if degree is not None:
            for label in clean:
                if space.degree(label) != degree:
                    raise DegreeError(
                        f"coefficient on {label!r} (degree {space.degree(label)}) "
                        f"in a vector declared homogeneous of degree {degree}"
                    )
        self.degree = degree

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "GradedVector") -> "GradedVector":
        if self.space != other.space:
            raise SpaceMismatch("cannot add vectors over different spaces")
        out = dict(self.coeffs)
        for label, c in other.coeffs.items():
            out[label] = out.get(label, ZERO) + c
        return GradedVector(self.space, out)

    def __sub__(self, other: "GradedVector") -> "GradedVector":
        return self + other.scale(-ONE)

    def scale(self, c) -> "GradedVector":
        c = as_scalar(c)
        return GradedVector(self.space, {label: c * v for label, v in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedVector)
            and self.space == other.space
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.space, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        if not self.coeffs:
            return "GradedVector(0)"
        body = " + ".join(f"({c})*{label}" for label, c in sorted(self.coeffs.items()))
        return f"GradedVector({body})"


class GradedLinearMap:
    """Sparse degree-homogeneous linear map between graded spaces.

    Entries are keyed by (source label, target label); every entry must raise
    the degree by exactly `degree`.
    """

    __slots__ = ("source", "target", "degree", "entries")

    def __init__(
        self,
        source: GradedVectorSpace,
        target: GradedVectorSpace,
        degree: int,
        entries: Mapping[tuple[str, str], object] | None = None,
    ):
        self.source = source
        self.target = target
        self.degree = int(degree)
        clean: dict[tuple[str, str], Scalar] = {}
        for (src, tgt), value in (entries or {}).items():
            c = as_scalar(value)
            if c == 0:
                continue
            if src not in source:
                raise KeyError(f"unknown source label {src!r}")
            if tgt not in target:
                raise KeyError(f"unknown target label {tgt!r}")
            if target.degree(tgt) - source.degree(src) != self.degree:
                raise DegreeError(
                    f"entry {src!r} -> {tgt!r} has degree "
                    f"{target.degree(tgt) - source.degree(src)}, map declared {self.degree}"
                )
            clean[(src, tgt)] = c
        self.entries = clean

    @classmethod
    def zero(cls, source, target, degree: int) -> "GradedLinearMap":
        return cls(source, target, degree, {})

    @classmethod
    def identity(cls, space: GradedVectorSpace) -> "GradedLinearMap":
        return cls(space, space, 0, {(label, label): ONE for label in space.labels})

    def is_zero(self) -> bool:
        return not self.entries

    def apply(self, vec: GradedVector) -> GradedVector:
        if vec.space != self.source:
            raise SpaceMismatch("vector does not live in the map's source")
        out: dict[str, Scalar] = {}
        for (src, tgt), c in self.entries.items():
            v = vec.coeffs.get(src)
            if v:
                out[tgt] = out.get(tgt, ZERO) + c * v
        return GradedVector(self.target, out)

    def apply_label(self, label: str) -> GradedVector:
        out = {tgt: c for (src, tgt), c in self.entries.items() if src == label}
        return GradedVector(self.target, out)

    def compose(self, inner: "GradedLinearMap") -> "GradedLinearMap":
        """self o inner; degrees add."""
        if inner.target != self.source:
            raise SpaceMismatch("composition mismatch: inner target != outer source")
        out: dict[tuple[str, str], Scalar] = {}
        by_src: dict[str, list[tuple[str, Scalar]]] = {}
        for (src, mid), c in inner.entries.items():
            by_src.setdefault(mid, []).append((src, c))
        for (mid, tgt), c2 in self.entries.items():
            for src, c1 in by_src.get(mid, ()):
                key = (src, tgt)
                out[key] = out.get(key, ZERO) + c2 * c1
        return GradedLinearMap(inner.source, self.target, self.degree + inner.degree, out)

    def __add__(self, other: "GradedLinearMap") -> "GradedLinearMap":
        if self.source != other.source or self.target != other.target:
            raise SpaceMismatch("cannot add maps with different source/target")
        if self.degree != other.degree:
            raise DegreeError("cannot add maps of different degrees")
        out = dict(self.entries)
        for key, c in other.entries.items():
            out[key] = out.get(key, ZERO) + c
        return GradedLinearMap(self.source, self.target, self.degree, out)

    def __sub__(self, other: "GradedLinearMap") -> "GradedLinearMap":
        return self + other.scale(-ONE)

    def scale(self, c) -> "GradedLinearMap":
        c = as_scalar(c)
        return GradedLinearMap(
            self.source, self.target, self.degree,
            {key: c * v for key, v in self.entries.items()},
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedLinearMap)
            and self.source == other.source
            and self.target == other.target
            and self.degree == other.degree
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"GradedLinearMap(degree={self.degree}, entries={len(self.entries)})"
