"""Finite-dimensional local parameter rings with nilpotent maximal ideal.

A ring is given by a unital basis (the unit label is "1") and sparse
structure constants for products of non-unit basis elements.  The maximal
ideal m is the span of the non-unit labels; validation certifies
commutativity, associativity, unitality and computes the nilpotency order M
with m^M = 0 by an explicit closure computation.  M is finite, so the ring
itself plays the role of the completion.  On an adapted basis, `quotient`
forms the small quotients R/m^{k+1} that an order-by-order lift works over.

The linear dual R* carries the coalgebra structure dual to multiplication
(used by the representability checks) and, separately, the near-trivial
algebra structure with zero products on m* (used by the morphism calculus).
"""

from __future__ import annotations

import time
from typing import Iterable, Mapping

from .diagnostics import PreconditionError, StructureError
from .graded import ONE, ZERO, Scalar, as_scalar
from .linalg import rref
from .words import vec_add_into

__all__ = ["ArtinLocalAlgebra", "DualRingCoalgebra", "DualRingAlgebra", "TRIVIAL_RING", "power_ring",
           "quotient", "square_zero_ring"]


RingElt = dict[str, Scalar]


class ArtinLocalAlgebra:
    def __init__(
        self,
        labels: Iterable[str],
        products: Mapping[tuple[str, str], Mapping[str, object]],
        name: str = "R",
        validate: bool = True,
    ):
        self.name = name
        self.labels = tuple(str(x) for x in labels)
        if not self.labels or self.labels[0] != "1":
            raise StructureError("first basis label must be the unit '1'")
        if len(set(self.labels)) != len(self.labels):
            raise StructureError("duplicate ring basis labels")
        self.ideal_labels = self.labels[1:]
        table: dict[tuple[str, str], RingElt] = {}
        for (a, b), val in products.items():
            if a == "1" or b == "1":
                raise StructureError("unit products are implied; give only ideal products")
            if a not in self.ideal_labels or b not in self.ideal_labels:
                raise StructureError(f"unknown ring label in product ({a},{b})")
            table[(a, b)] = {c: as_scalar(v) for c, v in val.items() if as_scalar(v) != 0}
        # fill commutativity: missing mirror entries copied, both-present checked later
        for (a, b), val in list(table.items()):
            if (b, a) not in table:
                table[(b, a)] = dict(val)
        self.table = table
        self._orders: dict[str, int] | None = None
        self._quotients: dict[int, ArtinLocalAlgebra] = {}
        self._duals: dict[type, DualRingCoalgebra] = {}
        self.nilpotency = 0
        start = time.perf_counter()
        self._compute_filtration()
        if validate:
            self.validate()
        # the time of the filtration and the axioms: the `local-ring` row's time
        self.validation_ms = (time.perf_counter() - start) * 1000.0

    # -- multiplication ----------------------------------------------------

    def mul_labels(self, a: str, b: str) -> RingElt:
        if a == "1":
            return {b: ONE}
        if b == "1":
            return {a: ONE}
        return self.table.get((a, b), {})

    def mul(self, x: Mapping[str, Scalar], y: Mapping[str, Scalar]) -> RingElt:
        out: RingElt = {}
        for a, ca in x.items():
            for b, cb in y.items():
                c = ca * cb
                if not c:
                    continue
                for t, s in self.mul_labels(a, b).items():
                    vec_add_into(out, t, s * c)
        return out

    # -- m-adic filtration ---------------------------------------------------

    def _coords(self, elt: RingElt) -> list[Scalar]:
        return [elt.get(x, ZERO) for x in self.ideal_labels]

    def _compute_filtration(self) -> None:
        """Nilpotency order and the m-adic order of each ideal basis label."""
        n = len(self.ideal_labels)
        layer_rows: list[list[list[Scalar]]] = []
        current = [[(ONE if j == i else ZERO) for j in range(n)] for i in range(n)]
        current, _ = rref(current)
        k = 1
        while current:
            layer_rows.append(current)
            nxt = []
            for a in self.ideal_labels:
                for row in current:
                    elt = self.mul({a: ONE}, dict(zip(self.ideal_labels, row)))
                    if elt:
                        nxt.append(self._coords(elt))
            current, _ = rref(nxt)
            k += 1
            if k > n + 2:
                raise StructureError(f"maximal ideal of {self.name} is not nilpotent")
        # layer_rows[k-1] spans m^k; the first vanishing power is M = len + 1
        self.nilpotency = len(layer_rows) + 1
        # a layer is reduced, so e_x lies in m^k exactly when it is a row of
        # layer k: one with a single nonzero entry.  Layer 1 is the identity.
        orders: dict[str, int] = {"1": 0}
        for depth, rows in enumerate(layer_rows, start=1):
            for row in rows:
                support = [j for j, c in enumerate(row) if c]
                if len(support) == 1:
                    orders[self.ideal_labels[support[0]]] = depth
        self._orders = orders
        # adapted basis: each m^k must be spanned by the basis labels of order >= k
        self.adapted = all(
            len(rows) == sum(1 for x in self.ideal_labels if orders[x] >= depth)
            for depth, rows in enumerate(layer_rows, start=1)
        )

    def order(self, label: str) -> int:
        """m-adic order of a basis label (0 for the unit)."""
        return self._orders[label]

    # -- axioms -------------------------------------------------------------

    def validate(self) -> None:
        for a in self.ideal_labels:
            for b in self.ideal_labels:
                ab = self.mul_labels(a, b)
                ba = self.mul_labels(b, a)
                if ab != ba:
                    raise StructureError(f"{self.name}: not commutative", witness=(a, b))
                if "1" in ab:
                    raise StructureError(f"{self.name}: ideal product with unit component", witness=(a, b))
        for a in self.ideal_labels:
            for b in self.ideal_labels:
                for c in self.ideal_labels:
                    left = self.mul(self.mul_labels(a, b), {c: ONE})
                    right = self.mul({a: ONE}, self.mul_labels(b, c))
                    if left != right:
                        raise StructureError(f"{self.name}: not associative", witness=(a, b, c))

    # -- dual structures -----------------------------------------------------

    def dual_coalgebra(self) -> "DualRingCoalgebra":
        """R* as a coalgebra, built once per ring and kept on it."""
        return self._dual(DualRingCoalgebra)

    def dual_algebra(self) -> "DualRingAlgebra":
        """R* as a square-zero algebra, built once per ring and kept on it."""
        return self._dual(DualRingAlgebra)

    def _dual(self, kind: type) -> "DualRingCoalgebra":
        if kind not in self._duals:
            self._duals[kind] = kind(self)
        return self._duals[kind]

    def __repr__(self):
        return f"ArtinLocalAlgebra({self.name}, dim={len(self.labels)}, M={self.nilpotency})"


class DualRingCoalgebra:
    """R* with the coproduct dual to multiplication; basis keys are ring labels."""

    def __init__(self, ring: ArtinLocalAlgebra):
        self.ring = ring
        self.unit = "1"  # the coaugmentation, dual to the augmentation R -> k
        self.basis_keys = ring.labels
        pairing: dict[str, list[tuple[str, str, Scalar]]] = {c: [] for c in ring.labels}
        for a in ring.labels:
            for b in ring.labels:
                for c, coeff in ring.mul_labels(a, b).items():
                    pairing[c].append((a, b, coeff))
        self._coproduct = pairing

    def coproduct(self, key: str) -> list[tuple[str, str, Scalar]]:
        return self._coproduct[key]

    def counit_key(self, key: str) -> Scalar:
        return ONE if key == "1" else ZERO

    def degree(self, key: str) -> int:
        return 0


class DualRingAlgebra(DualRingCoalgebra):
    """R* with the square-zero multiplication on m*; the unit is 1*.

    Together with the dual coalgebra structure and the zero operator this is
    the image of R in the morphism calculus.
    """

    max_len = None

    def mul_words(self, a: str, b: str) -> dict[str, Scalar]:
        if a == "1":
            return {b: ONE}
        if b == "1":
            return {a: ONE}
        return {}

    @property
    def words(self):
        return self.basis_keys

    def label(self, key: str) -> str:
        return key

    def augmentation_ideal_words(self):
        return tuple(k for k in self.basis_keys if k != "1")

    def length(self, key: str) -> int:
        return 0 if key == "1" else 1


TRIVIAL_RING = ArtinLocalAlgebra(["1"], {}, name="k")


def power_ring(order: int) -> ArtinLocalAlgebra:
    """k[t]/(t^order); basis 1, t, t^2, ..., t^{order-1}."""
    if order < 1:
        raise PreconditionError(f"nilpotency order M = {order} of k[t]/(t^M) is below 1")

    def lab(i: int) -> str:
        return "1" if i == 0 else ("t" if i == 1 else f"t^{i}")

    labels = [lab(i) for i in range(order)]
    products = {}
    for i in range(1, order):
        for j in range(1, order):
            if i + j < order:
                products[(lab(i), lab(j))] = {lab(i + j): 1}
            else:
                products[(lab(i), lab(j))] = {}
    return ArtinLocalAlgebra(labels, products, name=f"k[t]/(t^{order})")


def quotient(ring: ArtinLocalAlgebra, k: int) -> ArtinLocalAlgebra:
    """R/m^{k+1}, built once per (ring, k) and kept on the ring.

    On an adapted basis m^{k+1} is spanned by the labels of order > k, so the
    quotient keeps the labels of order <= k, with the same orders, and drops
    every product component of higher order.  The order-k part of any
    polynomial expression in elements of R is then the same over R and over
    R/m^{k+1}.  For k+1 >= M the quotient is R itself.
    """
    if not ring.adapted:
        raise PreconditionError(f"basis of {ring.name} is not adapted to the m-adic filtration")
    if k + 1 >= ring.nilpotency:
        return ring
    if k not in ring._quotients:
        kept = [x for x in ring.labels if ring.order(x) <= k]
        products = {(a, b): {c: v for c, v in ring.mul_labels(a, b).items() if ring.order(c) <= k}
                    for a in kept[1:] for b in kept[1:]}
        # a quotient of a ring by an ideal: the axioms of R carry over
        ring._quotients[k] = ArtinLocalAlgebra(kept, products, name=f"{ring.name}/m^{k + 1}",
                                               validate=False)
    return ring._quotients[k]


def square_zero_ring(variables: Iterable[str] = ("s", "t")) -> ArtinLocalAlgebra:
    """k[x_1,..,x_n]/(all products of two variables)."""
    var = tuple(variables)
    labels = ["1", *var]
    products = {(a, b): {} for a in var for b in var}
    return ArtinLocalAlgebra(labels, products, name="k[" + ",".join(var) + "]/(m^2)")
