"""Seeded random instance generators for the certification batteries.

Determinism matters more than distribution quality here: every battery is
driven by an explicit `random.Random(seed)` so reports are reproducible
byte-for-byte.  Coefficients are small rationals; supports are budgeted so
that exponentials stay inside the word-length truncation.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .artin import ArtinLocalAlgebra
from .graded import ONE, Scalar, as_scalar
from .series import HbarSeries

__all__ = [
    "random_rational",
    "random_mc_element",
    "random_qme_element",
    "random_corestriction_twist",
]


def random_rational(rng: random.Random) -> Scalar:
    num = rng.randint(-2, 2)
    den = rng.choice([1, 1, 2])
    return as_scalar(Fraction(num, den))


def random_mc_element(g, ring: ArtinLocalAlgebra, rng: random.Random) -> HbarSeries:
    """Random degree-one element of g (x) m, on about 40% of the slots."""
    terms = {}
    for x in g.space.labels:
        if g.space.degree(x) != 1:
            continue
        for r in ring.ideal_labels:
            if rng.random() < 0.4:
                c = random_rational(rng)
                if c:
                    terms[(x, r, 0)] = c
    return HbarSeries(terms)


def random_qme_element(V, ring: ArtinLocalAlgebra, rng: random.Random,
                       word_len_cap: int | None = None) -> HbarSeries:
    """Random total-degree-two element of V[[hbar]] (x) m, on about 35% of
    the slots.

    The word-length cap keeps e^{S/hbar} inside the truncation: products of
    up to M-1 supports appear, so cap * (M-1) must fit in the window.
    """
    A = V.algebra
    M = ring.nilpotency
    if word_len_cap is None:
        word_len_cap = max(1, A.max_len // max(M - 1, 1))
    terms = {}
    for w in A.words:
        if len(w) > word_len_cap:
            continue
        for h in range(V.hbar_cutoff):
            if A.degree(w) + 2 * h != 2:
                continue
            for r in ring.ideal_labels:
                if rng.random() < 0.35:
                    c = random_rational(rng)
                    if c:
                        terms[(w, r, h)] = c
    return HbarSeries(terms)


def random_corestriction_twist(g, rng: random.Random, max_len: int = 3) -> dict:
    """Corestriction of a coalgebra automorphism of S(g[1]): identity in
    arity one plus a random degree-zero arity-two part on about half of the
    slots."""
    W = g.word_algebra(max_len)
    cor = {(x,): {x: ONE} for x in g.shifted.labels}
    for w in W.words:
        if len(w) != 2:
            continue
        for t in g.shifted.labels:
            if g.shifted.degree(t) == W.degree(w) and rng.random() < 0.5:
                c = random_rational(rng)
                if c:
                    cor.setdefault(w, {})[t] = c
    return cor
