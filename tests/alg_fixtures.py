"""The named algebras and rings of the test suite, read from `fixtures/*.alg`.

The manifests under `fixtures/` are the one source of every named fixture:
the CLI, the golden reports, the benchmark workloads and these tests all read
the same files, so a test and a report cannot disagree about what `heis3` or
`bidg4` is.  `load(name)` parses `fixtures/<name>.alg` afresh on each call
and returns the kernel object, so two calls never share cached builds.

Three test inputs have no loadable manifest and stay inline literals in the
tests that use them:

- `jacobi-violator`: its manifest exists, but the loader rejects it on
  purpose (a manifest must build a valid algebra), so the test that needs the
  broken algebra itself builds it with `validate=False`.  Its brackets as
  an L∞ manifest, `jacobi-violator-linfty`, do load (an L∞ manifest is not
  validated on load), and `check` fails on them at the word x·y·z.
- `ground-field` (k with u·u = u): the trivial associative algebra, a
  one-entry base case of the bar construction with no CLI use.
- `abelian-zero`: the bi-dg-Lie algebra with bracket, d and delta all zero,
  a degenerate base case with no CLI use.

The directory is found from this file, so the tests run from any working
directory.  `monomial_ring` builds the two-variable parameter rings that no
CLI command reads.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from mastereq.artin import ArtinLocalAlgebra
from mastereq.manifest import parse_manifest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def load(name: str):
    """The kernel object of `fixtures/<name>.alg`, freshly parsed."""
    return parse_manifest(str(FIXTURES / f"{name}.alg")).obj


def monomial_ring(name: str, kept: Callable[[int, int], bool]) -> ArtinLocalAlgebra:
    """k[s,t] modulo the monomial ideal of the s^a t^b that `kept` rejects.

    `kept` must hold for every divisor of a monomial it holds for, and fail
    for every a or b from 8 up.  The basis is the kept monomials by total
    degree, so it is adapted to the m-adic filtration."""
    monomials = sorted(((a, b) for a in range(8) for b in range(8) if kept(a, b)),
                       key=lambda ab: (sum(ab), -ab[0]))

    def label(a: int, b: int) -> str:
        parts = [v if e == 1 else f"{v}^{e}" for v, e in (("s", a), ("t", b)) if e]
        return "".join(parts) or "1"

    products = {(label(*x), label(*y)): ({label(x[0] + y[0], x[1] + y[1]): 1}
                                         if kept(x[0] + y[0], x[1] + y[1]) else {})
                for x in monomials[1:] for y in monomials[1:]}
    return ArtinLocalAlgebra([label(*m) for m in monomials], products, name=name)
