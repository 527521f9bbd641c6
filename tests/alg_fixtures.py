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
  broken algebra itself builds it with `validate=False`.
- `ground-field` (k with u·u = u): the trivial associative algebra, a
  one-entry base case of the bar construction with no CLI use.
- `abelian-zero`: the bi-dg-Lie algebra with bracket, d and delta all zero,
  a degenerate base case with no CLI use.

The directory is found from this file, so the tests run from any working
directory.
"""

from __future__ import annotations

from pathlib import Path

from mastereq.manifest import parse_manifest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def load(name: str):
    """The kernel object of `fixtures/<name>.alg`, freshly parsed."""
    return parse_manifest(str(FIXTURES / f"{name}.alg")).obj
