"""Check results and kernel exceptions shared across modules."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "CheckResult",
    "timed",
    "MasterEqError",
    "PreconditionError",
    "StructureError",
    "ManifestError",
    "InternalError",
]


class MasterEqError(Exception):
    """Base for kernel errors."""


class PreconditionError(MasterEqError):
    """An operation was called outside its contract."""


class StructureError(MasterEqError):
    """Input data violates the axioms of its declared structure."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class InternalError(MasterEqError):
    """Two routes that agree by construction gave different results: a kernel
    fault, not an input fault."""


class ManifestError(MasterEqError):
    """A manifest file failed to parse or validate."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(message + loc)
        self.line = line
        self.column = column


@dataclass
class CheckResult:
    """Outcome of one certified check, with an explicit truncation bound: the
    certificate that `certify.Report` renders.

    `witness` is a small JSON-able structure pinpointing a failure; `bound`
    records the truncation the certificate is valid up to (word length,
    hbar cutoff, nilpotency order) since identities are only ever certified
    inside a finite window.  `timing_ms` is the wall-clock time the check
    took, when `timed` ran it; it is no part of the result's value.
    """

    name: str
    ok: bool
    witness: object = None
    bound: dict = field(default_factory=dict)
    timing_ms: float = field(default=0.0, compare=False)

    def __bool__(self) -> bool:
        return self.ok


def timed(check: Callable[[], CheckResult]) -> CheckResult:
    """Run `check` and stamp its result with the milliseconds it took."""
    start = time.perf_counter()
    result = check()
    result.timing_ms = (time.perf_counter() - start) * 1000.0
    return result
