"""Check results and kernel exceptions shared across modules."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "CheckResult",
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
    """Outcome of one certified check, with an explicit truncation bound.

    `witness` is a small JSON-able structure pinpointing a failure; `bound`
    records the truncation the certificate is valid up to (word length,
    hbar cutoff, nilpotency order) since identities are only ever certified
    inside a finite window.
    """

    name: str
    ok: bool
    witness: object = None
    bound: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok
