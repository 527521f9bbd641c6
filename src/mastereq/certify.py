"""Certificates and deterministic report assembly.

A certificate is one named check with a pass/fail status, the truncation
bounds it was verified under, and an optional witness.  Machine-format
reports are byte-identical across runs for fixed inputs and seed: fields are
ordered, certificates sorted by name, and wall-clock timing is reported only
in the human format.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .diagnostics import CheckResult

__all__ = ["Certificate", "Report", "run_battery"]

FORMAT_VERSION = 1


@dataclass
class Certificate:
    name: str
    status: str  # "pass" | "fail"
    bounds: dict = field(default_factory=dict)
    witness: object = None
    timing_ms: float = 0.0

    @classmethod
    def from_check(cls, result: CheckResult, timing_ms: float | None = None,
                   name: str | None = None) -> "Certificate":
        """Certificate of `result`, named `name` if given and timed `timing_ms`
        if given, else by the time stamped on `result`; `result` is left as it is."""
        name = result.name if name is None else name
        return cls(name=name, status="pass" if result.ok else "fail",
                   bounds=dict(result.bound or {}), witness=result.witness,
                   timing_ms=result.timing_ms if timing_ms is None else timing_ms)

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def run_battery(tasks: Iterable[tuple[str, Callable[[], CheckResult]]]) -> list[Certificate]:
    """Run named checks in order; results sorted by name.

    Each certificate takes its task's name.  The check results are not
    renamed: a task may hand back a result that its algebra caches.
    """

    def run_one(item):
        name, fn = item
        start = time.perf_counter()
        result = fn()
        elapsed = (time.perf_counter() - start) * 1000.0
        if not isinstance(result, CheckResult):
            result = CheckResult(name, bool(result))
        return Certificate.from_check(result, timing_ms=elapsed, name=name)

    return sorted(map(run_one, tasks), key=lambda c: c.name)


class Report:
    def __init__(self, command: str, certificates: list[Certificate], inputs: dict | None = None):
        self.command = command
        self.certificates = sorted(certificates, key=lambda c: c.name)
        self.inputs = inputs or {}

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.certificates)

    def to_machine(self) -> str:
        doc = {
            "format_version": FORMAT_VERSION,
            "command": self.command,
            "inputs": self.inputs,
            "status": "pass" if self.ok else "fail",
            "certificates": [
                {
                    "name": c.name,
                    "status": c.status,
                    "bounds": {k: c.bounds[k] for k in sorted(c.bounds)},
                    "witness": _jsonable(c.witness),
                }
                for c in self.certificates
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"

    def to_human(self) -> str:
        lines = [f"== {self.command} =="]
        for key, value in sorted(self.inputs.items()):
            lines.append(f"   {key}: {value}")
        width = max((len(c.name) for c in self.certificates), default=0)
        for c in self.certificates:
            status = "PASS" if c.ok else "FAIL"
            bounds = " ".join(f"{k}={v}" for k, v in sorted(c.bounds.items())
                              if not isinstance(v, (list, dict)))
            line = f"  {c.name.ljust(width)}  {status}  [{c.timing_ms:8.2f} ms]"
            if bounds:
                line += f"  ({bounds})"
            lines.append(line)
            if not c.ok and c.witness is not None:
                lines.append(f"      witness: {_jsonable(c.witness)}")
        lines.append(f"  => {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _jsonable(value):
    from fractions import Fraction
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(_key(k)): _jsonable(v) for k, v in value.items()}
    if hasattr(value, "terms"):
        return {str(k): str(v) for k, v in sorted(value.terms.items(), key=lambda kv: str(kv[0]))}
    return str(value)


def _key(k):
    if isinstance(k, tuple):
        return "·".join(str(x) for x in k) or "1"
    return k
