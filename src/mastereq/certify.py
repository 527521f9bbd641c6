"""Deterministic report assembly.

A certificate is a `diagnostics.CheckResult`: one named check with its
verdict `ok`, the truncation `bound` it was verified under, an optional
witness and the time it took.  Kernel results reach the report as they are.
Machine-format reports are byte-identical across runs for fixed inputs and
seed: fields are ordered, certificates sorted by name, and wall-clock timing
is reported only in the human format.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import Callable, Iterable

from .diagnostics import CheckResult

__all__ = ["Report", "run_battery"]

FORMAT_VERSION = 1


def run_battery(tasks: Iterable[tuple[str, Callable[[], CheckResult]]]) -> list[CheckResult]:
    """Run named checks in order: a copy of each result, named after its task
    and timed by the clock around it.  A task may hand back a result that its
    algebra caches, so the result itself is left as it is."""
    out = []
    for name, fn in tasks:
        start = time.perf_counter()
        result = fn()
        out.append(dataclasses.replace(result, name=name,
                                       timing_ms=(time.perf_counter() - start) * 1000.0))
    return out


class Report:
    def __init__(self, command: str, certificates: list[CheckResult], inputs: dict | None = None):
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
                    "status": "pass" if c.ok else "fail",
                    "bounds": {k: c.bound[k] for k in sorted(c.bound)},
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
            bounds = " ".join(f"{k}={v}" for k, v in sorted(c.bound.items())
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
