"""Machine reports are pinned byte for byte against files in tests/golden/.

Each case runs `mastereq` in process with `--format machine` and compares the
exit code, stdout, stderr and (for `--emit`) the emitted manifest with the
stored files.  The cases are `check` on every fixture plus one run of each
command of the cli-fixtures benchmark workload at a fixed seed.

The golden files are the report contract: a kernel change that alters the
product order, a sign or a witness shows up here.  Regenerate them with

    PYTHONPATH=src python tests/test_golden_reports.py

only for a deliberate change of the report contract, and say so in the
change description.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from mastereq import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
EMIT = "EMIT"  # stands for a file under the test's tmp_path


def _f(name: str) -> str:
    return f"fixtures/{name}"


RING3 = ["--ring", _f("ring-t3.alg")]

# (case name, argv without --format); seeds are fixed per case
COMMANDS = [
    ("check-heis3-ring-t3", ["check", _f("heis3.alg"), _f("ring-t3.alg")]),
    ("construct-ce-sl2", ["construct", "ce", _f("sl2.alg"), "--trunc-words", "4", "--emit", EMIT]),
    ("construct-ibl-noninv2", ["construct", "ibl", _f("noninv2.alg")]),
    ("construct-ttw-nonassoc3", ["construct", "ttw", _f("nonassoc3.alg")]),
    ("solve-mc-lift3", ["solve-mc", _f("lift3.alg"), _f("ring-t3.alg"), "--seed", "11"]),
    ("solve-qme-sl2", ["solve-qme", _f("sl2.alg"), _f("ring-t3.alg"), "--seed", "12"]),
    ("quillen-heis3", ["verify-representability", "quillen", _f("heis3.alg"), *RING3, "--seed", "13"]),
    ("theorem-second-bidg4", ["verify-representability", "theorem-second", _f("bidg4-dglie.alg"),
                              "--seed", "14"]),
    ("compose-t4-t3-t2", ["compose-morphisms", _f("ring-t4.alg"), _f("ring-t3.alg"), _f("ring-t2.alg")]),
    ("big-formula-sl2", ["identity-check", "big-formula", _f("sl2.alg"), *RING3, "--seed", "15"]),
    ("unimodular-poisson", ["identity-check", "unimodular-poisson"]),
    ("theorem-first-sl2", ["verify-representability", "theorem-first", _f("sl2.alg"), *RING3,
                           "--seed", "16"]),
    ("chuang-lazarev-sl2", ["verify-representability", "chuang-lazarev", _f("sl2.alg"), "--seed", "17"]),
    ("corollary-bidg4", ["verify-representability", "corollary-bidg", _f("bidg4.alg"), *RING3,
                         "--seed", "18"]),
    ("qme-forms-sl2", ["identity-check", "qme-forms", _f("sl2.alg"), *RING3, "--seed", "19"]),
    ("derived-brackets-ce-l3demo", ["identity-check", "derived-brackets", _f("ce-l3demo.alg"), *RING3]),
    ("construct-bi-dg-bidg4", ["construct", "bi-dg", _f("bidg4.alg")]),
] + [
    (f"check-{path.stem}", ["check", _f(path.name)])
    for path in sorted((ROOT / "fixtures").glob("*.alg"))
]


def run_case(argv: list[str], emit_path: Path) -> dict[str, object]:
    """Exit code, stdout, stderr and emitted manifest of one machine-format run.

    Fixture paths are relative to the repository root and appear in reports,
    so the caller runs this from there.
    """
    argv = [str(emit_path) if a == EMIT else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--format", "machine"])
    parts = {"stdout": out.getvalue(), "stderr": err.getvalue()}
    if str(emit_path) in argv:
        parts["emit"] = emit_path.read_text(encoding="utf-8")
    return {"exit": code, "parts": parts}


def _golden(name: str, part: str) -> Path:
    return GOLDEN / f"{name}.{part}"


def test_cases_cover_every_fixture_and_workload_command():
    # 17 workload commands that are not a plain check of one fixture
    names = [name for name, _ in COMMANDS]
    assert len(set(names)) == len(names) == 17 + len(list((ROOT / "fixtures").glob("*.alg")))


@pytest.mark.parametrize("name,argv", COMMANDS, ids=[name for name, _ in COMMANDS])
def test_machine_report_matches_golden(name, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    got = run_case(argv, tmp_path / "emitted.alg")
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert got["exit"] == codes[name]
    # an empty stdout or stderr has no file
    for part in ("stdout", "stderr"):
        path = _golden(name, part)
        expected = path.read_bytes() if path.exists() else b""
        assert got["parts"][part].encode("utf-8") == expected, f"{name}: {part} differs"
    emitted = got["parts"].get("emit")
    path = _golden(name, "emit")
    assert (emitted is None) == (not path.exists())
    if emitted is not None:
        assert emitted.encode("utf-8") == path.read_bytes()


def regenerate() -> None:
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in COMMANDS:
            got = run_case(argv, Path(tmp) / "emitted.alg")
            codes[name] = got["exit"]
            for part, text in got["parts"].items():
                if text:
                    _golden(name, part).write_bytes(text.encode("utf-8"))
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n",
                                            encoding="utf-8")


if __name__ == "__main__":
    regenerate()
