"""Machine reports are pinned byte for byte against files in tests/golden/.

Each case runs `mastereq` in process with `--format machine` and compares the
exit code, stdout, stderr and (for `--emit`) the emitted manifest with the
stored files.  The cases are `check` on every fixture plus one run of each
command of the cli-fixtures benchmark workload at a fixed seed, both
solvers on an obstructed input, three solves over k[t]/t^4 (where the lift
runs over a proper quotient of the ring), and the CE and bi-dg
constructions of a differential with two targets on one generator.  A second pass runs each case in the human
format and checks its exit code against the same `exit_codes.json`.

`test_one_parser_serves_repeated_calls` runs every case twice in one
process, as scripts and the benchmark do, against the same files.

The golden files are the report contract: a kernel change that alters the
product order, a sign or a witness shows up here.  Running

    PYTHONPATH=src python tests/test_golden_reports.py

writes the files of every case that has none and adds its exit code to
`exit_codes.json`; it never overwrites.  It exits 1 and names every existing
golden whose bytes (or exit code) the case no longer reproduces.  For a
deliberate change of the report contract, delete that case's files
(`<case>.*`) first, so the diff shows them, run it again, and say so in the
change description.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from mastereq import cli

from alg_fixtures import FIXTURES, ROOT

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
    # the obstructed branch of both solvers: order 2, residual (1/2) w t^2
    ("solve-mc-obst2", ["solve-mc", _f("obst2.alg"), _f("ring-t3.alg"), "--seed", "1"]),
    ("solve-qme-obst2", ["solve-qme", _f("obst2.alg"), _f("ring-t3.alg"), "--seed", "1"]),
    # over k[t]/t^4 the lift at order 2 runs over the proper quotient k[t]/t^3
    ("solve-mc-obst2-t4", ["solve-mc", _f("obst2.alg"), _f("ring-t4.alg"), "--seed", "1"]),
    ("solve-qme-obst2-t4", ["solve-qme", _f("obst2.alg"), _f("ring-t4.alg"), "--seed", "1"]),
    ("solve-qme-lift3-t4", ["solve-qme", _f("lift3.alg"), _f("ring-t4.alg"), "--seed", "3"]),
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
    # d x = y + z: both terms reach d, and the bi-dg inclusion passes
    ("construct-ce-two-target", ["construct", "ce", _f("two-target.alg"), "--trunc-words", "2",
                                 "--emit", EMIT]),
    ("construct-bi-dg-two-target", ["construct", "bi-dg", _f("two-target-bidg.alg")]),
] + [
    (f"check-{path.stem}", ["check", _f(path.name)])
    for path in sorted(FIXTURES.glob("*.alg"))
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


def _assert_golden(name: str, got: dict) -> None:
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert got["exit"] == codes[name], name
    for part in ("stdout", "stderr", "emit"):
        path = _golden(name, part)
        expected = path.read_bytes() if path.exists() else None
        text = got["parts"].get(part)
        # an empty stdout or stderr has no file
        assert (text.encode("utf-8") if text else None) == expected, f"{name}: {part} differs"


def test_cases_cover_every_fixture_and_workload_command():
    # 17 workload commands, 2 obstructed solves, 3 solves over k[t]/t^4 and
    # 2 two-target constructions, none a plain check of one fixture
    names = [name for name, _ in COMMANDS]
    assert len(set(names)) == len(names) == 24 + len(list(FIXTURES.glob("*.alg")))


@pytest.mark.parametrize("name,argv", COMMANDS, ids=[name for name, _ in COMMANDS])
def test_machine_report_matches_golden(name, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    _assert_golden(name, run_case(argv, tmp_path / "emitted.alg"))


@pytest.mark.parametrize("name,argv", COMMANDS, ids=[name for name, _ in COMMANDS])
def test_human_report_exits_as_the_machine_report(name, argv, tmp_path, monkeypatch):
    # the human format renders the same verdicts, so it exits with the same code
    monkeypatch.chdir(ROOT)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    argv = [str(tmp_path / "emitted.alg") if a == EMIT else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == codes[name], (name, err.getvalue())
    assert out.getvalue() or err.getvalue()


def test_one_parser_serves_repeated_calls(tmp_path, monkeypatch):
    """`cli.main` builds its parser on the first call and reuses it unchanged."""
    monkeypatch.chdir(ROOT)
    cli._parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    emit = tmp_path / "emitted.alg"
    first_name, first_argv = COMMANDS[0]
    _assert_golden(first_name, run_case(first_argv, emit))
    assert built, "the first call builds the parser"
    built.clear()

    for name, argv in COMMANDS[1:]:
        _assert_golden(name, run_case(argv, emit))
    # a human-format report and a usage error between the two passes
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["check", _f("heis3.alg")]) == 0
    assert out.getvalue().startswith("== check ==")
    with contextlib.redirect_stderr(io.StringIO()) as err, pytest.raises(SystemExit) as exc:
        cli.main(["check"])
    assert exc.value.code == 2 and "usage: mastereq check" in err.getvalue()
    for name, argv in reversed(COMMANDS):
        _assert_golden(name, run_case(argv, emit))

    # no default carries over from an earlier call
    solve = ["solve-mc", _f("lift3.alg"), _f("ring-t3.alg")]
    seeded = run_case([*solve, "--seed", "5"], emit)
    unseeded = run_case(solve, emit)
    seed0 = run_case([*solve, "--seed", "0"], emit)
    assert json.loads(unseeded["parts"]["stdout"])["inputs"]["seed"] == 0
    assert unseeded == seed0 != seeded
    assert built == []


def test_regenerate_writes_only_missing_goldens(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    golden = tmp_path / "golden"
    cases = [("check-ring-t2", ["check", _f("ring-t2.alg")]),
             ("check-bad-rational", ["check", _f("bad-rational.alg")])]
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", golden)
    monkeypatch.setattr(sys.modules[__name__], "COMMANDS", cases)
    assert regenerate() == 0
    for name in ("check-ring-t2.stdout", "check-bad-rational.stderr"):
        assert (golden / name).read_bytes() == (GOLDEN / name).read_bytes()
    assert json.loads((golden / "exit_codes.json").read_text()) == {
        "check-bad-rational": 1, "check-ring-t2": 0}

    # a drifted golden is named, never overwritten; other cases' codes merge
    (golden / "check-ring-t2.stdout").write_text("drifted\n")
    (golden / "exit_codes.json").write_text(json.dumps({"check-ring-t2": 0, "other": 3}))
    capsys.readouterr()
    assert regenerate() == 1
    assert (golden / "check-ring-t2.stdout").read_text() == "drifted\n"
    assert "golden would change: check-ring-t2.stdout" in capsys.readouterr().err
    assert json.loads((golden / "exit_codes.json").read_text()) == {
        "check-bad-rational": 1, "check-ring-t2": 0, "other": 3}

    # a changed exit code is named too; deleting a case's files rewrites them
    (golden / "check-ring-t2.stdout").unlink()
    (golden / "exit_codes.json").write_text(json.dumps({"check-bad-rational": 0}))
    assert regenerate() == 1
    assert "golden would change: exit_codes.json: check-bad-rational" in capsys.readouterr().err
    assert (golden / "check-ring-t2.stdout").read_bytes() == (GOLDEN / "check-ring-t2.stdout").read_bytes()


def test_parser_is_built_on_first_use_not_at_import():
    code = "import mastereq.cli as c; print(c._parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def regenerate() -> int:
    """Write the goldens of the cases that have none; see the module docstring.

    A case has goldens when any of its files exists; such a case is only
    compared, and only a missing exit code is added.  Returns 1, after naming
    every golden that would change, or 0.
    """
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    codes_path = GOLDEN / "exit_codes.json"
    codes = json.loads(codes_path.read_text(encoding="utf-8")) if codes_path.exists() else {}
    drifted = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in COMMANDS:
            got = run_case(argv, Path(tmp) / "emitted.alg")
            parts = {part: _golden(name, part) for part in ("stdout", "stderr", "emit")}
            new = not any(path.exists() for path in parts.values())
            if new or name not in codes:
                codes[name] = got["exit"]
            elif codes[name] != got["exit"]:
                drifted.append(f"{codes_path.name}: {name}")
            for part, path in parts.items():
                text = got["parts"].get(part)
                data = text.encode("utf-8") if text else None
                if new and data is not None:
                    path.write_bytes(data)
                elif not new and (path.read_bytes() if path.exists() else None) != data:
                    drifted.append(path.name)
    codes_path.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for name in drifted:
        print(f"golden would change: {name}", file=sys.stderr)
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(regenerate())
