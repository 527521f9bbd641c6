import argparse
import contextlib
import copy
import functools
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction

import pytest

import mastereq
from mastereq import cli
from mastereq.bv import derived_brackets_linfty_check
from mastereq.certify import run_battery
from mastereq.constructions import BiDgLieData, bv_from_bi_dg_lie
from mastereq.diagnostics import ManifestError
from mastereq.linfty import DgLieAlgebra
from mastereq.manifest import emit_manifest, parse_manifest, parse_manifest_text
from mastereq.series import SolveResult

from alg_fixtures import FIXTURES, ROOT


def run_cli(*argv):
    return cli.main(list(argv))


def run_cli_capture(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-m", "mastereq.cli", *argv],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    return proc


def test_parse_heis3():
    m = parse_manifest(str(FIXTURES / "heis3.alg"))
    assert m.kind == "dg-lie"
    assert isinstance(m.obj, DgLieAlgebra)
    assert m.obj.bracket_labels("x", "y") == {"z": 1}


def _entry_blocks(doc):
    for block in doc["structure"].values():
        yield from block.values() if isinstance(block, dict) else [block]


@pytest.mark.parametrize("fixture, tables", [
    ("heis3.alg", lambda g: g.bracket),
    ("two-target.alg", lambda g: g.d),
    ("l3demo.alg", lambda g: g.brackets),
    ("noninv2.alg", lambda b: (b.lie.bracket, b.cobracket)),
    ("bidg4.alg", lambda b: (b.lie.bracket, b.lie.d, b.delta)),
    ("dual-numbers.alg", lambda a: a.product),
    ("ring-t3.alg", lambda r: r.table),
    ("ce-heis3.alg", lambda v: v.delta.entries),
    ("ce-l3demo.alg", lambda v: {n: op.entries for n, op in v.operators.items()}),
], ids=["dg-lie bracket", "dg-lie differential", "linfty", "lie-bialgebra", "bi-dg-lie",
        "associative", "artin-ring", "bv", "bv-infty"])
def test_an_entry_listed_twice_reads_as_twice_its_coefficient(fixture, tables):
    # every kind sums repeated entries; listing all of them twice keeps the
    # axioms, which are homogeneous in the structure maps
    doc = json.loads((FIXTURES / fixture).read_text())
    twice, doubled = copy.deepcopy(doc), copy.deepcopy(doc)
    for block in _entry_blocks(twice):
        block.extend(copy.deepcopy(block))
    for block in _entry_blocks(doubled):
        for entry in block:
            entry["coeff"] = str(2 * Fraction(entry.get("coeff", "1")))
    read = {name: tables(parse_manifest_text(json.dumps(d)).obj)
            for name, d in (("once", doc), ("twice", twice), ("doubled", doubled))}
    assert read["twice"] == read["doubled"] != read["once"]


def test_parse_round_trip_canonical():
    for name in ("heis3.alg", "bidg4.alg", "inv3.alg", "ring-t3.alg", "l3demo.alg",
                 "nonassoc3.alg", "ce-heis3.alg", "ce-l3demo.alg"):
        text = (FIXTURES / name).read_text()
        m = parse_manifest_text(text, name)
        emitted = emit_manifest(m)
        again = parse_manifest_text(emitted, name)
        assert emit_manifest(again) == emitted


def test_bv_infty_manifest_parses_and_certifies():
    from mastereq.bv import BVInftyAlgebra
    m = parse_manifest(str(FIXTURES / "ce-l3demo.alg"))
    assert m.kind == "bv-infty"
    assert isinstance(m.obj, BVInftyAlgebra)
    assert 3 in m.obj.operators
    assert m.obj.is_certified()


def test_parse_rejects_bad_rational():
    with pytest.raises(ManifestError):
        parse_manifest(str(FIXTURES / "bad-rational.alg"))


def test_parse_rejects_floats():
    doc = {"format_version": 1, "kind": "dg-lie", "name": "f", "basis": [["x", 0]],
           "structure": {"bracket": [{"inputs": ["x", "x"], "outputs": ["x"], "coeff": 0.5}]}}
    with pytest.raises(ManifestError):
        parse_manifest_text(json.dumps(doc))


def test_parse_rejects_unknown_fields():
    doc = {"format_version": 1, "kind": "dg-lie", "name": "f", "basis": [["x", 0]],
           "structure": {}, "extra": 1}
    with pytest.raises(ManifestError):
        parse_manifest_text(json.dumps(doc))


def test_parse_rejects_unknown_kind():
    doc = {"format_version": 1, "kind": "frobenius", "name": "f", "basis": []}
    with pytest.raises(ManifestError):
        parse_manifest_text(json.dumps(doc))


def test_jacobi_violation_is_semantic_error_with_witness():
    with pytest.raises(ManifestError) as err:
        parse_manifest(str(FIXTURES / "jacobi-violator.alg"))
    assert "jacobi" in str(err.value)
    assert "witness" in str(err.value)


def test_bracket_of_nonzero_degree_is_rejected_with_its_entry(tmp_path, capsys):
    # [a,b] = a with |a| = 0, |b| = 1: every sorted triple has J = 0, but
    # J(b,b,a) = 2[b,[b,a]] = 2a.  Sorted triples decide Jacobi only for a
    # bracket of degree zero, so the entry itself is refused.
    doc = {"format_version": 1, "kind": "dg-lie", "name": "deg-one-bracket",
           "basis": [["a", 0], ["b", 1]],
           "structure": {"bracket": [{"inputs": ["a", "b"], "outputs": ["a"], "coeff": "1"}]}}
    with pytest.raises(ManifestError) as err:
        parse_manifest_text(json.dumps(doc))
    assert "witness" in str(err.value) and "'a', 'b', 'a'" in str(err.value)
    path = tmp_path / "deg-one-bracket.alg"
    path.write_text(json.dumps(doc))
    assert run_cli("check", str(path)) == 1
    capsys.readouterr()


@pytest.mark.parametrize("fixture, block, entry, message", [
    ("heis3.alg", "differential", ("x", "z"), "d entry 'x' -> 'z' has degree 0, not 1"),
    ("bidg4.alg", "delta", ("p", "s"), "delta entry 'p' -> 's' has degree 0, not -1"),
    ("dual-numbers.alg", "differential", ("u", "eps"), "differential entry 'u' -> 'eps' has degree 0, not 1"),
], ids=["dg-lie differential", "bi-dg delta", "associative differential"])
def test_map_entry_of_wrong_degree_is_refused_with_its_entry(tmp_path, capsys, fixture, block, entry, message):
    doc = json.loads((FIXTURES / fixture).read_text())
    doc["structure"].setdefault(block, []).append(
        {"inputs": [entry[0]], "outputs": [entry[1]], "coeff": "1"})
    path = tmp_path / fixture
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("check", str(path)) == 1
    assert message in capsys.readouterr().err


def test_syntax_error_carries_location():
    with pytest.raises(ManifestError) as err:
        parse_manifest_text("{\n  \"kind\": }")
    assert err.value.line == 2


def test_check_exit_codes(tmp_path, capsys):
    assert run_cli("check", str(FIXTURES / "heis3.alg"), "--format", "machine",
                   "--out", str(tmp_path / "r.json")) == 0
    assert run_cli("check", str(FIXTURES / "jacobi-violator.alg")) == 1
    capsys.readouterr()


def test_run_battery_leaves_cached_certificates_named(monkeypatch):
    # BV(inf)-algebras hand out their cached certificate list; prefixing the
    # task names and timing the tasks, as `run_battery` does, or prefixing the
    # rows, as `check` does, must neither rename nor re-time the cached results
    path = str(FIXTURES / "ce-l3demo.alg")
    manifest = parse_manifest(path)
    obj = manifest.obj
    cached = [(r.name, r.timing_ms) for r in obj.certify()]
    names = [name for name, _ in cached]
    certs = run_battery([(f"ce-l3demo: {r.name}", lambda r=r: r) for r in obj.certify()])
    assert sorted(c.name for c in certs) == sorted(f"ce-l3demo: {n}" for n in names)
    assert [(r.name, r.timing_ms) for r in obj.certify()] == cached
    monkeypatch.setattr(cli, "parse_manifest", lambda _: manifest)
    report = cli.cmd_check(cli.build_parser().parse_args(["check", path]))
    assert sorted(c.name for c in report.certificates) == sorted(f"{manifest.name}: {n}" for n in names)
    assert [(r.name, r.timing_ms) for r in obj.certify()] == cached
    assert derived_brackets_linfty_check(obj).ok


def test_usage_error_exit_2():
    proc = run_cli_capture("no-such-command")
    assert proc.returncode == 2


def test_machine_reports_are_byte_identical(tmp_path):
    args = ("identity-check", "qme-forms", str(FIXTURES / "heis3.alg"),
            "--ring", str(FIXTURES / "ring-t3.alg"), "--seed", "7",
            "--instances", "5", "--format", "machine")
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["status"] == "pass"
    assert "timing" not in out1.read_text()


def test_construct_emit_round_trip(tmp_path):
    out = tmp_path / "ce-heis3.alg"
    assert run_cli("construct", "ce", str(FIXTURES / "heis3.alg"),
                   "--emit", str(out), "--out", str(tmp_path / "log.txt")) == 0
    m = parse_manifest(str(out))
    assert m.kind == "bv"
    from mastereq.bv import BVAlgebra
    assert isinstance(m.obj, BVAlgebra)
    assert m.obj.is_certified()
    assert m.obj.delta.entries.get(("x", "y")) == {("z",): Frac(-1)}
    # an emitted manifest with words of five letters passes `check` as well
    out5 = tmp_path / "ce5-sl2.alg"
    assert run_cli("construct", "ce", str(FIXTURES / "sl2.alg"), "--trunc-words", "5",
                   "--emit", str(out5), "--out", str(tmp_path / "log5.txt")) == 0
    assert run_cli("check", str(out5), "--out", str(tmp_path / "check5.txt")) == 0


def test_construct_ibl_dichotomy(tmp_path):
    assert run_cli("construct", "ibl", str(FIXTURES / "noninv2.alg"),
                   "--out", str(tmp_path / "a.txt")) == 0
    assert run_cli("construct", "ibl", str(FIXTURES / "inv3.alg"),
                   "--out", str(tmp_path / "b.txt")) == 0
    text = (tmp_path / "a.txt").read_text()
    assert "involutivity-dichotomy" in text


def test_solve_qme_cli(tmp_path):
    code = run_cli("solve-qme", str(FIXTURES / "sl2.alg"), str(FIXTURES / "ring-t3.alg"),
                   "--seed", "3", "--out", str(tmp_path / "r.txt"))
    assert code == 0
    assert "solution-verified" in (tmp_path / "r.txt").read_text()


def test_check_heis3_passes_and_nonassoc_fails(tmp_path, capsys):
    assert run_cli("check", str(FIXTURES / "heis3.alg")) == 0
    out = tmp_path / "r.txt"
    assert run_cli("check", str(FIXTURES / "nonassoc3.alg"), "--out", str(out)) == 1
    text = out.read_text()
    assert "associativity" in text and "u" in text
    capsys.readouterr()


def test_identity_check_big_formula_seeded(tmp_path):
    code = run_cli("identity-check", "big-formula", str(FIXTURES / "heis3.alg"),
                   "--ring", str(FIXTURES / "ring-t3.alg"), "--seed", "7",
                   "--instances", "5", "--out", str(tmp_path / "r.txt"))
    assert code == 0
    assert "conjugation-identity" in (tmp_path / "r.txt").read_text()


def test_vacuous_corruption_battery_does_not_pass(tmp_path, monkeypatch):
    # every perturbed neighbour is a morphism: there is nothing to detect
    monkeypatch.setattr(cli, "chuang_lazarev_residual", lambda *args: {})
    monkeypatch.setattr(cli, "chuang_lazarev_morphism_defect",
                        lambda *args: cli.CheckResult("defect", True))
    out = tmp_path / "r.json"
    code = run_cli("verify-representability", "chuang-lazarev", str(FIXTURES / "sl2.alg"),
                   "--seed", "5", "--instances", "3", "--format", "machine", "--out", str(out))
    assert code == 1
    certs = {c["name"]: c for c in json.loads(out.read_text())["certificates"]}
    assert certs["chuang-lazarev-valid"]["status"] == "pass"
    detected = certs["chuang-lazarev-corrupted-detected"]
    assert detected["status"] == "fail"
    assert detected["bounds"] == {"detected": 0, "skipped": 3, "total": 3}


def test_corrupted_neighbour_the_routes_disagree_on_is_a_miss(tmp_path, monkeypatch):
    # the intertwining defect accepts every neighbour, the residual rejects it:
    # the first neighbour decides, as a miss, with no further draw and no skip
    monkeypatch.setattr(cli, "chuang_lazarev_residual", lambda *args: {"x": 1})
    monkeypatch.setattr(cli, "chuang_lazarev_morphism_defect",
                        lambda *args: cli.CheckResult("defect", True))
    perturbed = []
    monkeypatch.setattr(cli, "_perturbed", lambda table, rng: perturbed.append(1) or table)
    out = tmp_path / "r.json"
    code = run_cli("verify-representability", "chuang-lazarev", str(FIXTURES / "sl2.alg"),
                   "--seed", "5", "--instances", "3", "--format", "machine", "--out", str(out))
    assert code == 1
    certs = {c["name"]: c for c in json.loads(out.read_text())["certificates"]}
    assert certs["chuang-lazarev-corrupted-detected"]["bounds"] == {"detected": 0, "total": 3}
    assert len(perturbed) == 3


def _theorem_first_valid(tmp_path, monkeypatch, obstructed_calls):
    """theorem-first on sl2 with the solver reporting an obstruction on the
    given (0-based) calls; returns the exit code and the valid certificate."""
    solve = cli.qme_solve_perturbative
    calls = []

    def solver(V, ring, seed, hbar_cutoff=None):
        calls.append(seed)
        if len(calls) - 1 in obstructed_calls:
            return SolveResult(status="obstructed", obstruction_order=2, partial=seed)
        return solve(V, ring, seed, hbar_cutoff)

    monkeypatch.setattr(cli, "qme_solve_perturbative", solver)
    out = tmp_path / "r.json"
    code = run_cli("verify-representability", "theorem-first", str(FIXTURES / "sl2.alg"),
                   "--ring", str(FIXTURES / "ring-t3.alg"), "--seed", "5", "--instances", "3",
                   "--format", "machine", "--out", str(out))
    assert len(calls) == 3
    certs = {c["name"]: c for c in json.loads(out.read_text())["certificates"]}
    return code, certs["theorem-first-valid"]


def test_obstructed_theorem_first_seeds_are_skipped_not_valid(tmp_path, monkeypatch):
    # an obstructed seed has no solution to test: it is no valid instance
    code, valid = _theorem_first_valid(tmp_path, monkeypatch, {0, 1, 2})
    assert code == 1
    assert valid["status"] == "fail"
    assert valid["bounds"] == {"passed": 0, "skipped": 3, "total": 3}
    code, valid = _theorem_first_valid(tmp_path, monkeypatch, {1})
    assert code == 0
    assert valid["status"] == "pass"
    assert valid["bounds"] == {"passed": 2, "skipped": 1, "total": 3}


def test_verify_representability_unknown_variant_exits_2():
    proc = run_cli_capture("verify-representability", "no-such-theorem", "x.alg")
    assert proc.returncode == 2


RING3 = ["--ring", str(FIXTURES / "ring-t3.alg")]


@pytest.mark.parametrize("argv", [
    ["verify-representability", "quillen", "heis3.alg", *RING3],
    ["verify-representability", "corollary-bidg", "bidg4.alg", *RING3],
    ["verify-representability", "chuang-lazarev", "sl2.alg"],
    ["verify-representability", "theorem-first", "sl2.alg", *RING3],
    ["verify-representability", "theorem-second", "bidg4-dglie.alg"],
    ["identity-check", "big-formula", "sl2.alg", *RING3],
    ["identity-check", "qme-forms", "sl2.alg", *RING3],
], ids=lambda argv: argv[1])
def test_battery_without_instances_fails(argv, tmp_path):
    # a battery that tested nothing must not pass
    argv = [str(FIXTURES / a) if a.endswith(".alg") and "/" not in a else a for a in argv]
    out = tmp_path / "r.json"
    code = run_cli(*argv, "--instances", "0", "--format", "machine", "--out", str(out))
    assert code == 1
    certs = json.loads(out.read_text())["certificates"]
    assert certs and all(c["status"] == "fail" for c in certs)


def _scripted(tag, verdicts, log):
    """A battery callable that returns `verdicts` in turn and logs each call."""
    answers = iter(verdicts)

    def call(*args):
        log.append((tag, *args))
        return next(answers)

    return call


def _bounds(certs):
    return {c.name: ("pass" if c.ok else "fail", c.bound) for c in certs}


def test_battery_rows_show_their_time(capsys):
    # timing is in the human format only; each battery row times its own calls
    assert run_cli("verify-representability", "theorem-second", str(FIXTURES / "bidg4-dglie.alg"),
                   "--seed", "9", "--instances", "2") == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if "theorem-second-" in line]
    assert len(rows) == 2
    for row in rows:
        assert float(row.split("[")[1].split("ms]")[0]) > 0, row


def test_certify_rows_show_their_time(capsys):
    # certify() stamps each check with its own time, and the report shows it
    for argv in (("construct", "ce", str(FIXTURES / "sl2.alg"), "--trunc-words", "4"),
                 ("check", str(FIXTURES / "ce-l3demo.alg"))):
        assert run_cli(*argv) == 0
        rows = [line for line in capsys.readouterr().out.splitlines() if " order<=" in line]
        assert len(rows) == (2 if argv[0] == "construct" else 1)
        for row in rows:
            assert float(row.split("[")[1].split("ms]")[0]) > 0, row


def test_axiom_and_inclusion_rows_carry_their_time():
    # each axiom check and each inclusion check is timed where it is computed
    for name in ("heis3", "inv3", "bidg4", "two-target-bidg"):
        obj = parse_manifest(str(FIXTURES / f"{name}.alg")).obj
        results = obj.axiom_report()
        if isinstance(obj, BiDgLieData):
            results += bv_from_bi_dg_lie(obj, 4)[1]["inclusion"]
        assert len(results) == {"heis3": 3, "inv3": 5}.get(name, 9)
        for result in results:
            assert result.timing_ms > 0, (name, result.name)
    report = cli.cmd_check(cli.build_parser().parse_args(["check", str(FIXTURES / "nonassoc3.alg")]))
    cert, = [c for c in report.certificates if c.name.endswith("associativity")]
    assert cert.timing_ms > 0


def test_solver_rows_carry_their_time():
    # the solver times its seed check and its lift with the validation; the
    # report times the obstruction it recomputes
    for command, algebra, ring, seed in (("solve-qme", "lift3", "ring-t4", "3"),
                                         ("solve-qme", "obst2", "ring-t4", "1"),
                                         ("solve-mc", "lift3", "ring-t3", "11"),
                                         ("solve-mc", "obst2", "ring-t4", "1")):
        args = cli.build_parser().parse_args([command, str(FIXTURES / f"{algebra}.alg"),
                                              str(FIXTURES / f"{ring}.alg"), "--seed", seed])
        report = args.handler(args)
        names = {"seed-closed", "solution-verified"} | (set() if algebra == "lift3" else
                                                        {"obstruction-consistent"})
        assert {c.name for c in report.certificates} == names
        for cert in report.certificates:
            assert cert.timing_ms > 0, (command, algebra, cert.name)


def test_morphism_unimodular_ring_and_derived_bracket_rows_carry_their_time():
    # the last rows built in the CLI are timed where they are computed; a fast
    # row may still print 0.00 ms, so the time is read on the objects
    for argv, rows in ((["compose-morphisms", *(str(FIXTURES / f"ring-t{M}.alg") for M in (4, 3, 2))], 5),
                       (["identity-check", "unimodular-poisson"], 5),
                       (["check", str(FIXTURES / "ring-st.alg")], 1),
                       (["identity-check", "derived-brackets", str(FIXTURES / "ce-l3demo.alg"),
                         "--ring", str(FIXTURES / "ring-t3.alg")], 1)):
        args = cli.build_parser().parse_args(argv)
        report = args.handler(args)
        assert len(report.certificates) == rows
        for cert in report.certificates:
            assert cert.timing_ms > 0, (argv[0], cert.name)


def test_battery_tallies_hits_misses_and_skips():
    log = []
    certs = cli._battery("b", 4, _scripted("draw", [10, 11, 12, 13], log),
                         _scripted("valid", [True, False, None, True], log))
    assert _bounds(certs) == {"b": ("fail", {"passed": 2, "skipped": 1, "total": 4})}
    assert log == [("draw",), ("valid", 10), ("draw",), ("valid", 11),
                   ("draw",), ("valid", 12), ("draw",), ("valid", 13)]
    # skips do not fail a battery that has a hit and no miss
    certs = cli._battery("b", 3, _scripted("draw", [0, 1, 2], []),
                         _scripted("valid", [None, True, None], []))
    assert _bounds(certs) == {"b": ("pass", {"passed": 1, "skipped": 2, "total": 3})}


def test_battery_draws_corrupted_neighbours_until_a_verdict():
    log = []
    certs = cli._battery("b", 2, _scripted("draw", ["i", "j"], log),
                         _scripted("valid", [True, True], log),
                         _scripted("corrupted", [None, None, True, False], log))
    assert _bounds(certs) == {"b-valid": ("pass", {"passed": 2, "total": 2}),
                              "b-corrupted-detected": ("fail", {"detected": 1, "total": 2})}
    # detected on the third attempt, then missed on the first
    assert log == [("draw",), ("valid", "i"), *[("corrupted", "i")] * 3,
                   ("draw",), ("valid", "j"), ("corrupted", "j")]


def test_battery_skips_an_instance_after_ten_undecided_neighbours():
    log = []
    verdicts = [None] * cli.CORRUPTION_ATTEMPTS + [None] * (cli.CORRUPTION_ATTEMPTS - 1) + [True]
    certs = cli._battery("b", 2, _scripted("draw", [0, 1], []), lambda inst: True,
                         _scripted("corrupted", verdicts, log))
    assert cli.CORRUPTION_ATTEMPTS == 10
    assert len(log) == 20
    assert _bounds(certs)["b-corrupted-detected"] == ("pass", {"detected": 1, "skipped": 1,
                                                               "total": 2})
    certs = cli._battery("b", 1, lambda: 0, lambda inst: True, lambda inst: None)
    assert _bounds(certs)["b-corrupted-detected"] == ("fail", {"detected": 0, "skipped": 1,
                                                               "total": 1})


def test_battery_calls_a_bool_only_corruption_once_per_instance():
    log = []
    certs = cli._battery("b", 3, _scripted("draw", [0, 1, 2], []), lambda inst: True,
                         _scripted("corrupted", [True, True, True], log))
    assert log == [("corrupted", 0), ("corrupted", 1), ("corrupted", 2)]
    assert _bounds(certs)["b-corrupted-detected"] == ("pass", {"detected": 3, "total": 3})


def test_battery_without_instances_tests_nothing_and_fails():
    def never(*args):
        raise AssertionError("no instance to draw or check")

    assert _bounds(cli._battery("b", 0, never, never)) == {
        "b": ("fail", {"passed": 0, "total": 0})}
    assert _bounds(cli._battery("b", 0, never, never, never)) == {
        "b-valid": ("fail", {"passed": 0, "total": 0}),
        "b-corrupted-detected": ("fail", {"detected": 0, "total": 0})}


def test_construct_ce_of_an_linfty_algebra(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("construct", "ce", str(FIXTURES / "l3demo.alg"),
                   "--trunc-words", "4", "--format", "machine", "--out", str(out)) == 0
    names = {c["name"] for c in json.loads(out.read_text())["certificates"]}
    assert "Delta_3 order<=3" in names


def test_compose_morphisms_takes_one_convolution_log(monkeypatch):
    from mastereq import morphisms
    conv_log = morphisms.conv_log
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return conv_log(*args, **kwargs)

    monkeypatch.setattr(morphisms, "conv_log", counted)
    rings = [str(FIXTURES / f"ring-t{m}.alg") for m in (4, 3, 2)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_cli("compose-morphisms", *rings, "--format", "machine") == 0
    assert json.loads(out.getvalue())["status"] == "pass"
    assert len(calls) == 1


def test_python_dash_m_mastereq_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-m", "mastereq", "check", "fixtures/heis3.alg",
                           "fixtures/ring-t3.alg", "--format", "machine"],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "pass"


def test_operation_coverage_registry():
    # every kernel operation maps to exactly one command, and every command
    # named in the dispatcher is real
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
    commands = set(sub.choices)
    assert set(cli.OPERATION_COMMANDS.values()) <= commands
    # every key names a function, or Class.method, of some mastereq module
    modules = [importlib.import_module(f"mastereq.{info.name}")
               for info in pkgutil.iter_modules(mastereq.__path__) if info.name != "__main__"]

    def resolves(key, module):
        try:
            return callable(functools.reduce(getattr, key.split("."), module))
        except AttributeError:
            return False

    stale = [key for key in cli.OPERATION_COMMANDS
             if not any(resolves(key, module) for module in modules)]
    assert not stale
    # exactly one command per operation is what a dict enforces; spot check a few
    assert cli.OPERATION_COMMANDS["qme_exp_check"] == "identity-check"
    assert cli.OPERATION_COMMANDS["compose_with_log_residue"] == "compose-morphisms"


def _spy_operations(monkeypatch, keys, record):
    """Wrap each operation so that a call runs `record(key)` first: a method
    on the class that defines it, a function in every mastereq namespace that
    binds it, as the benchmark's tracer wraps its layer functions."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "mastereq" or name.startswith("mastereq."))]

    def spy(key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record(key)
            return fn(*args, **kwargs)
        return wrapper

    for key in keys:
        if "." in key:
            cls_name, attr = key.split(".")
            cls = next(getattr(m, cls_name) for m in modules if hasattr(m, cls_name))
            monkeypatch.setattr(cls, attr, spy(key, cls.__dict__[attr]))
            continue
        original = next(getattr(m, key) for m in modules if callable(getattr(m, key, None)))
        wrapper = spy(key, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)


def test_every_listed_operation_is_called_by_its_command(monkeypatch, tmp_path):
    # the registry is a claim: the golden invocations of each command, run
    # with every listed operation spied, call each operation listed under it
    from test_golden_reports import COMMANDS, run_case
    monkeypatch.chdir(ROOT)
    called: set[str] = set()
    _spy_operations(monkeypatch, cli.OPERATION_COMMANDS, called.add)
    reached = set()
    for _, argv in COMMANDS:
        called.clear()
        run_case(argv, tmp_path / "emitted.alg")
        reached |= {(key, argv[0]) for key in called}
    missing = sorted(key for key, cmd in cli.OPERATION_COMMANDS.items() if (key, cmd) not in reached)
    assert not missing


def Frac(n):
    from fractions import Fraction
    return Fraction(n)


# Each subcommand parses --format, --out and only the flags its handler reads.
SUBCOMMAND_OPTIONS = {
    "check": {"--trunc-words"},
    "construct": {"--trunc-words", "--hbar-cutoff", "--emit"},
    "solve-mc": {"--seed"},
    "solve-qme": {"--trunc-words", "--hbar-cutoff", "--seed"},
    "verify-representability": {"--trunc-words", "--hbar-cutoff", "--seed", "--instances", "--ring"},
    "compose-morphisms": {"--hbar-cutoff"},
    "identity-check": {"--trunc-words", "--hbar-cutoff", "--seed", "--instances", "--ring"},
}

# (argv up to the options, a flag with a value that the handler does not read)
UNREAD_FLAGS = [
    (["check", "heis3.alg"], ["--hbar-cutoff", "9"]),
    (["check", "heis3.alg"], ["--seed", "5"]),
    (["check", "heis3.alg"], ["--instances", "0"]),
    (["construct", "ce", "sl2.alg"], ["--seed", "3"]),
    (["construct", "ce", "sl2.alg"], ["--instances", "0"]),
    (["construct", "ce", "sl2.alg"], ["--coproduct", "trivial"]),
    (["solve-mc", "lift3.alg", "ring-t3.alg"], ["--trunc-words", "2"]),
    (["solve-mc", "lift3.alg", "ring-t3.alg"], ["--hbar-cutoff", "9"]),
    (["solve-mc", "lift3.alg", "ring-t3.alg"], ["--instances", "0"]),
    (["solve-qme", "sl2.alg", "ring-t3.alg"], ["--instances", "0"]),
    (["compose-morphisms", "ring-t4.alg", "ring-t3.alg", "ring-t2.alg"], ["--trunc-words", "1"]),
    (["compose-morphisms", "ring-t4.alg", "ring-t3.alg", "ring-t2.alg"], ["--seed", "3"]),
    (["compose-morphisms", "ring-t4.alg", "ring-t3.alg", "ring-t2.alg"], ["--instances", "0"]),
]


def _fixture_argv(argv):
    return [str(FIXTURES / a) if a.endswith(".alg") else a for a in argv]


def test_each_subcommand_parses_only_the_flags_its_handler_reads():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: {s for action in p._actions for s in action.option_strings
                  if s not in ("-h", "--help", "--format", "--out")}
           for name, p in sub.choices.items()}
    assert got == SUBCOMMAND_OPTIONS


@pytest.mark.parametrize("argv,flag", UNREAD_FLAGS, ids=lambda v: "-".join(v[:1]))
def test_a_flag_the_handler_does_not_read_is_a_usage_error(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*_fixture_argv(argv), *flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["construct", "ce", "sl2.alg"], "--trunc-words 0"),
    (["construct", "ce", "l3demo.alg"], "--hbar-cutoff -1"),
    (["solve-qme", "sl2.alg", "ring-t3.alg"], "--hbar-cutoff 0"),
], ids=["trunc-words-0", "hbar-cutoff-minus-1", "solve-qme-hbar-cutoff-0"])
def test_a_window_below_one_is_a_usage_error_naming_the_flag(argv, flag, capsys):
    name, value = flag.split()
    with pytest.raises(SystemExit) as exc:
        run_cli(*_fixture_argv(argv), name, value)
    assert exc.value.code == 2
    assert f"argument {name}: expected an integer >= 1, got '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("name,kind", [
    ("heis3", "dg-lie"), ("inv3", "lie-bialgebra"), ("bidg4", "bi-dg-lie"),
    ("nonassoc3", "associative"), ("ring-t3", "artin-ring"), ("ce-heis3", "bv"),
    ("ce-l3demo", "bv-infty"),
])
def test_check_refuses_trunc_words_for_a_kind_that_does_not_read_it(name, kind, capsys):
    # only an L-infinity manifest's D-squared row has a word-length window
    assert run_cli("check", str(FIXTURES / f"{name}.alg"), "--trunc-words", "2") == 1
    err = capsys.readouterr().err
    assert "check --trunc-words is read only by linfty manifests" in err
    assert f"is a {kind} manifest" in err


# (argv, a flag that variant of the command does not read, the variants that read it)
REFUSED_FLAGS = [
    *[(["verify-representability", theorem, algebra, *ring], "--trunc-words", "theorem-first")
      for theorem, algebra, ring in (("quillen", "heis3.alg", ["--ring", "ring-t3.alg"]),
                                     ("chuang-lazarev", "sl2.alg", []),
                                     ("theorem-second", "bidg4-dglie.alg", []),
                                     ("corollary-bidg", "bidg4.alg", ["--ring", "ring-t3.alg"]))],
    *[(["verify-representability", theorem, algebra], "--ring",
       "quillen, theorem-first, corollary-bidg")
      for theorem, algebra in (("chuang-lazarev", "sl2.alg"), ("theorem-second", "bidg4-dglie.alg"))],
    *[(["verify-representability", theorem, "heis3.alg", *ring], "--hbar-cutoff",
       "theorem-first, theorem-second, corollary-bidg")
      for theorem, ring in (("quillen", ["--ring", "ring-t3.alg"]), ("chuang-lazarev", []))],
    *[(["construct", recipe, algebra], "--hbar-cutoff", "ce on linfty manifests")
      for recipe, algebra in (("ce", "sl2.alg"), ("ibl", "noninv2.alg"), ("bi-dg", "bidg4.alg"),
                              ("ttw", "nonassoc3.alg"))],
]


@pytest.mark.parametrize("argv,flag,read_by", REFUSED_FLAGS,
                         ids=[f"{argv[1]}{flag}" for argv, flag, _ in REFUSED_FLAGS])
def test_a_flag_the_variant_does_not_read_is_refused(argv, flag, read_by, capsys):
    # the report would be the same without the flag; the error names the
    # flag, the variants that read it and the one that was run
    value = str(FIXTURES / "ring-t4.alg") if flag == "--ring" else "2"
    assert run_cli(*_fixture_argv(argv), flag, value, "--format", "machine") == 1
    out, err = capsys.readouterr()
    assert not out
    assert f"error: {argv[0]} {flag} is read only by {read_by}; " in err
    assert argv[1] in err.split("; ")[1]


def test_the_variants_that_read_a_flag_accept_it(tmp_path):
    # theorem-first reads all three verify flags; construct ce reads --hbar-cutoff on L-infinity
    argv = ["verify-representability", "theorem-first", "sl2.alg", "--ring", "ring-t3.alg",
            "--instances", "2", "--seed", "3"]
    assert run_cli(*_fixture_argv(argv), "--trunc-words", "4", "--hbar-cutoff", "3",
                   "--out", str(tmp_path / "a.txt")) == 0
    out = tmp_path / "ce.json"
    assert run_cli("construct", "ce", str(FIXTURES / "l3demo.alg"), "--hbar-cutoff", "2",
                   "--format", "machine", "--out", str(out)) == 0
    assert '"hbar_cutoff": 2' in out.read_text()


def test_check_reads_trunc_words_of_an_linfty_manifest(tmp_path):
    argv = ["check", str(FIXTURES / "l3demo.alg"), "--format", "machine", "--out"]
    default, cut = tmp_path / "default.json", tmp_path / "cut.json"
    assert run_cli(*argv, str(default)) == 0
    assert run_cli(*argv, str(cut), "--trunc-words", "2") == 0
    assert '"word_length": 2' in cut.read_text() and '"word_length": 2' not in default.read_text()


@pytest.mark.parametrize("flavor", ["tensor", ["tensor"]], ids=["string", "list"])
def test_bv_manifest_refuses_a_flavor_block(flavor):
    doc = json.loads((FIXTURES / "ce-heis3.alg").read_text())
    doc["structure"]["flavor"] = flavor
    with pytest.raises(ManifestError, match="unknown structure blocks: \\['flavor'\\]"):
        parse_manifest_text(json.dumps(doc), "flavored")


def test_derived_brackets_identity_needs_no_ring(tmp_path):
    argv = ["identity-check", "derived-brackets", str(FIXTURES / "l3demo.alg"),
            "--format", "machine", "--out"]
    without, with_ring = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(*argv, str(without)) == 0
    assert run_cli(*argv, str(with_ring), "--ring", str(FIXTURES / "ring-t3.alg")) == 0
    assert without.read_bytes() == with_ring.read_bytes()


def test_bv_infty_manifest_refuses_an_hbar_cutoff_below_one():
    doc = json.loads((FIXTURES / "ce-l3demo.alg").read_text())
    doc["truncation"]["hbar_cutoff"] = 0
    with pytest.raises(ManifestError, match="hbar cutoff must be >= 1"):
        parse_manifest_text(json.dumps(doc), "no-hbar")


def _solve_qme_window(tmp_path, algebra, *flags) -> int:
    out = tmp_path / "report.json"
    assert run_cli("solve-qme", str(algebra), str(FIXTURES / "ring-t3.alg"), "--seed", "1",
                   "--format", "machine", "--out", str(out), *flags) == 0
    certs = json.loads(out.read_text())["certificates"]
    return next(c for c in certs if c["name"] == "solution-verified")["bounds"]["hbar_cutoff"]


def test_a_bv_infty_window_is_the_flag_else_the_declared_one(tmp_path):
    doc = json.loads((FIXTURES / "ce-l3demo.alg").read_text())
    doc["truncation"]["hbar_cutoff"] = 2
    declared = tmp_path / "ce-l3demo-k2.alg"
    declared.write_text(json.dumps(doc))
    assert _solve_qme_window(tmp_path, declared) == 2
    assert _solve_qme_window(tmp_path, declared, "--hbar-cutoff", "4") == 4
    assert _solve_qme_window(tmp_path, FIXTURES / "ce-l3demo.alg", "--hbar-cutoff", "4") == 4
    assert _solve_qme_window(tmp_path, FIXTURES / "sl2.alg") == 3
