"""Checks of the benchmark itself: the tracer wraps every function of the layer
table in every namespace that binds it, each wrapped function is called on
the workload the table names for it, a traced pass gives the same verdicts
(and, on cli-fixtures, the same machine bytes) as the untraced pass, and call
counts repeat exactly.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench  # noqa: E402
from tracer import Tracer, function_table, load_layers  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

LAYERS = load_layers()
SEED = 7
_traced: dict[str, dict] = {}


def traced_run(workload: str) -> dict:
    if workload not in _traced:
        _traced[workload] = bench.run(workload, SEED, 1.0, True)
    return _traced[workload]


def _mastereq_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "mastereq" or name.startswith("mastereq."))]


def test_tracer_replaces_every_binding_and_restores_it():
    bench.fresh_import()
    originals = {}
    for layer, name, key, _ in function_table(LAYERS):
        module = importlib.import_module(f"mastereq.{layer}")
        if "." in name:
            cls, attr = name.split(".")
            originals[key] = (getattr(module, cls), attr, getattr(module, cls).__dict__[attr])
        else:
            originals[key] = (None, name, getattr(module, name))
    functions = {id(fn) for owner, _, fn in originals.values() if owner is None}
    tracer = Tracer()
    bindings = tracer.install(LAYERS)
    try:
        for mod in _mastereq_modules():
            left = [attr for attr, value in vars(mod).items() if id(value) in functions]
            assert not left, f"{mod.__name__} still binds unwrapped {left}"
        for key, (owner, attr, raw) in originals.items():
            assert bindings[key] >= 1, key
            if owner is not None:
                assert owner.__dict__[attr] is not raw, key
        ops = sys.modules["mastereq.operators"]
        assert sys.modules["mastereq.bv"].operator_order_check is ops.operator_order_check
        assert bindings["operators.operator_order_check"] >= 2
    finally:
        tracer.uninstall()
    for key, (owner, attr, raw) in originals.items():
        if owner is not None:
            assert owner.__dict__[attr] is raw, key
    for mod in _mastereq_modules():
        for attr, value in vars(mod).items():
            if isinstance(value, types.FunctionType):
                assert not hasattr(value, "__wrapped__"), f"{mod.__name__}.{attr}"


def test_an_unexpected_exception_is_a_wrong_verdict():
    def boom():
        raise ValueError("boom")

    outcomes = bench.run_cycle([
        Op("expected failure", boom, lambda r: None, may_raise=("ValueError",)),
        Op("unexpected failure", boom, lambda r: None),
        Op("unverifiable result", lambda: "not json", lambda r: json.loads(r) and None),
        Op("right result", lambda: "{}", lambda r: json.loads(r) or None),
    ])
    assert [o.ok for o in outcomes] == [False, False, False, True]
    assert [o.failed for o in outcomes] == [False, True, True, False]
    assert [o.problem for o in outcomes] == [
        None, "raised ValueError", "JSONDecodeError raised in check", None]


def test_each_function_is_called_on_a_workload_the_table_names():
    silent = [(key, workloads) for _, _, key, workloads in function_table(LAYERS)
              if not any(traced_run(w)["metrics"][f"{key}.calls"]["value"] for w in workloads)]
    assert not silent, f"no calls where the layer table expects them: {silent}"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_pass_agrees_with_untraced_pass(workload):
    result = traced_run(workload)
    details = result["details"]
    assert details["verdicts_match"]
    assert details["verdicts"] == details["untraced_verdicts"]
    # on cli-fixtures every check also compares the machine report with the warm-up bytes
    assert result["correct"], details["wrong_verdicts"]


def test_every_listed_metric_is_reported():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in sorted(WORKLOADS):
        got = {k: m["unit"] for k, m in traced_run(workload)["metrics"].items()}
        assert got == wanted, workload
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_growth_metrics_measure_their_ladders():
    ring = traced_run("ring-ladder")["metrics"]
    assert ring["bv.dhat.calls_growth_M"]["value"] > 1.0
    ladder = traced_run("certify-ladder")["metrics"]
    assert ladder["operators.operator_order_check.time_exponent_words"]["value"] > 0.0
    assert ladder["operators.operator_order_check.checked"]["value"] > 0
    for workload in sorted(WORKLOADS):
        assert 0.0 < traced_run(workload)["metrics"]["trace.overhead_ratio"]["value"]


def test_call_counts_repeat_exactly():
    first = traced_run("cli-fixtures")["metrics"]
    second = bench.run("cli-fixtures", SEED, 1.0, True)["metrics"]
    counts = [k for k in first if k.endswith(".calls")]
    assert [first[k]["value"] for k in counts] == [second[k]["value"] for k in counts]


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "cli-fixtures",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
