"""mastereq benchmark: one workload, one process, one caller in a closed loop.

    python3 perfbench/run.py --workload cli-fixtures --seed 1 --seconds 30 --trace 0

Run from the repository root.  The run imports mastereq from ``src/``, sets the
workload up five times (a fresh import of mastereq plus everything the
workload builds and certifies once), runs one untimed warm-up cycle, and
then times whole cycles of operations until ``--seconds`` have passed and at
least 100 operations were timed.  Every operation's result is checked.

``--trace 0`` reports the end-to-end metrics (ops_per_s, op_p50_ms, op_p90_ms,
setup_s, peak_rss_mb).  ``--trace 1`` instead repeats one fixed cycle untraced
for half of ``--seconds``, then runs the same cycle once with every function
of ``layers.json`` wrapped, and reports the per-layer metrics: calls and self
time per function, self time per layer, the growth metrics and the tracing
overhead.  Growth metrics that a workload cannot measure read 0.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  ``failed`` counts wrong verdicts: a wrong
result, or an exception that the operation may not raise.  An operation that
raises an exception its workload expects (``TruncationOverflow`` on the
window-edge rungs of ring-ladder) has the required outcome at this commit: it
is not counted in ``failed``, but it has no result, so it is left out of the
latencies and of ``ops_per_s``, and it shows in ``fail_ratio`` (printed and
in the record) and, traced, in ``words.TruncationOverflow.raised``.  A full record, with the environment, goes to
``perfbench/results/``; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import collections
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
MIN_TIMED_OPS = 100
DEADLINE_S = 150.0  # after this many seconds of run() no cycle starts, so a run ends within 180 s
E2E_UNITS = {"ops_per_s": "op/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s",
             "peak_rss_mb": "MB"}
MEASUREMENT_LIMITS = [
    "no page-cache drop: manifests and bytecode may be read from a warm cache",
    "no CPU pinning and no control of frequency scaling",
    "no isolation from other processes on the host",
    "clocks and counters of this process only: time.perf_counter and getrusage(RUSAGE_SELF)",
    "one process, one caller, closed loop; QME_KERNEL_THREADS left as found",
]


@dataclass
class Outcome:
    name: str
    tags: dict
    seconds: float
    error: str | None = None
    problem: str | None = None
    watch: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Completed with the required verdict; only these enter the latencies."""
        return self.error is None and self.problem is None

    @property
    def failed(self) -> bool:
        """Wrong verdict: a wrong result, or an exception the operation may not raise."""
        return self.problem is not None

    @property
    def verdict(self) -> str:
        if self.problem is not None:
            return f"wrong: {self.problem}"
        return f"raised {self.error}" if self.error is not None else "ok"


def fresh_import():
    """Import mastereq as a new process would, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "mastereq" or m.startswith("mastereq.")]:
        del sys.modules[name]
    importlib.import_module("mastereq")


def run_cycle(ops, tracer=None, watch=()) -> list[Outcome]:
    clock = time.perf_counter
    out = []
    for op in ops:
        before = {k: tracer.calls[k] for k in watch} if tracer else {}
        if tracer:
            tracer.op = op.name
            tracer.active = True
        error = result = None
        start = clock()
        try:
            result = op.call()
        except Exception as exc:  # a raising operation has no result; keep going
            error = type(exc).__name__
        elapsed = clock() - start
        outcome = Outcome(op.name, op.tags, elapsed, error)
        if tracer:
            tracer.active = False
            outcome.watch = {k: tracer.calls[k] - before[k] for k in watch}
        if error is not None:
            # a wrong verdict unless the workload expects this operation to raise it
            if error not in op.may_raise:
                outcome.problem = f"raised {error}"
        else:
            try:
                outcome.problem = op.check(result)
            except Exception as exc:  # the result could not be verified: a wrong verdict
                outcome.problem = f"{type(exc).__name__} raised in check"
        out.append(outcome)
    return out


def quantile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result with a ``details`` record."""
    from workloads import WORKLOADS, Modules

    clock = time.perf_counter
    deadline = clock() + DEADLINE_S
    os.chdir(ROOT)  # commands name fixtures/ relative to the root, as a user types them
    workload = WORKLOADS[workload_name]()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        fresh_import()
        workload.setup(Modules(), seed)
        setup_times.append(clock() - t0)

    rng = random.Random(seed)
    t0 = clock()
    warmup = run_cycle(workload.cycle(rng))
    details = {"setup_times_s": setup_times, "warmup_s": clock() - t0,
               "warmup_failures": _failures(warmup)}
    if trace:
        outcomes, metrics, wrong = _traced_run(workload, seed, seconds, deadline, details)
    else:
        outcomes, metrics, wrong = _timed_run(workload, rng, seconds, deadline, details)
        metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": E2E_UNITS["setup_s"]}
    wrong = [(o.name, o.problem) for o in warmup if o.problem is not None] + wrong
    details["wrong_verdicts"] = wrong[:20]
    return {"correct": not wrong, "attempted": len(outcomes),
            "failed": sum(o.failed for o in outcomes), "metrics": metrics, "details": details}


def _timed_run(workload, rng, seconds, deadline, details):
    """Whole cycles until ``seconds`` have passed and enough operations were timed."""
    clock = time.perf_counter
    timed: list[Outcome] = []
    cycles = 0
    t0 = clock()
    while True:
        timed += run_cycle(workload.cycle(rng))
        cycles += 1
        now = clock()
        if (now - t0 >= seconds and len(timed) >= MIN_TIMED_OPS) or now >= deadline:
            break
    ok = [o for o in timed if o.ok]
    if not ok:
        raise RuntimeError(f"no operation of {workload.name} succeeded: {_failures(timed)}")
    busy = sum(o.seconds for o in timed)
    latencies = sorted(o.seconds * 1000.0 for o in ok)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    values = {
        "ops_per_s": len(ok) / busy,
        "op_p50_ms": quantile(latencies, 0.5),
        "op_p90_ms": quantile(latencies, 0.9),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    details.update({
        "fail_ratio": (len(timed) - len(ok)) / len(timed), "cycles": cycles,
        "timed_wall_s": clock() - t0, "busy_s": busy, "samples": len(latencies),
        "cpu_user_s": usage.ru_utime, "cpu_system_s": usage.ru_stime,
        "failures": _failures(timed), "medians_ms": _medians_by_name(timed),
    })
    wrong = [(o.name, o.problem) for o in timed if o.problem is not None]
    return timed, {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}, wrong


def _traced_run(workload, seed, seconds, deadline, details):
    """One fixed cycle, repeated untraced for half of ``seconds``, then once traced."""
    import tracer as tracing

    clock = time.perf_counter
    layers = tracing.load_layers()
    ops = workload.cycle(random.Random(f"trace/{seed}"))
    reference: list[list[Outcome]] = []
    t0 = clock()
    while not reference or (clock() - t0 < seconds / 2 and clock() < deadline):
        reference.append(run_cycle(ops))
    tracer = tracing.Tracer(observe={
        "operators.operator_order_check": lambda r: r.bound.get("checked", 0)})
    bindings = tracer.install(layers)
    try:
        # inputs are generated untraced: only the timed calls count towards the layers
        traced_ops = workload.cycle(random.Random(f"trace/{seed}"))
        traced = run_cycle(traced_ops, tracer, workload.watch)
    finally:
        tracer.uninstall()
    spans_path = HERE / "results" / f"spans_{workload.name}_seed{seed}.json"
    tracer.write_spans(spans_path)

    wrong = [(o.name, o.problem) for r in reference for o in r if o.problem is not None]
    wrong += [(o.name, o.problem) for o in traced if o.problem is not None]
    untraced_verdicts = [[(o.name, o.verdict) for o in r] for r in reference]
    traced_verdicts = [(o.name, o.verdict) for o in traced]
    verdicts_match = all(v == traced_verdicts for v in untraced_verdicts)
    if not verdicts_match:
        wrong.append(("traced pass", "verdicts differ from the untraced pass"))
    untraced_busy = statistics.median(sum(o.seconds for o in r) for r in reference)
    traced_busy = sum(o.seconds for o in traced)
    metrics = _per_layer_metrics(layers, tracer, reference, traced, untraced_busy / traced_busy)
    details.update({
        "reference_cycles": len(reference), "untraced_cycle_busy_s": untraced_busy,
        "traced_cycle_busy_s": traced_busy, "bindings": bindings,
        "spans_recorded": len(tracer.spans), "spans_skipped": tracer.skipped,
        "spans_file": str(spans_path.relative_to(ROOT)), "failures": _failures(traced),
        "verdicts_match": verdicts_match, "verdicts": traced_verdicts,
        "untraced_verdicts": untraced_verdicts[0],
    })
    return traced, metrics, wrong


def _failures(outcomes: list[Outcome]) -> dict:
    """Operations without a result or with a wrong verdict, by exception type (or
    'wrong verdict'), each with its first name."""
    out: dict[str, dict] = {}
    for o in outcomes:
        if o.ok:
            continue
        kind = o.error or "wrong verdict"
        entry = out.setdefault(kind, {"count": 0, "first": o.name})
        entry["count"] += 1
    return out


def _medians_by_name(outcomes: list[Outcome]) -> dict:
    """Median latency and sample count of each operation that succeeded."""
    by_name = collections.defaultdict(list)
    for o in outcomes:
        if o.ok:
            by_name[o.name].append(o.seconds * 1000.0)
    return {k: {"median_ms": statistics.median(v), "n": len(v)} for k, v in sorted(by_name.items())}


def _per_layer_metrics(layers, tracer, reference, traced, overhead_ratio) -> dict:
    from tracer import function_table

    metrics = {}
    layer_self = collections.defaultdict(float)
    for layer, _, key, _ in function_table(layers):
        metrics[f"{key}.calls"] = {"value": tracer.calls[key], "unit": "count"}
        metrics[f"{key}.self_s"] = {"value": tracer.self_s[key], "unit": "s"}
        layer_self[layer] += tracer.self_s[key]
    for layer in layers:
        metrics[f"{layer}.self_s"] = {"value": layer_self[layer], "unit": "s"}
    metrics["bv.dhat.calls_growth_M"] = {"value": _dhat_growth(traced), "unit": "ratio"}
    metrics["operators.operator_order_check.time_exponent_words"] = {
        "value": _word_exponent(reference), "unit": "slope"}
    metrics["operators.operator_order_check.checked"] = {
        "value": tracer.observed.get("operators.operator_order_check", 0), "unit": "count"}
    metrics["words.TruncationOverflow.raised"] = {
        "value": sum(o.error == "TruncationOverflow" for o in traced), "unit": "count"}
    metrics["trace.overhead_ratio"] = {"value": overhead_ratio, "unit": "ratio"}
    return metrics


def _dhat_growth(traced: list[Outcome]) -> float:
    """Geometric mean over consecutive M of the ratio of dhat calls per residual."""
    per_m = collections.defaultdict(list)
    for o in traced:
        if o.tags.get("kind") == "residual" and o.ok:
            per_m[o.tags["M"]].append(o.watch["bv.BVInftyAlgebra.dhat"])
    means = {m: statistics.mean(v) for m, v in per_m.items()}
    ratios = [means[m + 1] / means[m] for m in sorted(means) if m + 1 in means and means[m]]
    return statistics.geometric_mean(ratios) if ratios else 0.0


def _word_exponent(reference: list[list[Outcome]]) -> float:
    """Least-squares slope of log(median certify time) against log(word count)."""
    times = collections.defaultdict(list)
    for cycle in reference:
        for o in cycle:
            if o.tags.get("kind") == "positive" and o.ok:
                times[o.tags["words"]].append(o.seconds)
    if len(times) < 2:
        return 0.0
    xs = [math.log(w) for w in sorted(times)]
    ys = [math.log(statistics.median(times[w])) for w in sorted(times)]
    mx, my = statistics.mean(xs), statistics.mean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def git_commit() -> str | None:
    """The checked-out commit, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "seed": seed,
        "QME_KERNEL_THREADS": os.environ.get("QME_KERNEL_THREADS"),
        "measurement_limits": MEASUREMENT_LIMITS,
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mastereq" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"perfbench: {ROOT} holds no mastereq source tree (src/mastereq, fixtures/)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment(args.seed)
    record = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  environment=env)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    path = results / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    details = result["details"]
    print("environment " + json.dumps(env, sort_keys=True))
    if not args.trace:
        parts = [f"{k}={m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()]
        parts.append(f"fail_ratio={details['fail_ratio']:.6g} 1")
        print(f"{args.workload} seed={args.seed}: " + " | ".join(parts)
              + f" | samples={details['samples']} of {result['attempted']} attempted")
    else:
        print(f"{args.workload} seed={args.seed} traced: overhead_ratio="
              f"{result['metrics']['trace.overhead_ratio']['value']:.4g}, "
              f"spans kept={details['spans_recorded']}, not kept={details['spans_skipped']}")
    if details["failures"]:
        print("operations without a result: " + json.dumps(details["failures"], sort_keys=True))
    if details["wrong_verdicts"]:
        print("wrong verdicts: " + json.dumps(details["wrong_verdicts"]))
    print(f"full record: {path.relative_to(ROOT)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
