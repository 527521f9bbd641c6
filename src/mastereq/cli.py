"""Command-line front end: manifest ingestion, batteries, certificates.

Commands mirror the kernel surface one-to-one (see OPERATION_COMMANDS):
`check` certifies the axioms of any manifest, `construct` builds and
certifies the example complexes, the solvers lift seeded random first-order
solutions, `verify-representability` runs the bijection batteries, and
`identity-check` replays the operator identities on seeded random elements.
Exit code 0 means every certificate passed, 1 means some certificate failed
or an input was invalid, 2 is a usage error.  Machine-format reports are
byte-identical for identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import random
import sys
import time
from typing import Callable

from .artin import ArtinLocalAlgebra
from .bv import (
    BVAlgebra,
    BVInftyAlgebra,
    bvinfty_qme_residual,
    conjugation_identity_check,
    derived_brackets_linfty_check,
    qme_exp_check,
    qme_linear_part,
    qme_solve_perturbative,
)
from .certify import Report, run_battery
from .coalgebra import CoalgebraMorphism, coproduct_defect
from .constructions import (
    AssociativeAlgebraData,
    BiDgLieData,
    LieBialgebraData,
    bar_bv_from_associative,
    bv_from_bi_dg_lie,
    ce_bv_from_dg_lie,
    ce_bv_from_ibl,
    ce_bvinfty_from_linfty,
    corollary_bidg_check,
)
from .diagnostics import CheckResult, ManifestError, MasterEqError, PreconditionError, timed
from .graded import ONE
from .linfty import (
    DgLieAlgebra,
    LInftyAlgebra,
    chuang_lazarev_morphism_defect,
    chuang_lazarev_residual,
    coderivation_dg_lie,
    deformed_bracket_check,
    emce_residual,
    mc_exp_map,
    mc_linear_part,
    mc_solve_perturbative,
    quillen_bijection_check,
)
from .manifest import Manifest, emit_manifest, parse_manifest, parse_manifest_text
from .morphisms import (
    check_bv_morphism,
    compose_with_log_residue,
    ring_map_to_bv_morphism,
    theorem_first_bijection_check,
    theorem_second_bijection_check,
    twisted_linfty_morphism,
)
from .multivectors import Polyvector, polyvector_fields, unimodular_poisson_check
from .sampling import random_mc_element, random_qme_element
from .series import HbarSeries, SolveResult, closed_seed
from .words import TruncationOverflow

# Each kernel operation with the one command it is listed under; each key names
# a function or Class.method of a mastereq module.  The test suite resolves every
# key and checks that the golden runs of its command call it.
OPERATION_COMMANDS = {
    "GradedVectorSpace.shift": "check",
    "koszul_sign": "verify-representability",
    "WordAlgebra.coproduct": "verify-representability",
    "Coderivation.expand": "check",
    "LInftyAlgebra.square_zero_rows": "check",
    "convolve": "verify-representability",
    "conv_exp": "verify-representability",
    "CoalgebraMorphism.induced": "verify-representability",
    "conv_log": "compose-morphisms",
    "emce_residual": "solve-mc",
    "deformed_bracket_check": "verify-representability",
    "quillen_bijection_check": "verify-representability",
    "mc_exp_map": "verify-representability",
    "chuang_lazarev_residual": "verify-representability",
    "mc_solve_perturbative": "solve-mc",
    "operator_order_check": "check",
    "antibracket": "construct",
    "derived_bracket": "identity-check",
    "derived_brackets_linfty_check": "identity-check",
    "qme_residual": "solve-qme",
    "qme_exp_check": "identity-check",
    "conjugation_identity_check": "identity-check",
    "bvinfty_qme_residual": "solve-qme",
    "qme_solve_perturbative": "solve-qme",
    "unimodular_poisson_check": "identity-check",
    "ce_bv_from_dg_lie": "construct",
    "ce_bv_from_ibl": "construct",
    "bv_from_bi_dg_lie": "construct",
    "bar_bv_from_associative": "construct",
    "qm_bidg_residual": "verify-representability",
    "check_bv_morphism": "compose-morphisms",
    "compose_with_log_residue": "compose-morphisms",
    "clalg_embed": "compose-morphisms",
    "ring_map_to_bv_morphism": "compose-morphisms",
    "theorem_first_bijection_check": "verify-representability",
    "theorem_second_bijection_check": "verify-representability",
    "linfty_morphism_to_bvinfty": "verify-representability",
    "parse_manifest": "check",
}

# The theorems of verify-representability that read each flag; each of the
# others fixes its own window or needs no ring, and refuses the flag.
VERIFY_FLAG_READERS = {
    "--trunc-words": ("theorem-first",),
    "--hbar-cutoff": ("theorem-first", "theorem-second", "corollary-bidg"),
    "--ring": ("quillen", "theorem-first", "corollary-bidg"),
}

DEFAULT_INSTANCES = 20
CORRUPTION_ATTEMPTS = 10  # corrupted neighbours drawn per battery instance


def main(argv=None) -> int:
    """Run one command; returns the exit code.

    `main` may be called any number of times in one process.  The parser is
    built on the first call and shared read-only by every later one, since
    `parse_args` leaves it unchanged and returns a fresh namespace.  So
    in-process callers (scripts, the golden-report tests, the benchmark)
    pay for the build once; a one-shot `python -m mastereq` builds it once
    as before.
    """
    args = _parser().parse_args(argv)
    try:
        report = args.handler(args)
    except ManifestError as err:
        print(f"manifest error: {err}", file=sys.stderr)
        return 1
    except TruncationOverflow as err:
        print(f"truncation overflow: {err}", file=sys.stderr)
        return 1
    except MasterEqError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    text = report.to_machine() if args.format == "machine" else report.to_human()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.ok else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on first use rather than at import."""
    return build_parser()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mastereq",
        description="Exact kernel for classical and quantum master equations.")
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--trunc-words": dict(type=_window_bound, default=None, metavar="N"),
        "--hbar-cutoff": dict(type=_window_bound, default=None, metavar="K"),
        "--seed": dict(type=int, default=0),
        "--instances": dict(type=int, default=DEFAULT_INSTANCES),
    }

    def options(p, *names):
        """--format, --out and the named flags: those the handler reads."""
        p.add_argument("--format", choices=("human", "machine"), default="human")
        p.add_argument("--out", default=None, help="write the report to a file")
        for name in names:
            p.add_argument(name, **flags[name])

    p = sub.add_parser("check", help="axiom certification of a manifest")
    p.add_argument("files", nargs="+")
    options(p, "--trunc-words")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("construct", help="build and certify an example complex")
    p.add_argument("recipe", choices=("ce", "ibl", "bi-dg", "ttw"))
    p.add_argument("file")
    p.add_argument("--emit", default=None, help="write the constructed manifest here")
    options(p, "--trunc-words", "--hbar-cutoff")
    p.set_defaults(handler=cmd_construct)

    p = sub.add_parser("solve-mc", help="perturbative Maurer-Cartan lift")
    p.add_argument("algebra")
    p.add_argument("ring")
    options(p, "--seed")
    p.set_defaults(handler=cmd_solve_mc)

    p = sub.add_parser("solve-qme", help="perturbative quantum master equation lift")
    p.add_argument("algebra")
    p.add_argument("ring")
    options(p, "--trunc-words", "--hbar-cutoff", "--seed")
    p.set_defaults(handler=cmd_solve_qme)

    p = sub.add_parser("verify-representability", help="bijection batteries")
    p.add_argument("theorem", choices=("quillen", "chuang-lazarev", "theorem-first",
                                       "theorem-second", "corollary-bidg"))
    p.add_argument("file")
    p.add_argument("--ring", default=None)
    options(p, *flags)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("compose-morphisms", help="ring-map morphism calculus")
    p.add_argument("rings", nargs=3, help="three parameter-ring manifests, decreasing order")
    options(p, "--hbar-cutoff")
    p.set_defaults(handler=cmd_compose)

    p = sub.add_parser("identity-check", help="operator identity batteries")
    p.add_argument("identity", choices=("big-formula", "qme-forms", "derived-brackets",
                                        "unimodular-poisson"))
    p.add_argument("file", nargs="?")
    p.add_argument("--ring", default=None)
    options(p, *flags)
    p.set_defaults(handler=cmd_identity)

    return parser


def _window_bound(text: str) -> int:
    """An integer >= 1: a smaller window keeps no word or hbar power to certify."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


# -- helpers -------------------------------------------------------------------


def _load(path: str, kinds: tuple[str, ...] | None = None) -> Manifest:
    m = parse_manifest(path)
    if kinds and m.kind not in kinds:
        raise ManifestError(f"{path}: expected kind in {kinds}, got {m.kind!r}")
    return m


def _load_ring(path: str | None) -> ArtinLocalAlgebra:
    if path is None:
        raise ManifestError("this command needs --ring RING.alg")
    m = _load(path, ("artin-ring",))
    return m.obj


def _word_length(args, manifest: Manifest, default: int = 4) -> int:
    if args.trunc_words is not None:
        return args.trunc_words
    return manifest.truncation.get("word_length", default)


def _hbar_cutoff(args, manifest: Manifest | None = None) -> int:
    """The flag's hbar window, else the one the manifest declares, else 3."""
    declared = manifest.truncation.get("hbar_cutoff", 3) if manifest else 3
    return declared if args.hbar_cutoff is None else args.hbar_cutoff


def _refuse_unread(args, flag: str, read_by: str, given: str) -> None:
    """Refuse `flag` where this variant of the command does not read it: the
    report would be the same without it.  `read_by` names the variants that
    read it, `given` the one that was run."""
    if getattr(args, flag[2:].replace("-", "_")) is not None:
        raise PreconditionError(f"{args.command} {flag} is read only by {read_by}; {given}")


def _as_bv(manifest: Manifest, N: int, K: int):
    """A BV(-infinity) algebra from any manifest that supports one."""
    obj = manifest.obj
    if isinstance(obj, BVInftyAlgebra):
        return obj
    if isinstance(obj, DgLieAlgebra):
        return ce_bv_from_dg_lie(obj, N)
    if isinstance(obj, LInftyAlgebra):
        return ce_bvinfty_from_linfty(obj, N, K)
    if isinstance(obj, BiDgLieData):
        return bv_from_bi_dg_lie(obj, N)[0]
    raise ManifestError(f"kind {manifest.kind!r} does not define a BV structure")


# -- check ---------------------------------------------------------------------


def cmd_check(args) -> Report:
    certs: list[CheckResult] = []
    inputs = {}
    for path in args.files:
        m = _load(path)
        inputs[path] = f"{m.kind}:{m.name}"
        prefix = f"{m.name}: "
        if m.kind != "linfty":
            # only the D-squared rows of an L-infinity manifest have a word-length window
            _refuse_unread(args, "--trunc-words", "linfty manifests", f"{path} is a {m.kind} manifest")
        obj = m.obj
        results: list[CheckResult] = []
        # before its base LInftyAlgebra: a dg-Lie algebra's axiom rows decide D^2 = 0
        if isinstance(obj, (DgLieAlgebra, LieBialgebraData, BiDgLieData, AssociativeAlgebraData)):
            results = obj.axiom_report()
        elif isinstance(obj, LInftyAlgebra):
            N = _word_length(args, m)
            rows = obj.square_zero_rows([f"D-squared on {n}-letter words" for n in range(1, N + 1)])
            results = [dataclasses.replace(r, bound={"word_length": N}) for r in rows]
        elif isinstance(obj, ArtinLocalAlgebra):
            results = [CheckResult("local-ring", True, timing_ms=obj.validation_ms,
                                   bound={"nilpotency": obj.nilpotency, "adapted": obj.adapted})]
        elif isinstance(obj, BVInftyAlgebra):
            results = obj.certify()
        certs.extend(dataclasses.replace(r, name=prefix + r.name) for r in results)
    return Report("check", certs, inputs)


# -- construct -----------------------------------------------------------------


def cmd_construct(args) -> Report:
    m = _load(args.file)
    if not (args.recipe == "ce" and m.kind == "linfty"):
        _refuse_unread(args, "--hbar-cutoff", "ce on linfty manifests",
                       f"this is {args.recipe} on {args.file}, of kind {m.kind}")
    N = _word_length(args, m)
    certs: list[CheckResult] = []
    if args.recipe == "ce":
        if isinstance(m.obj, DgLieAlgebra):
            built = ce_bv_from_dg_lie(m.obj, N)
        elif isinstance(m.obj, LInftyAlgebra):
            built = ce_bvinfty_from_linfty(m.obj, N, _hbar_cutoff(args, m))
        else:
            raise ManifestError("construct ce expects a dg-lie or linfty manifest")
        results = built.certify()
    elif args.recipe == "ibl":
        if not isinstance(m.obj, LieBialgebraData):
            raise ManifestError("construct ibl expects a lie-bialgebra manifest")
        built, info = ce_bv_from_ibl(m.obj, N)
        # [delta,d] = 0 is expected only of an involutive bialgebra
        results = [r for r in built.certify() if info["involutive"] or r.name != "[delta,d]"]
        certs.append(CheckResult("involutivity-dichotomy",
                                 info["involutive"] == info["commutator_vanishes"],
                                 witness=info["witness"], bound={"involutive": info["involutive"]},
                                 timing_ms=info["timing_ms"]))
    elif args.recipe == "bi-dg":
        if not isinstance(m.obj, BiDgLieData):
            raise ManifestError("construct bi-dg expects a bi-dg-lie manifest")
        built, info = bv_from_bi_dg_lie(m.obj, N)
        results = [*built.certify(), *info["inclusion"]]
    else:  # ttw
        if not isinstance(m.obj, AssociativeAlgebraData):
            raise ManifestError("construct ttw expects an associative manifest")
        built = bar_bv_from_associative(m.obj, N)
        results = built.certify()
    certs.extend(results)
    if args.emit:
        _emit_bv_manifest(built, args.emit)
    return Report(f"construct {args.recipe}", certs, {"file": args.file, "word_length": N})


def _emit_bv_manifest(built, path: str) -> None:
    algebra = built.algebra
    doc = {
        "format_version": 1,
        "name": built.name,
        "basis": [[l, d] for l, d in algebra.space.basis],
        "truncation": {"word_length": algebra.max_len},
    }
    if isinstance(built, BVAlgebra):
        doc["kind"] = "bv"
        doc["structure"] = {
            "d": _operator_entries(built.d),
            "delta": _operator_entries(built.delta),
        }
    else:
        doc["kind"] = "bv-infty"
        doc["truncation"]["hbar_cutoff"] = built.hbar_cutoff
        doc["structure"] = {"operators": {
            str(n): _operator_entries(op) for n, op in sorted(built.operators.items())}}
    manifest = parse_manifest_text(json.dumps(doc), name=built.name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_manifest(manifest))


def _operator_entries(op) -> list:
    out = []
    for w, img in sorted(op.entries.items()):
        for u, c in sorted(img.items()):
            out.append({"inputs": list(w), "outputs": list(u), "coeff": str(c)})
    return out


# -- solvers -------------------------------------------------------------------


def _closed_mc_seed(g: LInftyAlgebra, ring: ArtinLocalAlgebra, rng: random.Random) -> HbarSeries:
    """Random first-order seed in the kernel of l_1."""
    return closed_seed(ring, mc_linear_part(g), rng, 2)


def cmd_solve_mc(args) -> Report:
    m = _load(args.algebra, ("dg-lie", "linfty"))
    ring = _load_ring(args.ring)
    g = m.obj
    seed = _closed_mc_seed(g, ring, random.Random(args.seed))
    result = mc_solve_perturbative(g, ring, seed)
    return _solve_report("solve-mc", args, m, ring, seed, result,
                         lambda S: emce_residual(g, ring, S))


def _closed_qme_seed(bvi: BVInftyAlgebra, ring: ArtinLocalAlgebra, rng: random.Random) -> HbarSeries:
    """Random first-order seed in the kernel of dhat, on words no longer
    than N // (M-1)."""
    cap = max(1, bvi.algebra.max_len // max(ring.nilpotency - 1, 1))
    return closed_seed(ring, qme_linear_part(bvi, lambda w: len(w) <= cap), rng, 1)


def cmd_solve_qme(args) -> Report:
    m = _load(args.algebra, ("bv", "bv-infty", "dg-lie", "linfty", "bi-dg-lie"))
    ring = _load_ring(args.ring)
    N = _word_length(args, m)
    K = _hbar_cutoff(args, m)
    V = _as_bv(m, N, K)
    bvi = V.as_bvinfty(K)
    seed = _closed_qme_seed(bvi, ring, random.Random(args.seed))
    result = qme_solve_perturbative(V, ring, seed, K)
    return _solve_report("solve-qme", args, m, ring, seed, result,
                         lambda S: bvinfty_qme_residual(bvi, ring, S))


def _solve_report(command: str, args, m: Manifest, ring: ArtinLocalAlgebra, seed: HbarSeries,
                  result: SolveResult, residual) -> Report:
    """The report of a solver run.  A solved lift passed the solver's own
    exact validation, which raises otherwise; an obstruction is checked
    against `residual` of the partial lift, recomputed here over the whole
    ring, while the solver computed it over a quotient.  The solver's rows
    carry the times it measured."""
    timing = result.timing_ms
    certs = [CheckResult("seed-closed", True, bound={"support": len(seed.terms)},
                         timing_ms=timing["seed-closed"])]
    if result.status == "solved":
        certs.append(CheckResult("solution-verified", True, bound=result.bound,
                                 timing_ms=timing["solution-verified"]))
    else:
        k = result.obstruction_order
        certs.append(timed(lambda: CheckResult(
            "obstruction-consistent",
            residual(result.partial).ring_project(ring, k) == result.obstruction, bound=result.bound)))
        certs.append(CheckResult("solution-verified", False, bound={"obstruction_order": k},
                                 witness={"order": k, "residual": result.obstruction},
                                 timing_ms=timing["solution-verified"]))
    return Report(command, certs, {"algebra": m.name, "ring": ring.name, "seed": args.seed})


# -- representability ------------------------------------------------------------


def cmd_verify(args) -> Report:
    rng = random.Random(args.seed)
    count = args.instances
    certs: list[CheckResult] = []
    inputs = {"file": args.file, "seed": args.seed, "instances": count}
    for flag, theorems in VERIFY_FLAG_READERS.items():
        if args.theorem not in theorems:
            _refuse_unread(args, flag, ", ".join(theorems), f"{args.theorem} does not read it")
    m = _load(args.file, {"theorem-first": None, "corollary-bidg": ("bi-dg-lie",)}.get(
        args.theorem, ("dg-lie", "linfty")))
    K = _hbar_cutoff(args, m)
    if args.theorem == "quillen":
        ring = _load_ring(args.ring)
        target = m.obj
        if all(deg == 0 for _, deg in target.space.basis):
            # classical algebras have trivial degree-one part; work in the
            # coderivation algebra, where deformations of the bracket live
            target, _ = coderivation_dg_lie(m.obj, max_len=3)
            certs.extend(run_battery([("deformed-bracket-agreement",
                                       lambda: _deformed_bracket_battery(m.obj, ring, rng, count))]))
        W = target.word_algebra(ring.nilpotency)

        def draw():
            S = random_mc_element(target, ring, rng)
            return S, mc_exp_map(target, ring, S)

        def corrupted(inst):
            # exp(S) plus the first two-letter word on the first key of m, read
            # by the coproduct check alone: a map still read as a morphism is a miss
            word, key = next(w for w in W.words if len(w) == 2), ring.ideal_labels[0]
            bad = dict(inst[1])
            bad[key] = bad.get(key, HbarSeries()).add(HbarSeries({(word, "1", 0): ONE}))
            return coproduct_defect(ring.dual_coalgebra(), W, bad) is not None

        certs += _battery("quillen", count, draw,
                          lambda inst: quillen_bijection_check(target, ring, *inst)["ok"], corrupted)
    elif args.theorem == "chuang-lazarev":
        g = m.obj

        def routes(g_tw, F):
            """(residual is zero, F is a morphism): the two routes' verdicts,
            both read off F's one exponential."""
            return (chuang_lazarev_residual(g, g_tw, F) == {},
                    chuang_lazarev_morphism_defect(g, g_tw, F).ok)

        def corrupted(inst):
            residual_zero, is_morphism = routes(inst[0], _perturbed(inst[1], rng))
            return _rejected(residual_zero == is_morphism, is_morphism)

        certs += _battery("chuang-lazarev", count, lambda: twisted_linfty_morphism(g, rng, 3),
                          lambda inst: all(routes(*inst)), corrupted)
    elif args.theorem == "theorem-first":
        ring = _load_ring(args.ring)
        V = _as_bv(m, _word_length(args, m), K)
        bvi = V.as_bvinfty(K)

        def valid(seed):
            result = qme_solve_perturbative(V, ring, seed, K)
            if result.status != "solved":
                return None  # obstructed seed: no solution to test
            report = theorem_first_bijection_check(V, ring, result.element, K)
            return report["solves_qme"] and report["is_morphism"]

        def corrupted(_seed):
            bad = theorem_first_bijection_check(V, ring, random_qme_element(V, ring, rng), K)
            return _rejected(bad["equivalence"], bad["solves_qme"])

        certs += _battery("theorem-first", count, lambda: _closed_qme_seed(bvi, ring, rng),
                          valid, corrupted)
    elif args.theorem == "theorem-second":
        g = m.obj

        def valid(inst):
            return theorem_second_bijection_check(g, *inst, K)["ok"]

        def corrupted(inst):
            # one check, so no two routes to disagree: detected unless still a morphism
            bad = theorem_second_bijection_check(g, inst[0], _perturbed(inst[1], rng), K)
            return _rejected(True, bad["ok"])

        certs += _battery("theorem-second", count, lambda: twisted_linfty_morphism(g, rng, 3),
                          valid, corrupted)
    elif args.theorem == "corollary-bidg":
        B = m.obj
        ring = _load_ring(args.ring)

        def draw():
            terms = {}
            for x, deg in B.space.basis:
                h, odd = divmod(1 - deg, 2)  # the hbar power of total degree one
                if odd or not 0 <= h < K:
                    continue
                for r in ring.ideal_labels:
                    if rng.random() < 0.35:
                        c = rng.randint(-1, 1)
                        if c:
                            terms[(x, r, h)] = c
            return HbarSeries(terms)

        certs += _battery("corollary-bidg", count, draw,
                          lambda S: corollary_bidg_check(B, ring, S, K)["ok"])
    return Report(f"verify-representability {args.theorem}", certs, inputs)


def _battery(name: str, count: int, draw: Callable[[], object],
             valid: Callable[[object], bool | None],
             corrupted: Callable[[object], bool | None] | None = None) -> list[CheckResult]:
    """`{name}-valid` and `{name}-corrupted-detected`, or `name` alone without
    `corrupted`: the `_tally` certificates of `count` drawn instances.

    Per instance, `inst = draw()`; `valid(inst)` gives True (hit), False
    (miss) or None (nothing to test: a skip).  `corrupted(inst)` draws and
    checks a corrupted neighbour until it gives True (detected) or False
    (missed); after `CORRUPTION_ATTEMPTS` Nones the instance is skipped.  The
    callables hold all randomness and run in this order, so a seed fixes the
    report.  Each certificate carries the wall-clock time of its own calls:
    draws and `valid`, or `corrupted`.
    """
    hits = skips = detected = undetectable = 0
    valid_s = corrupted_s = 0.0
    for _ in range(count):
        start = time.perf_counter()
        inst = draw()
        verdict = valid(inst)
        hits += bool(verdict)
        skips += verdict is None
        valid_s += time.perf_counter() - start
        if corrupted is not None:
            start = time.perf_counter()
            attempts = (corrupted(inst) for _ in range(CORRUPTION_ATTEMPTS))
            verdict = next((v for v in attempts if v is not None), None)
            detected += bool(verdict)
            undetectable += verdict is None
            corrupted_s += time.perf_counter() - start
    if corrupted is None:
        return [_tally(name, "passed", hits, skips, count, valid_s)]
    return [_tally(f"{name}-valid", "passed", hits, skips, count, valid_s),
            _tally(f"{name}-corrupted-detected", "detected", detected, undetectable, count,
                   corrupted_s)]


def _rejected(routes_agree: bool, still_valid: bool) -> bool | None:
    """The verdict on one corrupted draw: detected when both routes reject
    it, missed when they disagree, and None (nothing to detect, draw again)
    when both still accept it."""
    return None if routes_agree and still_valid else routes_agree


def _tally(name: str, counted: str, hits: int, skipped: int, total: int,
           seconds: float) -> CheckResult:
    """The certificate of an instance battery that ran for `seconds`.

    Instances that have nothing to test (an obstructed seed, no
    non-morphism neighbour) count as skipped, not as hits; see `_passes`.
    """
    bounds = {counted: hits, "total": total}
    if skipped:
        bounds["skipped"] = skipped
    return CheckResult(name, _passes(hits, skipped, total), bound=bounds, timing_ms=seconds * 1000.0)


def _passes(hits: int, skipped: int, total: int) -> bool:
    """Every instance is a hit or a skip, and at least one is a hit: a
    battery that tested nothing (`--instances 0`, or all skipped) fails."""
    return hits + skipped == total and hits >= 1


def _perturbed(F: CoalgebraMorphism, rng: random.Random) -> CoalgebraMorphism:
    """F with one corestriction entry, drawn by `rng`, shifted by 1, -1 or 2."""
    bad = {w: dict(v) for w, v in F.corestriction.items()}
    key = sorted(bad)[rng.randrange(len(bad))]
    t = sorted(bad[key])[rng.randrange(len(bad[key]))]
    bad[key][t] = bad[key][t] + rng.choice([1, -1, 2])
    return CoalgebraMorphism(F.source, F.target, bad)


def _deformed_bracket_battery(h: DgLieAlgebra, ring, rng: random.Random, count: int) -> CheckResult:
    labels = h.space.labels
    for _ in range(count):
        S: dict = {}
        for i, a in enumerate(labels):
            for b in labels[i + 1:]:
                val = {}
                for c in labels:
                    for r in ring.ideal_labels:
                        if rng.random() < 0.25:
                            coeff = rng.randint(-1, 1)
                            if coeff:
                                val.setdefault(c, {})[r] = coeff
                if val:
                    S[(a, b)] = val
        report = deformed_bracket_check(h, ring, S)
        if not report["agree"]:
            return CheckResult("deformed-bracket-agreement", False, witness=report["witness"])
    # every instance agreed
    return CheckResult("deformed-bracket-agreement", _passes(count, 0, count),
                       bound={"instances": count})


# -- morphism calculus ------------------------------------------------------------


def cmd_compose(args) -> Report:
    rings = [(_load(path, ("artin-ring",))).obj for path in args.rings]
    K = _hbar_cutoff(args)
    chain = [_truncation_morphism(big, small, K)
             for big, small in zip(rings, rings[1:])]
    checks = [timed(lambda: CheckResult(f"morphism-{i}-valid", check_bv_morphism(phi)["ok"]))
              for i, phi in enumerate(chain)]
    start = time.perf_counter()
    composite, leftover = compose_with_log_residue(chain[0], chain[1])
    witness = {key: {k: str(c) for k, c in coeff.items()} for key, coeff in leftover.items()}
    checks.append(CheckResult("log-hbar-inverse-vanishes", not leftover, witness=witness or None,
                              timing_ms=(time.perf_counter() - start) * 1000.0))
    checks.append(timed(lambda: CheckResult("functoriality", composite.components == _truncation_morphism(
        rings[0], rings[2], K).components)))
    checks.append(timed(lambda: CheckResult("composite-valid", check_bv_morphism(composite)["ok"])))
    return Report("compose-morphisms", checks,
                  {"rings": [r.name for r in rings], "hbar_cutoff": K})


def _truncation_morphism(big: ArtinLocalAlgebra, small: ArtinLocalAlgebra, K: int):
    entries = {r: {r: 1} if r in small.ideal_labels else {} for r in big.ideal_labels}
    try:
        return ring_map_to_bv_morphism(big, small, entries, K)
    except PreconditionError as err:
        raise ManifestError(
            f"rings {big.name} -> {small.name} admit no label-wise truncation map: {err}")


# -- identity batteries ------------------------------------------------------------


def cmd_identity(args) -> Report:
    rng = random.Random(args.seed)
    certs: list[CheckResult] = []
    inputs = {"seed": args.seed, "instances": args.instances}
    if args.identity == "unimodular-poisson":
        def example(name: str, S0: Polyvector, S1: Polyvector, expected: bool) -> CheckResult:
            report = unimodular_poisson_check(S0, S1)
            return CheckResult(f"unimodular {name}", report["routes_agree"] and report["unimodular"] == expected,
                               bound={"expected": expected, "unimodular": report["unimodular"]})

        examples = _unimodular_examples()
        # each dimension's algebra is built once per process: not inside a timed row
        for dim in sorted({S0.dim for S0, _, _ in examples.values()}):
            polyvector_fields(dim)
        certs = [timed(lambda: example(name, S0, S1, expected))
                 for name, (S0, S1, expected) in examples.items()]
        return Report("identity-check unimodular-poisson", certs, inputs)
    if args.file is None:
        raise ManifestError("identity-check needs a manifest file for this identity")
    m = _load(args.file)
    inputs["file"] = args.file
    # the derived brackets live on V alone; the other identities draw over a ring
    ring = None if args.identity == "derived-brackets" else _load_ring(args.ring)
    K = _hbar_cutoff(args, m)
    V = _as_bv(m, _word_length(args, m), K)
    if args.identity == "big-formula":
        certs += _battery("conjugation-identity", args.instances,
                          lambda: random_qme_element(V, ring, rng),
                          lambda S: conjugation_identity_check(V, ring, S, K).ok)
    elif args.identity == "qme-forms":
        certs += _battery("qme-form-equivalence", args.instances,
                          lambda: random_qme_element(V, ring, rng),
                          lambda S: qme_exp_check(V, ring, S, K)["ok"])
    else:  # derived-brackets
        certs.append(timed(lambda: derived_brackets_linfty_check(V.as_bvinfty(K))))
    return Report(f"identity-check {args.identity}", certs, inputs)


def _unimodular_examples() -> dict:
    zero3 = Polyvector.zero(3)
    return {
        "trivial": (zero3, zero3, True),
        "constant-symplectic-dim2": (
            Polyvector(2, {((0, 0), 0b11): 1}), Polyvector.zero(2), True),
        "heis3-coadjoint": (
            Polyvector(3, {((0, 0, 1), 0b011): 1}), zero3, True),
        "affine-nonunimodular": (
            Polyvector(2, {((0, 1), 0b11): 1}), Polyvector.zero(2), False),
        # the only example whose compared brackets are nonzero:
        # {S0,S0} = 2 x2 xi1 xi2 xi3 and {S1,S0} = x1 xi2 + x2 xi3
        "nonpoisson-dim3": (
            Polyvector(3, {((1, 0, 0), 0b011): 1, ((0, 1, 0), 0b101): 1}),
            Polyvector(3, {((1, 0, 0), 0): 1}), False),
    }


if __name__ == "__main__":
    sys.exit(main())
