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
import functools
import random
import sys

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
from .certify import Certificate, Report, run_battery
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
from .diagnostics import CheckResult, ManifestError, MasterEqError, PreconditionError
from .graded import ONE
from .linfty import (
    DgLieAlgebra,
    LInftyAlgebra,
    chuang_lazarev_morphism_defect,
    chuang_lazarev_residual,
    coderivation_dg_lie,
    deformed_bracket_check,
    emce_residual,
    mc_linear_part,
    mc_solve_perturbative,
    quillen_bijection_check,
)
from .manifest import Manifest, emit_manifest, parse_manifest
from .morphisms import (
    check_bv_morphism,
    compose_with_log_residue,
    ring_map_to_bv_morphism,
    theorem_first_bijection_check,
    theorem_second_bijection_check,
    twisted_linfty_morphism,
)
from .multivectors import Polyvector, unimodular_poisson_check
from .sampling import random_mc_element, random_qme_element
from .series import HbarSeries, SolveResult, closed_seed
from .words import TruncationOverflow

# Every kernel operation is reachable from exactly one command; the test
# suite enumerates this table against the public API.
OPERATION_COMMANDS = {
    "shift": "check",
    "dual": "check",
    "koszul_sign": "check",
    "graded_linear_map_calculus": "check",
    "shuffle_coproduct": "check",
    "coderivation_expand": "check",
    "check_codifferential": "check",
    "convolution": "verify-representability",
    "conv_exp": "verify-representability",
    "conv_log": "compose-morphisms",
    "from_dg_lie": "check",
    "emce_residual": "solve-mc",
    "mc_is_solution": "solve-mc",
    "deformed_bracket_check": "verify-representability",
    "quillen_bijection_check": "verify-representability",
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
    "compose_bv_morphisms": "compose-morphisms",
    "clalg_embed": "compose-morphisms",
    "ring_map_to_bv_morphism": "compose-morphisms",
    "theorem_first_bijection_check": "verify-representability",
    "theorem_second_bijection_check": "verify-representability",
    "linfty_morphism_to_bvinfty": "verify-representability",
    "parse_manifest": "check",
    "run_command": "check",
}

DEFAULT_INSTANCES = 20


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

    def common(p):
        p.add_argument("--format", choices=("human", "machine"), default="human")
        p.add_argument("--out", default=None, help="write the report to a file")
        p.add_argument("--trunc-words", type=int, default=None, metavar="N")
        p.add_argument("--hbar-cutoff", type=int, default=3, metavar="K")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--instances", type=int, default=DEFAULT_INSTANCES)

    p = sub.add_parser("check", help="axiom certification of a manifest")
    p.add_argument("files", nargs="+")
    common(p)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("construct", help="build and certify an example complex")
    p.add_argument("recipe", choices=("ce", "ibl", "bi-dg", "ttw"))
    p.add_argument("file")
    p.add_argument("--coproduct", choices=("shuffle", "trivial"), default="shuffle")
    p.add_argument("--emit", default=None, help="write the constructed manifest here")
    common(p)
    p.set_defaults(handler=cmd_construct)

    p = sub.add_parser("solve-mc", help="perturbative Maurer-Cartan lift")
    p.add_argument("algebra")
    p.add_argument("ring")
    common(p)
    p.set_defaults(handler=cmd_solve_mc)

    p = sub.add_parser("solve-qme", help="perturbative quantum master equation lift")
    p.add_argument("algebra")
    p.add_argument("ring")
    common(p)
    p.set_defaults(handler=cmd_solve_qme)

    p = sub.add_parser("verify-representability", help="bijection batteries")
    p.add_argument("theorem", choices=("quillen", "chuang-lazarev", "theorem-first",
                                       "theorem-second", "corollary-bidg"))
    p.add_argument("file")
    p.add_argument("--ring", default=None)
    common(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("compose-morphisms", help="ring-map morphism calculus")
    p.add_argument("rings", nargs=3, help="three parameter-ring manifests, decreasing order")
    common(p)
    p.set_defaults(handler=cmd_compose)

    p = sub.add_parser("identity-check", help="operator identity batteries")
    p.add_argument("identity", choices=("big-formula", "qme-forms", "derived-brackets",
                                        "unimodular-poisson"))
    p.add_argument("file", nargs="?")
    p.add_argument("--ring", default=None)
    common(p)
    p.set_defaults(handler=cmd_identity)

    return parser


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


def _as_bv(manifest: Manifest, N: int, K: int):
    """A BV(-infinity) algebra from any manifest that supports one."""
    obj = manifest.obj
    if isinstance(obj, (BVAlgebra, BVInftyAlgebra)):
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
    certs: list[Certificate] = []
    inputs = {}
    for path in args.files:
        m = _load(path)
        inputs[path] = f"{m.kind}:{m.name}"
        prefix = f"{m.name}: "
        N = _word_length(args, m)
        tasks = []
        obj = m.obj
        if isinstance(obj, DgLieAlgebra):
            for r in obj.axiom_report():
                tasks.append((prefix + r.name, lambda r=r: r))
            tasks.append((prefix + "codifferential", lambda o=obj, n=N: o.to_linfty().validate(n)))
        elif isinstance(obj, LInftyAlgebra):
            tasks.append((prefix + "codifferential", lambda o=obj, n=N: o.validate(n)))
        elif isinstance(obj, LieBialgebraData):
            for r in obj.axiom_report():
                tasks.append((prefix + r.name, lambda r=r: r))
        elif isinstance(obj, BiDgLieData):
            for r in obj.axiom_report():
                tasks.append((prefix + r.name, lambda r=r: r))
        elif isinstance(obj, AssociativeAlgebraData):
            witness = obj.associator_witness()
            tasks.append((prefix + "associativity",
                          lambda w=witness: CheckResult("associativity", w is None, witness=w)))
        elif isinstance(obj, ArtinLocalAlgebra):
            tasks.append((prefix + "local-ring", lambda o=obj: CheckResult(
                "local-ring", True, bound={"nilpotency": o.nilpotency, "adapted": o.adapted})))
        elif isinstance(obj, (BVAlgebra, BVInftyAlgebra)):
            for r in obj.certify():
                tasks.append((prefix + r.name, lambda r=r: r))
        certs.extend(run_battery(tasks))
    return Report("check", certs, inputs)


# -- construct -----------------------------------------------------------------


def cmd_construct(args) -> Report:
    m = _load(args.file)
    N = _word_length(args, m)
    certs: list[Certificate] = []
    built = None
    if args.recipe == "ce":
        if isinstance(m.obj, DgLieAlgebra):
            built = ce_bv_from_dg_lie(m.obj, N, coproduct=args.coproduct)
            certs.extend(run_battery([(r.name, lambda r=r: r) for r in built.certify()]))
        elif isinstance(m.obj, LInftyAlgebra):
            built = ce_bvinfty_from_linfty(m.obj, N, args.hbar_cutoff, coproduct=args.coproduct)
            certs.extend(run_battery([(r.name, lambda r=r: r) for r in built.certify()]))
        else:
            raise ManifestError("construct ce expects a dg-lie or linfty manifest")
    elif args.recipe == "ibl":
        if not isinstance(m.obj, LieBialgebraData):
            raise ManifestError("construct ibl expects a lie-bialgebra manifest")
        built, info = ce_bv_from_ibl(m.obj, N)
        expected = info["involutive"]
        certs.extend(run_battery([(r.name, lambda r=r: r) for r in built.certify()
                                  if not (r.name == "[delta,d]" and not expected)]))
        certs.append(Certificate(
            name="involutivity-dichotomy",
            status="pass" if info["involutive"] == info["commutator_vanishes"] else "fail",
            bounds={"involutive": info["involutive"]},
            witness=info["witness"]))
    elif args.recipe == "bi-dg":
        if not isinstance(m.obj, BiDgLieData):
            raise ManifestError("construct bi-dg expects a bi-dg-lie manifest")
        built, info = bv_from_bi_dg_lie(m.obj, N)
        certs.extend(run_battery([(r.name, lambda r=r: r) for r in built.certify()]))
        certs.extend(run_battery([(r.name, lambda r=r: r) for r in info["inclusion"]]))
    elif args.recipe == "ttw":
        if not isinstance(m.obj, AssociativeAlgebraData):
            raise ManifestError("construct ttw expects an associative manifest")
        built, info = bar_bv_from_associative(m.obj, N, coproduct=args.coproduct)
        certs.extend(run_battery([(r.name, lambda r=r: r) for r in built.certify()]))
    if args.emit and built is not None:
        _emit_bv_manifest(built, args.emit)
    return Report(f"construct {args.recipe}", certs, {"file": args.file, "word_length": N})


def _emit_bv_manifest(built, path: str) -> None:
    from .manifest import parse_manifest_text
    import json
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


def _closed_mc_seed(gl: LInftyAlgebra, ring: ArtinLocalAlgebra, rng: random.Random) -> HbarSeries:
    """Random first-order seed in the kernel of l_1."""
    return closed_seed(ring, mc_linear_part(gl), rng, 2)


def cmd_solve_mc(args) -> Report:
    m = _load(args.algebra, ("dg-lie", "linfty"))
    ring = _load_ring(args.ring)
    gl = m.obj.to_linfty() if isinstance(m.obj, DgLieAlgebra) else m.obj
    seed = _closed_mc_seed(gl, ring, random.Random(args.seed))
    result = mc_solve_perturbative(gl, ring, seed)
    return _solve_report("solve-mc", args, m, ring, seed, result,
                         lambda S: emce_residual(gl, ring, S))


def _closed_qme_seed(bvi: BVInftyAlgebra, ring: ArtinLocalAlgebra, rng: random.Random) -> HbarSeries:
    """Random first-order seed in the kernel of dhat, on words no longer
    than N // (M-1)."""
    cap = max(1, bvi.algebra.max_len // max(ring.nilpotency - 1, 1))
    return closed_seed(ring, qme_linear_part(bvi, lambda w: len(w) <= cap), rng, 1)


def cmd_solve_qme(args) -> Report:
    m = _load(args.algebra, ("bv", "bv-infty", "dg-lie", "linfty", "bi-dg-lie"))
    ring = _load_ring(args.ring)
    N = _word_length(args, m)
    V = _as_bv(m, N, args.hbar_cutoff)
    bvi = V.as_bvinfty(args.hbar_cutoff) if isinstance(V, BVAlgebra) else V
    seed = _closed_qme_seed(bvi, ring, random.Random(args.seed))
    result = qme_solve_perturbative(V, ring, seed, args.hbar_cutoff)
    return _solve_report("solve-qme", args, m, ring, seed, result,
                         lambda S: bvinfty_qme_residual(bvi, ring, S))


def _solve_report(command: str, args, m: Manifest, ring: ArtinLocalAlgebra, seed: HbarSeries,
                  result: SolveResult, residual) -> Report:
    """The report of a solver run.  A solved lift passed the solver's own
    exact validation, which raises otherwise; an obstruction is checked
    against `residual` of the partial lift, recomputed here."""
    certs = [Certificate("seed-closed", "pass", bounds={"support": len(seed.terms)})]
    if result.status == "solved":
        certs.append(Certificate("solution-verified", "pass", bounds=result.bound))
    else:
        k = result.obstruction_order
        direct = residual(result.partial).ring_project(ring, k)
        certs.append(Certificate("obstruction-consistent",
                                 "pass" if direct == result.obstruction else "fail",
                                 bounds=result.bound))
        certs.append(Certificate("solution-verified", "fail", bounds={"obstruction_order": k},
                                 witness={"order": k, "residual": result.obstruction}))
    return Report(command, certs, {"algebra": m.name, "ring": ring.name, "seed": args.seed})


# -- representability ------------------------------------------------------------


def cmd_verify(args) -> Report:
    rng = random.Random(args.seed)
    count = args.instances
    certs: list[Certificate] = []
    inputs = {"file": args.file, "seed": args.seed, "instances": count}
    if args.theorem == "quillen":
        m = _load(args.file, ("dg-lie", "linfty"))
        ring = _load_ring(args.ring)
        gl = m.obj.to_linfty() if isinstance(m.obj, DgLieAlgebra) else m.obj
        target = gl
        if all(deg == 0 for _, deg in gl.space.basis):
            # classical algebras have trivial degree-one part; work in the
            # coderivation algebra, where deformations of the bracket live
            coder, _ = coderivation_dg_lie(m.obj, max_len=3, validate=False)
            target = coder.to_linfty()
            certs.extend(run_battery([("deformed-bracket-agreement",
                                       lambda: _deformed_bracket_battery(m.obj, ring, rng, count))]))
        valid = corrupted = 0
        for _ in range(count):
            S = random_mc_element(target, ring, rng)
            if quillen_bijection_check(target, ring, S)["ok"]:
                valid += 1
            bad = quillen_bijection_check(target, ring, S, corrupt=_corruption(target, ring, rng))
            if not bad["morphism"]:
                corrupted += 1
        certs.append(_tally("quillen-valid", "passed", valid, 0, count))
        certs.append(_tally("quillen-corrupted-detected", "detected", corrupted, 0, count))
    elif args.theorem == "chuang-lazarev":
        m = _load(args.file, ("dg-lie", "linfty"))
        valid = corrupted = skipped = 0
        for _ in range(count):
            g_tw, cor = twisted_linfty_morphism(m.obj, rng, 3)
            res = chuang_lazarev_residual(m.obj, g_tw, cor, 3)
            defect = chuang_lazarev_morphism_defect(m.obj, g_tw, cor, 3)
            if res == {} and defect.ok:
                valid += 1
            # perturb until the result is genuinely not a morphism, then the
            # residual must see it and agree with the intertwining defect
            for _attempt in range(10):
                bad = _perturbed(cor, rng)
                res_bad = chuang_lazarev_residual(m.obj, g_tw, bad, 3)
                defect_bad = chuang_lazarev_morphism_defect(m.obj, g_tw, bad, 3)
                if (res_bad == {}) != defect_bad.ok:
                    break  # inconsistency: counts as a miss
                if res_bad != {}:
                    corrupted += 1
                    break
            else:
                skipped += 1  # every neighbor was a morphism: nothing to detect
        certs.append(_tally("chuang-lazarev-valid", "passed", valid, 0, count))
        certs.append(_tally("chuang-lazarev-corrupted-detected", "detected", corrupted, skipped, count))
    elif args.theorem == "theorem-first":
        m = _load(args.file)
        ring = _load_ring(args.ring)
        N = _word_length(args, m)
        V = _as_bv(m, N, args.hbar_cutoff)
        bvi = V.as_bvinfty(args.hbar_cutoff) if isinstance(V, BVAlgebra) else V
        valid = valid_skipped = corrupted = skipped = 0
        for _ in range(count):
            seed = _closed_qme_seed(bvi, ring, rng)
            result = qme_solve_perturbative(V, ring, seed, args.hbar_cutoff)
            if result.status == "solved":
                report = theorem_first_bijection_check(V, ring, result.element, args.hbar_cutoff)
                if report["solves_qme"] and report["is_morphism"]:
                    valid += 1
            else:
                valid_skipped += 1  # obstructed seed: no solution to test
            for _attempt in range(10):
                Sbad = random_qme_element(V, ring, rng)
                bad = theorem_first_bijection_check(V, ring, Sbad, args.hbar_cutoff)
                if not bad["equivalence"]:
                    break  # inconsistency: counts as a miss
                if not bad["solves_qme"]:
                    if not bad["is_morphism"]:
                        corrupted += 1
                    break
            else:
                skipped += 1  # every random draw solved; nothing to reject
        certs.append(_tally("theorem-first-valid", "passed", valid, valid_skipped, count))
        certs.append(_tally("theorem-first-corrupted-detected", "detected", corrupted, skipped, count))
    elif args.theorem == "theorem-second":
        m = _load(args.file, ("dg-lie", "linfty"))
        gl = m.obj.to_linfty() if isinstance(m.obj, DgLieAlgebra) else m.obj
        V = ce_bvinfty_from_linfty(gl, 3, args.hbar_cutoff)
        valid = corrupted = skipped = 0
        for _ in range(count):
            g_tw, cor = twisted_linfty_morphism(m.obj, rng, 3)
            table = {w: {(t,): c for t, c in val.items()} for w, val in cor.items()}
            report = theorem_second_bijection_check(V, g_tw, table, 3, args.hbar_cutoff)
            if report["qme_zero"] and report["is_morphism"]:
                valid += 1
            for _attempt in range(10):
                bad = theorem_second_bijection_check(V, g_tw, _perturbed(table, rng), 3,
                                                     args.hbar_cutoff)
                if not bad["equivalence"]:
                    break  # inconsistency: counts as a miss
                if not bad["is_morphism"]:
                    corrupted += 1
                    break
            else:
                skipped += 1  # every neighbor was a morphism: nothing to detect
        certs.append(_tally("theorem-second-valid", "passed", valid, 0, count))
        certs.append(_tally("theorem-second-corrupted-detected", "detected", corrupted, skipped, count))
    elif args.theorem == "corollary-bidg":
        m = _load(args.file, ("bi-dg-lie",))
        ring = _load_ring(args.ring)
        B = m.obj
        ok = 0
        for _ in range(count):
            terms = {}
            for x, deg in B.space.basis:
                for h in range(args.hbar_cutoff):
                    if deg + 2 * h != 1:
                        continue
                    for r in ring.ideal_labels:
                        if rng.random() < 0.35:
                            c = rng.randint(-1, 1)
                            if c:
                                terms[(x, r, h)] = c
            report = corollary_bidg_check(B, ring, HbarSeries(terms), args.hbar_cutoff)
            ok += report["ok"]
        certs.append(_tally("corollary-bidg", "passed", ok, 0, count))
    return Report(f"verify-representability {args.theorem}", certs, inputs)


def _tally(name: str, counted: str, hits: int, skipped: int, total: int) -> Certificate:
    """The certificate of an instance battery.

    Instances that have nothing to test (an obstructed seed, no
    non-morphism neighbour) count as skipped, not as hits; see `_passes`.
    """
    bounds = {counted: hits, "total": total}
    if skipped:
        bounds["skipped"] = skipped
    return Certificate(name, "pass" if _passes(hits, skipped, total) else "fail", bounds=bounds)


def _passes(hits: int, skipped: int, total: int) -> bool:
    """Every instance is a hit or a skip, and at least one is a hit: a
    battery that tested nothing (`--instances 0`, or all skipped) fails."""
    return hits + skipped == total and hits >= 1


def _perturbed(table: dict, rng: random.Random) -> dict:
    """A copy of a corestriction table with one entry, drawn by `rng`,
    shifted by 1, -1 or 2."""
    bad = {w: dict(v) for w, v in table.items()}
    key = sorted(bad)[rng.randrange(len(bad))]
    t = sorted(bad[key])[rng.randrange(len(bad[key]))]
    bad[key][t] = bad[key][t] + rng.choice([1, -1, 2])
    return bad


def _corruption(gl, ring, rng: random.Random):
    words = gl.word_algebra(ring.nilpotency).words
    target = next(w for w in words if len(w) == 2)
    return (ring.ideal_labels[0], target, ONE)


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
    chain = []
    for big, small in zip(rings, rings[1:]):
        chain.append(_truncation_morphism(big, small, args.hbar_cutoff))
    certs = []
    for i, phi in enumerate(chain):
        report = check_bv_morphism(phi)
        certs.append(Certificate(f"morphism-{i}-valid", "pass" if report["ok"] else "fail"))
    composite, leftover = compose_with_log_residue(chain[0], chain[1])
    direct = _truncation_morphism(rings[0], rings[2], args.hbar_cutoff)
    certs.append(Certificate("functoriality",
                             "pass" if composite.components == direct.components else "fail"))
    witness = {key: {k: str(c) for k, c in coeff.items()} for key, coeff in leftover.items()}
    certs.append(Certificate("log-hbar-inverse-vanishes", "pass" if not leftover else "fail",
                             witness=witness or None))
    comp_report = check_bv_morphism(composite)
    certs.append(Certificate("composite-valid", "pass" if comp_report["ok"] else "fail"))
    return Report("compose-morphisms", certs,
                  {"rings": [r.name for r in rings], "hbar_cutoff": args.hbar_cutoff})


def _truncation_morphism(big: ArtinLocalAlgebra, small: ArtinLocalAlgebra, K: int):
    entries = {}
    for r in big.ideal_labels:
        entries[r] = {r: 1} if r in small.ideal_labels else {}
    try:
        return ring_map_to_bv_morphism(big, small, entries, K)
    except PreconditionError as err:
        raise ManifestError(
            f"rings {big.name} -> {small.name} admit no label-wise truncation map: {err}")


# -- identity batteries ------------------------------------------------------------


def cmd_identity(args) -> Report:
    rng = random.Random(args.seed)
    certs: list[Certificate] = []
    inputs = {"seed": args.seed, "instances": args.instances}
    if args.identity == "unimodular-poisson":
        examples = _unimodular_examples()
        for name, (S0, S1, expected) in examples.items():
            report = unimodular_poisson_check(S0, S1)
            ok = report["routes_agree"] and report["unimodular"] == expected
            certs.append(Certificate(f"unimodular {name}", "pass" if ok else "fail",
                                     bounds={"expected": expected,
                                             "unimodular": report["unimodular"]}))
        return Report("identity-check unimodular-poisson", certs, inputs)
    if args.file is None:
        raise ManifestError("identity-check needs a manifest file for this identity")
    m = _load(args.file)
    inputs["file"] = args.file
    ring = _load_ring(args.ring)
    N = _word_length(args, m)
    V = _as_bv(m, N, args.hbar_cutoff)
    if args.identity == "big-formula":
        ok = 0
        for _ in range(args.instances):
            S = random_qme_element(V, ring, rng)
            result = conjugation_identity_check(V, ring, S, args.hbar_cutoff)
            ok += bool(result.ok)
        certs.append(_tally("conjugation-identity", "passed", ok, 0, args.instances))
    elif args.identity == "qme-forms":
        ok = 0
        for _ in range(args.instances):
            S = random_qme_element(V, ring, rng)
            report = qme_exp_check(V, ring, S, args.hbar_cutoff)
            ok += bool(report["ok"])
        certs.append(_tally("qme-form-equivalence", "passed", ok, 0, args.instances))
    elif args.identity == "derived-brackets":
        bvi = V.as_bvinfty(args.hbar_cutoff) if isinstance(V, BVAlgebra) else V
        result = derived_brackets_linfty_check(bvi, max_arity=4)
        certs.append(Certificate.from_check(result))
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
    }


if __name__ == "__main__":
    sys.exit(main())
