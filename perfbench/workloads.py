"""The benchmark's three workloads.

Each workload builds what it reuses in ``setup`` and yields one cycle of
operations at a time.  An operation is one timed call into mastereq's public
API plus a check of its result; the check runs outside the timed region and
returns ``None`` when the verdict is the one the mathematics requires, or a
description of the mismatch.  Inputs come only from the ``random.Random``
handed to ``cycle``, which the runner seeds from the benchmark seed.

Whole cycles are timed, so each workload's mix of operations is fixed.  The
cycles of cli-fixtures and certify-ladder hold 25 and 15 operations: with an
odd count whose 90th percentile falls half-way into a block of the sorted
latencies, the median and p90 sit inside one operation's samples instead of
on the edge between two unrelated ones.  On certify-ladder the p90 block is
the valid 182-word algebra, whose cost does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = "fixtures"
RESULTS = Path(__file__).resolve().parent / "results"
HBAR_CUTOFF = 3


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    tags: dict = field(default_factory=dict)
    # exception types this operation may raise and still have the required
    # outcome (it then has no result); any other exception is a wrong verdict
    may_raise: tuple[str, ...] = ()


class Modules:
    """The mastereq modules of the current import, looked up at call time."""

    def __init__(self):
        for name in ("artin", "bv", "cli", "constructions", "graded", "linfty", "manifest",
                     "morphisms", "operators", "sampling"):
            setattr(self, name, importlib.import_module(f"mastereq.{name}"))


# -- cli-fixtures ------------------------------------------------------------------


def _f(name: str) -> str:
    return f"{FIXTURES}/{name}"


class CliFixtures:
    """Every README command on fixtures/, plus the remaining theorems and
    identities, construct bi-dg, the negative manifests and a check of each
    manifest kind the README commands do not load."""

    name = "cli-fixtures"
    watch: tuple[str, ...] = ()

    def setup(self, mods: Modules, seed: int) -> None:
        self.mods = mods
        rng = random.Random(f"cli-fixtures/{seed}")

        def seeded():
            return ["--seed", str(rng.randrange(1, 1_000_000))]

        RESULTS.mkdir(parents=True, exist_ok=True)
        self.emit_path = RESULTS / "ce-sl2.alg"
        emit = str(self.emit_path.relative_to(ROOT))
        ring3 = ["--ring", _f("ring-t3.alg")]
        # (argv, expected exit code); a failing exit code must come with a witness
        self.commands = [
            (["check", _f("heis3.alg"), _f("ring-t3.alg")], 0),
            (["construct", "ce", _f("sl2.alg"), "--trunc-words", "4", "--emit", emit], 0),
            (["construct", "ibl", _f("noninv2.alg")], 0),
            (["construct", "ttw", _f("nonassoc3.alg")], 1),
            (["solve-mc", _f("lift3.alg"), _f("ring-t3.alg"), *seeded()], 0),
            (["solve-qme", _f("sl2.alg"), _f("ring-t3.alg"), *seeded()], 0),
            (["verify-representability", "quillen", _f("heis3.alg"), *ring3, *seeded()], 0),
            (["verify-representability", "theorem-second", _f("bidg4-dglie.alg"), *seeded()], 0),
            (["compose-morphisms", _f("ring-t4.alg"), _f("ring-t3.alg"), _f("ring-t2.alg")], 0),
            (["identity-check", "big-formula", _f("sl2.alg"), *ring3, *seeded()], 0),
            (["identity-check", "unimodular-poisson"], 0),
            (["verify-representability", "theorem-first", _f("sl2.alg"), *ring3, *seeded()], 0),
            (["verify-representability", "chuang-lazarev", _f("sl2.alg"), *seeded()], 0),
            (["verify-representability", "corollary-bidg", _f("bidg4.alg"), *ring3, *seeded()], 0),
            (["identity-check", "qme-forms", _f("sl2.alg"), *ring3, *seeded()], 0),
            (["identity-check", "derived-brackets", _f("ce-l3demo.alg"), *ring3], 0),
            (["construct", "bi-dg", _f("bidg4.alg")], 0),
            (["check", _f("jacobi-violator.alg")], 1),
            (["check", _f("bad-rational.alg")], 1),
            (["check", _f("ce-heis3.alg")], 0),
            (["check", _f("ce-l3demo.alg")], 0),
            (["check", _f("inv3.alg")], 0),
            (["check", _f("dual-numbers.alg")], 0),
            (["check", _f("bidg4.alg")], 0),
            (["check", _f("ring-st.alg")], 0),
        ]
        for argv, _ in self.commands:
            for arg in argv:
                if arg.startswith(FIXTURES + "/") and not (ROOT / arg).is_file():
                    raise FileNotFoundError(ROOT / arg)
        self.reference: dict[str, tuple] = {}

    def cycle(self, rng: random.Random) -> list[Op]:
        return [Op(" ".join(argv), self._caller(argv), self._checker(" ".join(argv), code))
                for argv, code in self.commands]

    def _caller(self, argv: list[str]):
        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.mods.cli.main([*argv, "--format", "machine"])
            return code, out.getvalue(), err.getvalue()
        return call

    def _checker(self, name: str, expected: int):
        def check(result):
            code, out, err = result
            emitted = self.emit_path.read_bytes() if "--emit" in name else b""
            problem = _cli_verdict(code, out, err, expected)
            observed = (code, out, err, emitted)
            if name not in self.reference:
                self.reference[name] = observed
            elif self.reference[name] != observed:
                problem = (problem or "") + "machine report differs from the warm-up pass"
            return problem
        return check


def _cli_verdict(code: int, out: str, err: str, expected: int) -> str | None:
    if code != expected:
        return f"exit code {code}, expected {expected}: {err.strip()[:200]}"
    if not out:
        # a manifest rejected before any certificate ran: the message must say why
        if expected == 1 and err.startswith("manifest error:"):
            return None
        return "no report"
    report = json.loads(out)
    status = "pass" if expected == 0 else "fail"
    if report["status"] != status:
        return f"report status {report['status']}, expected {status}"
    if expected == 1 and not any(c["status"] == "fail" and c["witness"] is not None
                                 for c in report["certificates"]):
        return "failing report names no witness"
    return None


# -- certify-ladder ----------------------------------------------------------------

# (d, N, corrupted controls): even letters x_1..x_d, truncation N; 25, 49, 91,
# 105, 182 and 196 words.  The control counts make a cycle of 15 operations
# whose median falls on the control of the 91-word rung and whose p90 falls on
# the valid 182-word algebra (see the module docstring).
RUNGS = ((2, 4, 2), (2, 6, 2), (3, 5, 1), (4, 4, 2), (5, 4, 1), (4, 5, 1))


class CertifyLadder:
    """certify() on fresh CE dg-BV algebras of the even-letter family, each rung
    with one or two negative controls that break the order bound of Delta by one entry."""

    name = "certify-ladder"
    watch: tuple[str, ...] = ()

    def setup(self, mods: Modules, seed: int) -> None:
        self.mods = mods
        self.rungs = []
        for d, N, controls in RUNGS:
            algebra = even_letter_algebra(mods, d)
            words = mods.constructions.ce_bv_from_dg_lie(algebra, N).algebra
            # Delta lowers degree by one; an extra entry on a length-3 word that
            # does not lengthen it breaks order <= 2 at the test vectors of that word
            candidates = [(w, u) for w in words.words if len(w) == 3
                          for u in words.words
                          if words.degree(u) == words.degree(w) - 1 and len(u) <= 3]
            self.rungs.append((d, N, controls, len(words.words), algebra, candidates))

    def cycle(self, rng: random.Random) -> list[Op]:
        ops = []
        for d, N, controls, nwords, algebra, candidates in self.rungs:
            prefix = f"d{d}-N{N}"
            tags = {"words": nwords}
            ops.append(Op(f"{prefix} certify", self._certify(algebra, N, None), _all_pass,
                          dict(tags, kind="positive")))
            for _ in range(controls):
                w, u = rng.choice(candidates)
                ops.append(Op(f"{prefix} corrupt-delta",
                              self._certify(algebra, N, (w, u, rng.choice((1, -1, 2)))),
                              _fails_with_witness("delta order<=2"), dict(tags, kind="corrupted")))
        return ops

    def _certify(self, algebra, N: int, corruption):
        mods = self.mods

        def call():
            bv = mods.constructions.ce_bv_from_dg_lie(algebra, N)
            if corruption is not None:
                w, u, c = corruption
                entries = {k: dict(v) for k, v in bv.delta.entries.items()}
                image = entries.setdefault(w, {})
                image[u] = image.get(u, 0) + c
                delta = mods.operators.Operator(bv.algebra, bv.delta.degree, entries,
                                                bv.delta.defined, bv.delta.name)
                bv = mods.bv.BVAlgebra(bv.algebra, bv.d, delta, name=bv.name)
            return bv.certify()
        return call


def even_letter_algebra(mods: Modules, d: int):
    """x_1..x_d of degree 1, w of degree 2, [x_i, x_i] = w."""
    letters = [f"x{i}" for i in range(1, d + 1)]
    space = mods.graded.GradedVectorSpace([(x, 1) for x in letters] + [("w", 2)])
    return mods.linfty.DgLieAlgebra(space, {}, {(x, x): {"w": 1} for x in letters}, name=f"even{d}")


def _all_pass(certs) -> str | None:
    bad = [c.name for c in certs if not c.ok]
    return f"certificates failed on a valid structure: {bad}" if bad else None


def _fails_with_witness(name: str):
    def check(certs) -> str | None:
        for c in certs:
            if c.name == name:
                if c.ok:
                    return f"{name} passed on a corrupted operator"
                if c.witness is None:
                    return f"{name} failed without a witness"
                return None
        return f"no {name} certificate"
    return check


# -- ring-ladder -------------------------------------------------------------------

RING_ORDERS = range(3, 9)
# Above t^6 a conjugation check either overflows at once or runs for seconds,
# depending on the random element; that bimodal cost made the run-to-run
# spread of every metric exceed its bound, so the check stops at M = 6.
CONJUGATION_MAX_M = 6
# The window-edge rungs: from this M on, an algebra's operations may leave its
# word budget and raise TruncationOverflow, depending on the random element.
# They stay in the cycle: there the overflow is the outcome expected at this
# commit, counted in fail_ratio; anywhere else an exception is a wrong verdict.
OVERFLOW_FROM_M = {"l3demo-N4": 6, "l3demo-N6": 8, "lift3-N5": 7}


class RingLadder:
    """QME and morphism operations over k[t]/t^M, M = 3..8 (conjugation checks
    up to M = 6), on four algebras built and certified once in setup."""

    name = "ring-ladder"
    watch = ("bv.BVInftyAlgebra.dhat",)

    def setup(self, mods: Modules, seed: int) -> None:
        self.mods = mods
        parse = mods.manifest.parse_manifest
        l3demo = parse(str(ROOT / _f("l3demo.alg"))).obj
        sl2 = parse(str(ROOT / _f("sl2.alg"))).obj
        lift3 = parse(str(ROOT / _f("lift3.alg"))).obj
        build = mods.constructions
        self.algebras = [
            ("l3demo-N4", build.ce_bvinfty_from_linfty(l3demo, 4, HBAR_CUTOFF)),
            ("l3demo-N6", build.ce_bvinfty_from_linfty(l3demo, 6, HBAR_CUTOFF)),
            ("sl2-N5", build.ce_bv_from_dg_lie(sl2, 5)),
            ("lift3-N5", build.ce_bv_from_dg_lie(lift3, 5)),
        ]
        for name, V in self.algebras:
            failed = [c.name for c in V.certify() if not c.ok]
            if failed:
                raise RuntimeError(f"{name} does not certify: {failed}")
        self.rings = {M: mods.artin.power_ring(M) for M in range(1, max(RING_ORDERS) + 1)}
        truncate = mods.cli._truncation_morphism
        self.chains = {M: (truncate(self.rings[M], self.rings[M - 1], HBAR_CUTOFF),
                           truncate(self.rings[M - 1], self.rings[M - 2], HBAR_CUTOFF),
                           truncate(self.rings[M], self.rings[M - 2], HBAR_CUTOFF))
                       for M in RING_ORDERS}

    def cycle(self, rng: random.Random) -> list[Op]:
        mods = self.mods
        ops = []
        for M in RING_ORDERS:
            R = self.rings[M]
            tags = {"M": M}
            for name, V in self.algebras:
                bvi = V.as_bvinfty(HBAR_CUTOFF) if isinstance(V, mods.bv.BVAlgebra) else V

                def element(V=V, R=R):
                    # a fresh element per operation: the costs of one cycle's
                    # operations stay independent, which steadies the median
                    return mods.sampling.random_qme_element(V, R, rng)

                prefix = f"{name} M={M}"
                edge = ("TruncationOverflow",) if M >= OVERFLOW_FROM_M.get(name, M + 1) else ()
                S = element()
                ops.append(Op(f"{prefix} residual",
                              lambda bvi=bvi, R=R, S=S: mods.bv.bvinfty_qme_residual(bvi, R, S),
                              self._residual_check(V, R, S), dict(tags, kind="residual"), edge))
                S = element()
                ops.append(Op(f"{prefix} qme-exp",
                              lambda V=V, R=R, S=S: mods.bv.qme_exp_check(V, R, S, HBAR_CUTOFF),
                              _exp_check, dict(tags, kind="qme-exp"), edge))
                if M <= CONJUGATION_MAX_M:
                    S = element()
                    ops.append(Op(f"{prefix} conjugation",
                                  lambda V=V, R=R, S=S: mods.bv.conjugation_identity_check(V, R, S, HBAR_CUTOFF),
                                  lambda r: None if r.ok else f"conjugation identity fails: {r.witness}",
                                  dict(tags, kind="conjugation"), edge))
                seed = mods.cli._closed_qme_seed(bvi, R, rng)
                ops.append(Op(f"{prefix} solve",
                              lambda V=V, R=R, seed=seed: mods.bv.qme_solve_perturbative(V, R, seed, HBAR_CUTOFF),
                              self._solve_check(bvi, R), dict(tags, kind="solve"), edge))
            first, second, direct = self.chains[M]
            ops.append(Op(f"t^{M} morphisms", lambda a=first, b=second: self._compose(a, b),
                          self._morphism_check(direct), dict(tags, kind="morphisms")))
        return ops

    def _compose(self, first, second):
        composite = self.mods.morphisms.compose_bv_morphisms(first, second)
        return composite, self.mods.morphisms.check_bv_morphism(composite)

    def _residual_check(self, V, R, S):
        def check(residual):
            # QME holds iff dhat e^{S/hbar} = 0, computed by multiplying out the exponential
            report = self.mods.bv.qme_exp_check(V, R, S, HBAR_CUTOFF)
            if report["exp_zero"] != residual.is_zero():
                return "residual disagrees with dhat e^{S/hbar}"
            return None
        return check

    def _solve_check(self, bvi, R):
        def check(result):
            residual = self.mods.bv.bvinfty_qme_residual
            if result.status == "solved":
                return None if residual(bvi, R, result.element).is_zero() else "lift does not solve the QME"
            direct = residual(bvi, R, result.partial).ring_project(R, result.obstruction_order)
            return None if direct == result.obstruction else "obstruction disagrees with the residual"
        return check

    @staticmethod
    def _morphism_check(direct):
        def check(result):
            composite, report = result
            if not report["ok"]:
                return "composite is not a BV-infinity morphism"
            if composite.components != direct.components:
                return "composite differs from the direct truncation"
            return None
        return check


def _exp_check(report) -> str | None:
    return None if report["equivalence"] and report["ok"] else "QME forms disagree"


WORKLOADS = {w.name: w for w in (CliFixtures, CertifyLadder, RingLadder)}
