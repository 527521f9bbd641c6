"""Structured text manifests for every kernel input type.

Manifests are UTF-8 JSON with a `format_version` field.  Rationals are
strings "p/q" (or "p"): floats anywhere are a parse error, keeping the exact
kernel uncontaminated.  Structure blocks are lists of sparse constants

    {"inputs": [label, ...], "outputs": [label, ...], "coeff": "p/q"},

inputs and outputs being basis labels (words for operator blocks of bv-type
manifests).  `emit_manifest(parse_manifest(path))` is canonical: keys sorted,
entries sorted, arrays normalized.
"""

from __future__ import annotations

import json
from typing import Mapping

from .artin import ArtinLocalAlgebra
from .bv import BVAlgebra, BVInftyAlgebra
from .constructions import AssociativeAlgebraData, BiDgLieData, LieBialgebraData
from .diagnostics import ManifestError, PreconditionError, StructureError
from .graded import ONE, ZERO, GradedVectorSpace, Scalar, as_scalar
from .linfty import DgLieAlgebra, LInftyAlgebra
from .operators import Operator
from .words import SymmetricWordAlgebra, normal_form

__all__ = ["parse_manifest", "parse_manifest_text", "emit_manifest", "Manifest", "KINDS"]

FORMAT_VERSION = 1

KINDS = ("dg-lie", "linfty", "lie-bialgebra", "bi-dg-lie", "associative",
         "bv", "bv-infty", "artin-ring")


class Manifest:
    """A parsed manifest: the canonical document plus the kernel object."""

    def __init__(self, kind: str, name: str, document: dict, obj, truncation: dict):
        self.kind = kind
        self.name = name
        self.document = document
        self.obj = obj
        self.truncation = truncation


def parse_rational(text) -> Scalar:
    if isinstance(text, int) and not isinstance(text, bool):
        return text
    if not isinstance(text, str):
        raise ManifestError(f"rational coefficients must be strings, got {text!r}")
    try:
        return as_scalar(text)
    except (ValueError, ZeroDivisionError) as err:
        raise ManifestError(f"bad rational {text!r}: {err}") from None


def _entries(block, arity=None, out_arity=1) -> list:
    if not isinstance(block, list):
        raise ManifestError("structure block must be a list of entries")
    out = []
    for entry in block:
        if not isinstance(entry, dict) or set(entry) - {"inputs", "outputs", "coeff"}:
            unknown = set(entry) - {"inputs", "outputs", "coeff"} if isinstance(entry, dict) else entry
            raise ManifestError(f"unknown entry fields: {unknown}")
        inputs = entry.get("inputs", [])
        outputs = entry.get("outputs", [])
        coeff = parse_rational(entry.get("coeff", "1"))
        if arity is not None and len(inputs) != arity:
            raise ManifestError(f"entry has {len(inputs)} inputs, expected {arity}")
        if out_arity is not None and len(outputs) != out_arity:
            raise ManifestError(f"entry has {len(outputs)} outputs, expected {out_arity}")
        out.append((tuple(inputs), tuple(outputs), coeff))
    return out


def parse_manifest_text(text: str, name: str = "<manifest>") -> Manifest:
    try:
        doc = json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)
    except json.JSONDecodeError as err:
        raise ManifestError(f"syntax error: {err.msg}", line=err.lineno, column=err.colno) from None
    if not isinstance(doc, dict):
        raise ManifestError("manifest must be a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ManifestError(f"unsupported format_version {version!r}")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ManifestError(f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
    known = {"format_version", "kind", "name", "basis", "structure", "truncation"}
    unknown = set(doc) - known
    if unknown:
        raise ManifestError(f"unknown fields: {sorted(unknown)}")
    mname = doc.get("name", name)
    basis = doc.get("basis")
    if not isinstance(basis, list) or not all(
            isinstance(b, list) and len(b) == 2 and isinstance(b[0], str) for b in basis):
        raise ManifestError("basis must be a list of [label, degree] pairs")
    truncation = dict(doc.get("truncation", {}))
    for key in truncation:
        if key not in ("word_length", "hbar_cutoff", "nilpotency"):
            raise ManifestError(f"unknown truncation field {key!r}")
    structure = doc.get("structure", {})
    if not isinstance(structure, Mapping):
        raise ManifestError("structure must be an object of named blocks")
    try:
        obj = _BUILDERS[kind](mname, basis, structure, truncation)
    except StructureError as err:
        raise ManifestError(f"semantic error in {kind} manifest: {err}"
                            + (f" (witness: {err.witness})" if err.witness is not None else ""))
    except (KeyError, ValueError, PreconditionError) as err:
        raise ManifestError(f"semantic error in {kind} manifest: {err}")
    return Manifest(kind, mname, _canonical_document(doc), obj, truncation)


def parse_manifest(path: str) -> Manifest:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ManifestError(f"cannot read {path}: {err}")
    return parse_manifest_text(text, name=str(path))


def _reject_float(value):
    raise ManifestError(f"float literal {value!r} is not allowed; use rational strings")


def _block(structure, key, *, required=False):
    block = structure.get(key)
    if block is None:
        if required:
            raise ManifestError(f"missing structure block {key!r}")
        return []
    return block


def _check_blocks(structure, allowed):
    unknown = set(structure) - set(allowed)
    if unknown:
        raise ManifestError(f"unknown structure blocks: {sorted(unknown)}")


def _add(table: dict, key, coeff) -> None:
    """Add `coeff` at `key`: an entry listed twice reads as twice its coefficient."""
    table[key] = table.get(key, ZERO) + coeff


def _maps(structure, key) -> dict:
    """A block of one-input, one-output entries as {(input, output): coeff}."""
    table: dict = {}
    for inputs, outputs, coeff in _entries(_block(structure, key), arity=1):
        _add(table, (inputs[0], outputs[0]), coeff)
    return table


def _brackets(structure, key, required=False) -> dict:
    """A block of two-input, one-output entries as {(a, b): {output: coeff}}."""
    table: dict = {}
    for inputs, outputs, coeff in _entries(_block(structure, key, required=required), arity=2):
        _add(table.setdefault((inputs[0], inputs[1]), {}), outputs[0], coeff)
    return table


def _build_dg_lie(name, basis, structure, truncation) -> DgLieAlgebra:
    _check_blocks(structure, {"differential", "bracket"})
    space = GradedVectorSpace(basis)
    return DgLieAlgebra(space, _maps(structure, "differential"), _brackets(structure, "bracket"),
                        name=name)


def _build_linfty(name, basis, structure, truncation) -> LInftyAlgebra:
    _check_blocks(structure, {"brackets"})
    space = GradedVectorSpace(basis)
    shifted = space.shift(1)
    brackets: dict = {}
    for inputs, outputs, coeff in _entries(_block(structure, "brackets", required=True), arity=None):
        word, sign = normal_form(shifted, list(inputs))
        if word is None:
            raise ManifestError(f"bracket entry on a collapsing word {inputs}")
        _add(brackets.setdefault(len(word), {}).setdefault(word, {}), outputs[0], sign * coeff)
    return LInftyAlgebra(space, brackets, name=name)


def _build_lie_bialgebra(name, basis, structure, truncation) -> LieBialgebraData:
    _check_blocks(structure, {"bracket", "cobracket"})
    bracket = _brackets(structure, "bracket")
    cobracket: dict = {}
    for inputs, outputs, coeff in _entries(_block(structure, "cobracket"), arity=1, out_arity=2):
        _add(cobracket.setdefault(inputs[0], {}), (outputs[0], outputs[1]), coeff)
    return LieBialgebraData(basis, bracket, cobracket, name=name)


def _build_bi_dg_lie(name, basis, structure, truncation) -> BiDgLieData:
    _check_blocks(structure, {"bracket", "differential", "delta"})
    return BiDgLieData(basis, _brackets(structure, "bracket"), _maps(structure, "differential"),
                       _maps(structure, "delta"), name=name)


def _build_associative(name, basis, structure, truncation) -> AssociativeAlgebraData:
    _check_blocks(structure, {"product", "differential"})
    return AssociativeAlgebraData(basis, _brackets(structure, "product", required=True),
                                  _maps(structure, "differential"), name=name)


def _build_artin(name, basis, structure, truncation) -> ArtinLocalAlgebra:
    _check_blocks(structure, {"product"})
    for label, deg in basis:
        if deg != 0:
            raise ManifestError("parameter rings are concentrated in degree zero")
    products: dict = {}
    for inputs, outputs, coeff in _entries(_block(structure, "product"), arity=2, out_arity=None):
        if len(outputs) > 1:
            raise ManifestError("ring product entries have at most one output")
        tgt = products.setdefault((inputs[0], inputs[1]), {})
        if outputs:
            _add(tgt, outputs[0], coeff)
    return ArtinLocalAlgebra([label for label, _ in basis], products, name=name)


def _word_operator(algebra, block, degree, name) -> Operator:
    entries: dict = {}
    for inputs, outputs, coeff in _entries(block, arity=None, out_arity=None):
        win = _normalize_input_word(algebra, inputs)
        wout, sign = (algebra.normalize(list(outputs)) if algebra.symmetric
                      else (tuple(outputs), ONE))
        if wout is None:
            continue
        _add(entries.setdefault(win, {}), wout, sign * coeff)
    return Operator(algebra, degree, entries, name=name)


def _normalize_input_word(algebra, inputs):
    if algebra.symmetric:
        word, sign = algebra.normalize(list(inputs))
        if word is None or sign != 1:
            raise ManifestError(f"operator entry on non-canonical word {inputs}")
        return word
    return tuple(inputs)


def _build_bv(name, basis, structure, truncation) -> BVAlgebra:
    _check_blocks(structure, {"d", "delta"})
    N = truncation.get("word_length", 4)
    space = GradedVectorSpace(basis)
    algebra = SymmetricWordAlgebra(space, N)
    d = _word_operator(algebra, _block(structure, "d"), 1, "d")
    delta = _word_operator(algebra, _block(structure, "delta"), -1, "Delta")
    return BVAlgebra(algebra, d, delta, name=name)


def _build_bv_infty(name, basis, structure, truncation) -> BVInftyAlgebra:
    _check_blocks(structure, {"operators"})
    N = truncation.get("word_length", 4)
    K = truncation.get("hbar_cutoff", 3)
    space = GradedVectorSpace(basis)
    algebra = SymmetricWordAlgebra(space, N)
    ops_block = structure.get("operators")
    if not isinstance(ops_block, Mapping):
        raise ManifestError("bv-infty manifests need an operators block keyed by arity")
    operators = {}
    for key, block in ops_block.items():
        try:
            n = int(key)
        except ValueError:
            raise ManifestError(f"operator arity {key!r} is not an integer")
        operators[n] = _word_operator(algebra, block, 3 - 2 * n, f"Delta_{n}")
    return BVInftyAlgebra(algebra, operators, K, name=name)


_BUILDERS = {
    "dg-lie": _build_dg_lie,
    "linfty": _build_linfty,
    "lie-bialgebra": _build_lie_bialgebra,
    "bi-dg-lie": _build_bi_dg_lie,
    "associative": _build_associative,
    "artin-ring": _build_artin,
    "bv": _build_bv,
    "bv-infty": _build_bv_infty,
}


def _canonical_document(doc: dict) -> dict:
    out = {
        "format_version": FORMAT_VERSION,
        "kind": doc["kind"],
        "name": doc.get("name", ""),
        "basis": [[str(l), int(d)] for l, d in doc["basis"]],
    }
    structure = doc.get("structure", {})
    canon_structure = {}
    for key in sorted(structure):
        block = structure[key]
        if isinstance(block, Mapping):
            canon_structure[key] = {
                str(sub): _canonical_entries(entries) for sub, entries in sorted(block.items())
            }
        else:
            canon_structure[key] = _canonical_entries(block)
    if canon_structure:
        out["structure"] = canon_structure
    if doc.get("truncation"):
        out["truncation"] = {k: int(v) for k, v in sorted(doc["truncation"].items())}
    return out


def _canonical_entries(block) -> list:
    entries = []
    for entry in block:
        coeff = parse_rational(entry.get("coeff", "1"))
        entries.append({
            "inputs": [str(x) for x in entry.get("inputs", [])],
            "outputs": [str(x) for x in entry.get("outputs", [])],
            "coeff": str(coeff),
        })
    entries.sort(key=lambda e: (e["inputs"], e["outputs"]))
    return entries


def emit_manifest(manifest: Manifest) -> str:
    return json.dumps(manifest.document, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
