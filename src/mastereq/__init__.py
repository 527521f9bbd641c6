"""Exact-arithmetic kernel for classical and quantum deformation theory.

Graded homotopy-algebraic structures (dg-Lie, L-infinity, dg-BV, BV-infinity)
on finite bases over exact rationals; Maurer-Cartan and quantum master
equations over nilpotent parameter rings; representability checks; a
manifest-driven certification CLI.
"""

from .artin import ArtinLocalAlgebra, TRIVIAL_RING, power_ring, square_zero_ring
from .bv import (
    BVAlgebra,
    BVInftyAlgebra,
    antibracket,
    bvinfty_qme_residual,
    conjugation_identity_check,
    derived_bracket,
    derived_brackets_linfty_check,
    qme_exp_check,
    qme_residual,
    qme_solve_perturbative,
)
from .coalgebra import (
    CoalgebraMorphism,
    Coderivation,
    conv_exp,
    conv_log,
    convolve,
)
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
    hbar_extended_dg_lie,
    qm_bidg_residual,
)
from .diagnostics import (
    CheckResult,
    ManifestError,
    MasterEqError,
    PreconditionError,
    StructureError,
)
from .graded import DegreeError, GradedVectorSpace, koszul_sign
from .linfty import (
    DgLieAlgebra,
    LInftyAlgebra,
    MaurerCartanElement,
    chuang_lazarev_morphism_defect,
    chuang_lazarev_residual,
    coderivation_dg_lie,
    deformed_bracket_check,
    emce_residual,
    mc_element,
    mc_exp_map,
    mc_is_solution,
    mc_solve_perturbative,
    quillen_bijection_check,
)
from .manifest import emit_manifest, parse_manifest, parse_manifest_text
from .morphisms import (
    BVMorphism,
    check_bv_morphism,
    clalg_embed,
    compose_bv_morphisms,
    linfty_morphism_to_bvinfty,
    ring_map_to_bv_morphism,
    theorem_first_bijection_check,
    theorem_second_bijection_check,
)
from .multivectors import Polyvector, unimodular_poisson_check
from .series import HbarSeries, SeriesContext
from .words import SymmetricWordAlgebra, TensorWordAlgebra, TruncationOverflow

__version__ = "0.1.0"
