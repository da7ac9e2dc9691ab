"""Exact-arithmetic toolkit for symmetric group divisible designs, linked
systems of type II, and their 5-class association schemes."""

from .algebra import IntMatrix
from .designs import (
    Certificate,
    GddParams,
    IncidenceMatrix,
    check_bose,
    check_k_commutation,
    lambda_formulas,
    partial_complement,
    verify_gdd,
)
from .gf import GFContext, gf_from_order, gf_make
from .latin import (
    LinkedMolsFamily,
    compose,
    is_orthogonal,
    linked_mols_from_gf,
    mols_from_gf,
    search_linked_mols,
    verify_linked,
)
from .linked import (
    LinkedParams,
    LinkedSystemII,
    bgw_generate,
    build_from_mub_bush,
    build_tilde_l,
    build_twin,
    bush_search,
    conference_to_gdd,
    gcm_to_gdd,
    pair_system,
    sigma_tau_rho,
    verify_linked_system,
)
from .resolvable import (
    AuxiliarySet,
    aux_from_affine_geometry,
    aux_from_hadamard,
    aux_to_parallel_classes,
    verify_auxiliary,
)
from .scanner import FeasibleRow, scan_table1, scan_table2
from .schemes import (
    AssociationScheme,
    assemble_scheme,
    check_fusion,
    compute_intersection_numbers,
    extract_linked_system,
    load_scheme,
)

__version__ = "0.1.0"
