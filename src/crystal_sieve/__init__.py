"""Exact q-dimensions of finite-type highest-weight crystals, residues
mod q^n - 1 with their orbit-count decompositions, and cyclic sieving
verification for semistandard tableau crystals."""

from .cartan import (
    CartanDatum,
    CartanType,
    build_cartan_datum,
    copairing,
    corho_pairing,
    gl_weight,
    pairing,
    rho_pairing,
    root_norm,
)
from .csp import (
    AaResult,
    CspReport,
    PrimeCriterion,
    RectVerdict,
    aa_criterion,
    census_vs_a,
    csp_check,
    orbit_formula,
    prime_specialization_criterion,
    rect_characterization,
)
from .errors import CrystalSieveError
from .partitions import as_partition, dominates, partitions_of, partitions_up_to
from .qdim import (
    CongruenceResult,
    congruence,
    divisibility_condition,
    kappa,
    orbit_counts,
    principal_specialization,
    qdim,
    qdim_dual,
    weyl_dim,
)
from .qpoly import (
    IntPoly,
    cyclotomic,
    divisors,
    eval_root_of_unity,
    format_poly,
    mobius,
    orbit_basis_element,
    parse_poly,
    q_ratio,
    rem_mod,
    root_values,
)
from .tableaux import (
    MCoreResult,
    OrbitCensus,
    Tableau,
    bender_knuth,
    c_action,
    crystal_e,
    crystal_f,
    enumerate_ssyt,
    fixed_points,
    kostka,
    m_core,
    orbit_census,
    promotion,
    ssyt_count,
    superstandard,
    weyl_s,
)

__version__ = "0.1.0"
