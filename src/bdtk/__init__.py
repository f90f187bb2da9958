"""Exact and certified-approximate computation in smooth Bunce-Deddens-Toeplitz
operator algebras: band arithmetic over S-adic odometers, Toeplitz lifts with
exact compact corrections, certified Bloch-symbol norms, functional calculus,
derivation classification round trips and numerical Fredholm indices."""

from .arith import (
    INF,
    GsRational,
    Residue,
    Supernatural,
    embed_int,
    gs_add,
    gs_contains,
    odometer,
    parse_supernatural,
    sn_divides,
)
from .bd import (
    BdElement,
    bd_adjoint,
    bd_apply,
    bd_delta_L,
    bd_element,
    bd_equal,
    bd_fourier,
    bd_m,
    bd_mul,
    bd_norm,
    bd_one,
    bd_p_norm,
    bd_rho,
    bd_symbol,
    bd_v,
    bd_zero,
)
from .bdt import (
    BdtElement,
    bdt,
    bdt_adjoint,
    bdt_dK,
    bdt_equal,
    bdt_fourier,
    bdt_from_compact,
    bdt_mul,
    bdt_rho,
    bdt_truncate,
    bdt_u,
    correction,
    tau,
    toeplitz,
)
from .calculus import (
    CertifiedElement,
    bd_exp,
    bd_invert,
    bdt_invert,
    check_exp_bound_b,
    check_exp_bound_c,
    k_exp,
    smooth_calc,
)
from .compact import (
    CompactMatrix,
    k_dK,
    k_mn_norm,
    k_rho,
    k_units,
)
from .derivations import (
    CovariantComponent,
    DerivationSpec,
    der_apply,
    der_check_covariance,
    der_component,
    der_covariant_data,
    der_leibniz_residual,
    der_reconstruct,
    derivation,
)
from .errors import (
    BdtkError,
    MembershipError,
    NotFredholmError,
    NotInvertibleError,
    ReconstructionMismatchError,
    ToleranceUnreachableError,
    UnstableIndexError,
    UnsupportedDerivationError,
)
from .index import IndexResult, fredholm_index, k0_demo, winding
from .scalars import Scalar
from .ulc import (
    UlcFunction,
    ulc,
    ulc_character,
    ulc_eval,
    ulc_shift,
    ulc_sup_norm,
)
from .verify import VerifyReport, report_to_json, run_suite

__version__ = "0.1.0"
