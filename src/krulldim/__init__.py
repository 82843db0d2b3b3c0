"""Krull dimensions of tensor products of k-algebras over a constructor DSL."""

from .errors import (
    ApplicabilityError,
    ConsistencyError,
    ConstraintError,
    InexactPairError,
    KrulldimError,
    ParseError,
)
from .formulas import (
    Applicability,
    DimReport,
    Witness,
    af_pair_dim,
    applicability,
    d_value,
    dim_tensor,
    fiber_dim,
    lambda_bound,
    pullback_pair_dim,
    sct_height_af,
    sharp_dim,
    thm28_dim,
    thm28_ht,
)
from .oracle import (
    AnchoredChain,
    CheckReport,
    brewer_poly_dim,
    catalog,
    chain_enumerate,
    ext_field_dim,
    iter_chains,
    run_suite,
    suite_names,
)
from .parser import parse_expr, to_source
from .spectra import (
    AfDomain,
    AlgebraExpr,
    Field,
    PolyRing,
    Pullback,
    SpectrumSummary,
    Stratum,
    Valuation,
    is_af_poly,
    summarize,
)

__version__ = "0.1.0"
