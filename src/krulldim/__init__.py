"""Krull dimensions of tensor products of k-algebras over a constructor DSL."""

from .checks import CheckReport, catalog, run_suite, suite_names
from .errors import (
    ApplicabilityError,
    ConsistencyError,
    ConstraintError,
    InexactPairError,
    KrulldimError,
    ParseError,
)
from .formulas import (
    DimReport,
    Witness,
    af_pair_dim,
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
from .oracle import AnchoredChain, brewer_poly_dim, chain_enumerate, ext_field_dim, iter_chains
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
