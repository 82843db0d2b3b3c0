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

# The check suites' and the oracle's names, each resolved from its module on
# first use (PEP 562), so that ``import krulldim`` loads neither module.
_LAZY = {
    "CheckReport": "checks",
    "catalog": "checks",
    "run_suite": "checks",
    "suite_names": "checks",
    "AnchoredChain": "oracle",
    "brewer_poly_dim": "oracle",
    "chain_enumerate": "oracle",
    "ext_field_dim": "oracle",
    "iter_chains": "oracle",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
