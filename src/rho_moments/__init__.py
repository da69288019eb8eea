"""Exact moments of the flat density-matrix ensemble and the probability simplex.

The exact engines (``combinat``, ``characters``, ``classical``, ``quantum``)
work in arbitrary-precision integer/rational arithmetic; ``montecarlo``
provides the floating-point verification oracle and ``cli`` the command-line
front end. The ``montecarlo`` names load numpy, so they resolve on first access
(PEP 562) and ``import rho_moments`` leaves numpy unloaded.
"""

from .classical import (
    DirichletSpec,
    SimplexMomentSpec,
    beta_function,
    dirichlet_moment,
    simplex_moment,
)
from .combinat import (
    CycleType,
    Partition,
    class_order,
    enumerate_cycle_types,
    enumerate_partitions,
    lower_triangle_count,
    super_factorial,
    vandermonde,
)
from .characters import (
    PowerSumPoly,
    dim_char_sum,
    sym_character,
    unitary_char_poly,
    weyl_dim,
)
from .errors import CapExceededError
from .quantum import (
    EntryMomentSpec,
    ScaledRational,
    TraceProductExpr,
    det_lemma_value,
    entry_moment,
    eval_power_sums,
    hs_volume,
    int_lemma_value,
    mgf_coefficient,
    moment_traces,
    omega_expand,
    purity_mean,
)

__version__ = "0.1.0"

_MONTECARLO_NAMES = {
    "EstimateReport",
    "estimate_lambda_min_law",
    "estimate_mgf",
    "estimate_purity",
}

__all__ = [
    "Partition",
    "CycleType",
    "enumerate_partitions",
    "enumerate_cycle_types",
    "class_order",
    "vandermonde",
    "super_factorial",
    "lower_triangle_count",
    "PowerSumPoly",
    "sym_character",
    "unitary_char_poly",
    "weyl_dim",
    "dim_char_sum",
    "SimplexMomentSpec",
    "DirichletSpec",
    "simplex_moment",
    "dirichlet_moment",
    "beta_function",
    "ScaledRational",
    "EntryMomentSpec",
    "TraceProductExpr",
    "hs_volume",
    "det_lemma_value",
    "int_lemma_value",
    "eval_power_sums",
    "mgf_coefficient",
    "omega_expand",
    "moment_traces",
    "entry_moment",
    "purity_mean",
    "EstimateReport",
    "estimate_purity",
    "estimate_mgf",
    "estimate_lambda_min_law",
    "CapExceededError",
    "__version__",
]


def __getattr__(name: str):
    if name in _MONTECARLO_NAMES:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
