"""Exact moments of the flat density-matrix ensemble and the probability simplex.

The exact engines (``combinat``, ``characters``, ``classical``, ``quantum``)
work in arbitrary-precision integer/rational arithmetic; ``montecarlo``
provides the floating-point verification oracle and ``cli`` the command-line
front end. ``import rho_moments`` loads no submodule: each public name and each
submodule resolves on first access (PEP 562), through ``_HOMES``, so a name
loads only its own module and what that imports, and numpy only with
``montecarlo``.
"""

__version__ = "0.1.0"

# each public name, in ``__all__`` order, and the submodule that defines it
_HOMES = {
    **dict.fromkeys(
        ["Partition", "CycleType", "enumerate_partitions", "enumerate_cycle_types", "class_order", "vandermonde",
         "super_factorial", "lower_triangle_count"],
        "combinat",
    ),
    **dict.fromkeys(["PowerSumPoly", "sym_character", "unitary_char_poly", "weyl_dim", "dim_char_sum"], "characters"),
    **dict.fromkeys(
        ["SimplexMomentSpec", "DirichletSpec", "simplex_moment", "dirichlet_moment", "beta_function"], "classical"
    ),
    **dict.fromkeys(
        ["ScaledRational", "EntryMomentSpec", "TraceProductExpr", "hs_volume", "det_lemma_value", "int_lemma_value",
         "eval_power_sums", "mgf_coefficient", "omega_expand", "moment_traces", "entry_moment", "purity_mean"],
        "quantum",
    ),
    **dict.fromkeys(["EstimateReport", "estimate_purity", "estimate_mgf", "estimate_lambda_min_law"], "montecarlo"),
    "CapExceededError": "errors",
}
_SUBMODULES = {*_HOMES.values(), "cli", "verify"}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")  # the import binds it here too
    if name in _HOMES:
        return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES, *_SUBMODULES})
