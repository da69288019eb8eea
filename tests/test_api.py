import importlib
import pkgutil

import pytest

import rho_moments

PUBLIC_NAMES = {
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
    "sample_simplex",
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
    "KsReport",
    "sample_density",
    "estimate_entry_moment",
    "estimate_purity",
    "estimate_mgf",
    "ks_eigenvalue_check",
    "CapExceededError",
    "__version__",
}


def test_package_exports_are_pinned():
    assert len(rho_moments.__all__) == len(PUBLIC_NAMES)
    assert set(rho_moments.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(rho_moments.__path__)])
def test_module_exports_resolve(name):
    module = importlib.import_module(f"rho_moments.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
