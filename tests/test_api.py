import ast
import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import rho_moments
from rho_moments import (
    CapExceededError, CycleType, DirichletSpec, EntryMomentSpec, Partition, ScaledRational, SimplexMomentSpec,
    TraceProductExpr, det_lemma_value, dim_char_sum, dirichlet_moment, entry_moment, moment_traces, omega_expand,
    simplex_moment,
)
from rho_moments.cli import main
from rho_moments.montecarlo import EstimateReport
from rho_moments.verify import CheckResult

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
}


def test_package_exports_are_pinned():
    assert len(rho_moments.__all__) == len(PUBLIC_NAMES)
    assert set(rho_moments.__all__) == PUBLIC_NAMES
    # every name resolves on first access, the Monte Carlo names too
    namespace = {}
    exec("from rho_moments import *", namespace)
    assert set(namespace) >= PUBLIC_NAMES
    assert namespace["estimate_purity"] is rho_moments.montecarlo.estimate_purity


@pytest.mark.parametrize("name", ["sample_density", "estimate_entry_moment"])
def test_removed_monte_carlo_names_do_not_resolve(name):
    with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
        getattr(rho_moments, name)


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(rho_moments.__path__)])
def test_module_exports_resolve(name):
    module = importlib.import_module(f"rho_moments.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def imports_of(name: str, package: str) -> list[str]:
    """Each import of ``package`` or its submodules in ``rho_moments.<name>``'s source, as ``file:line: imports m``."""
    path = Path(rho_moments.__file__).with_name(f"{name}.py")
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        found += [f"{path.name}:{node.lineno}: imports {m}" for m in modules if m.split(".")[0] == package]
    return found


@pytest.mark.parametrize("name", ["combinat", "characters", "classical", "errors"])
def test_exact_module_imports_no_numpy(name):
    assert imports_of(name, "numpy") == []


# every value type is a ``combinat._Frozen``; read from the source, since numpy may load dataclasses itself
@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(rho_moments.__path__)])
def test_module_imports_no_dataclasses(name):
    assert imports_of(name, "dataclasses") == []


def tables_sym_chars(k: int, cap: int) -> None:
    result = CliRunner().invoke(main, ["tables", "sym-chars", "--k", str(k), "--cap-k", str(cap)])
    if result.exit_code == 1:
        raise CapExceededError(result.stderr.removeprefix("Error: "))
    assert result.exit_code == 0, result.output


CAPPED = {
    "entry_moment": lambda k, cap: entry_moment(EntryMomentSpec(2, ((1, 1),) * k), max_boxes=cap),
    "moment_traces": lambda k, cap: moment_traces([np.eye(2)] * k, max_boxes=cap),
    "omega_expand": lambda k, cap: omega_expand(CycleType((k,)), k, max_boxes=cap),
    "tables sym-chars": tables_sym_chars,
}


@pytest.mark.parametrize("name", CAPPED)
def test_every_cap_refuses_in_one_wording(name):
    cap = 3
    CAPPED[name](cap, cap)
    with pytest.raises(CapExceededError) as refused:
        CAPPED[name](cap + 1, cap)
    assert str(refused.value).startswith(f"K = {cap + 1} exceeds the cap of {cap}; ")


# int() truncated each of these: EntryMomentSpec(2.9, ((1.9, 2.2), (2.5, 1.0))) was N = 2, ((1, 2), (2, 1))
NON_INTEGER_INPUTS = {
    "Partition": lambda: Partition((2.5, 1)),
    "CycleType": lambda: CycleType((1, 1.0)),
    "EntryMomentSpec dimension": lambda: EntryMomentSpec(2.9, ((1, 2), (2, 1))),
    "EntryMomentSpec pairs": lambda: EntryMomentSpec(2, ((1.9, 2.2), (2.5, 1.0))),
    "beta": lambda: det_lemma_value((0, 1.5)),
    "ScaledRational exponent": lambda: ScaledRational(Fraction(1, 2), 1.5),
    "SimplexMomentSpec": lambda: SimplexMomentSpec((2.7, 0, 1)),
    "DirichletSpec exponents": lambda: DirichletSpec((1.0,)),
    "DirichletSpec weight_power": lambda: DirichletSpec((1,), 1, 1.8),
}


@pytest.mark.parametrize("build", NON_INTEGER_INPUTS.values(), ids=NON_INTEGER_INPUTS)
def test_integer_inputs_refuse_floats(build):
    with pytest.raises(TypeError):
        build()


def test_integer_inputs_take_numpy_integers():
    i = np.int64
    assert Partition((i(2), i(1))) == Partition((2, 1))
    assert CycleType((i(1), i(1))) == CycleType((1, 1))
    spec = EntryMomentSpec(i(2), ((i(1), i(2)), (i(2), i(1))))
    assert type(spec.dimension) is int and entry_moment(spec) == Fraction(1, 10)
    assert det_lemma_value((i(0), i(1))) == det_lemma_value((0, 1))
    assert ScaledRational(Fraction(1, 2), i(3)).twopi_exponent == 3
    assert simplex_moment(SimplexMomentSpec((i(2), i(0), i(1)))) == Fraction(1, 60)
    assert dirichlet_moment(DirichletSpec((i(1),), 1, i(1))) == dirichlet_moment(DirichletSpec((1,), 1, 1))


# The exact-path value types: each built twice, positionally and by keyword, then a different value,
# with the repr of the first.
VALUE_TYPES = {
    "SimplexMomentSpec": (
        lambda: SimplexMomentSpec((2, 0, 1), Fraction(3, 2)),
        lambda: SimplexMomentSpec(exponents=[2, 0, 1], scale="3/2"),
        lambda: SimplexMomentSpec((2, 0, 1)),
        "SimplexMomentSpec(exponents=(2, 0, 1), scale=Fraction(3, 2))",
    ),
    "DirichletSpec": (
        lambda: DirichletSpec((1, 0), 2, 3),
        lambda: DirichletSpec(exponents=(1, 0), scale=Fraction(2), weight_power=3),
        lambda: DirichletSpec((1, 0), 2),
        "DirichletSpec(exponents=(1, 0), scale=Fraction(2, 1), weight_power=3)",
    ),
    "ScaledRational": (
        lambda: ScaledRational(Fraction(1, 60), 1),
        lambda: ScaledRational(rational=Fraction(2, 120), twopi_exponent=1),
        lambda: ScaledRational(Fraction(1, 60)),
        "ScaledRational(rational=Fraction(1, 60), twopi_exponent=1)",
    ),
    "EntryMomentSpec": (
        lambda: EntryMomentSpec(2, ((1, 2), (2, 1))),
        lambda: EntryMomentSpec(dimension=2, pairs=[[1, 2], [2, 1]]),
        lambda: EntryMomentSpec(2, ((2, 1), (1, 2))),
        "EntryMomentSpec(dimension=2, pairs=((1, 2), (2, 1)))",
    ),
    "Partition": (
        lambda: Partition((3, 1)),
        lambda: Partition(parts=[3, 1, 0]),
        lambda: Partition((2, 2)),
        "Partition([3, 1])",
    ),
    "CycleType": (
        lambda: CycleType((2, 0)),
        lambda: CycleType(counts=[2]),
        lambda: CycleType((0, 1)),
        "CycleType([2, 0])",
    ),
    "EstimateReport": (
        lambda: EstimateReport(0.25 + 0j, 0.01, 0.2 + 0j, 5.0, 1000, 7),
        lambda: EstimateReport(
            estimate=complex(0.25), std_error=0.01, exact_value=complex(0.2), z_score=5.0, sample_count=1000, seed=7
        ),
        lambda: EstimateReport(0.25 + 0j, 0.01, 0.2 + 0j, 5.0, 1000, 8),
        "EstimateReport(estimate=(0.25+0j), std_error=0.01, exact_value=(0.2+0j), z_score=5.0, sample_count=1000,"
        " seed=7)",
    ),
    "CheckResult": (
        lambda: CheckResult("purity-mc-n2", np.bool_(True), "z=0.12"),
        lambda: CheckResult(name="purity-mc-n2", passed=1, detail="z=0.12"),
        lambda: CheckResult("purity-mc-n2", False, "z=0.12"),
        "CheckResult(name='purity-mc-n2', passed=True, detail='z=0.12')",
    ),
}


@pytest.mark.parametrize("build, same, other, text", VALUE_TYPES.values(), ids=VALUE_TYPES)
def test_value_types_compare_hash_and_print_by_field(build, same, other, text):
    value = build()
    assert repr(value) == text
    assert value == same() and hash(value) == hash(same()) and len({value, same()}) == 1
    assert value != other() and len({value, other()}) == 2
    assert copy.deepcopy(value) == value and pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("build, same, other, text", VALUE_TYPES.values(), ids=VALUE_TYPES)
def test_value_types_are_read_only(build, same, other, text):
    value = build()
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(other(), field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == text


def test_value_types_of_equal_fields_differ_by_type():
    # a frozen dataclass's equality: the classes must match, not only the fields
    class Subclass(SimplexMomentSpec):
        __slots__ = ()

    assert Subclass((1, 2)) != SimplexMomentSpec((1, 2)) and SimplexMomentSpec((1, 2)) != Subclass((1, 2))
    # but a subclass keeps the fields: equal to, hashed and printed like its own kind
    assert Subclass((1, 2)) == Subclass((1, 2)) and hash(Subclass((1, 2))) == hash(SimplexMomentSpec((1, 2)))
    assert repr(Subclass((1, 2))).endswith(".Subclass(exponents=(1, 2), scale=Fraction(1, 1))")
    assert SimplexMomentSpec((1, 2)) != DirichletSpec((1, 2))
    assert ScaledRational(Fraction(1, 2)) != Fraction(1, 2)
    # Partition and CycleType compare by exact class as well
    for cls in (Partition, CycleType):
        Sub = type("Sub", (cls,), {"__slots__": ()})
        assert Sub((2, 1)) != cls((2, 1)) and cls((2, 1)) != Sub((2, 1)) and Sub((2, 1)) == Sub((2, 1))


# the two term sums, each built twice, then with other terms (and, for TraceProductExpr, another order)
TERM_SUMS = {
    "PowerSumPoly": (
        lambda: dim_char_sum(3, 2),
        [lambda: dim_char_sum(3, 3)],
    ),
    "TraceProductExpr": (
        lambda: omega_expand(CycleType((0, 2)), 4),
        [
            lambda: omega_expand(CycleType((2, 1)), 4),
            lambda: TraceProductExpr(5, omega_expand(CycleType((0, 2)), 4).terms),
        ],
    ),
}


@pytest.mark.parametrize("build, others", TERM_SUMS.values(), ids=TERM_SUMS)
def test_term_sums_compare_by_terms_are_read_only_and_unhashable(build, others):
    value = build()
    assert value == build() and all(value != other() for other in others)
    assert copy.deepcopy(value) == value and pickle.loads(pickle.dumps(value)) == value
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(others[0](), field))
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(TypeError, match=f"^unhashable type: '{type(value).__name__}'$"):
        hash(value)
    assert value == build()
