"""Every exported name resolves, so a deleted helper cannot linger as a stale export."""

import ast
import importlib
import types
from pathlib import Path

import pytest

import spinrsc

PACKAGE = Path(spinrsc.__file__).resolve().parent
MODULES = sorted(
    path.stem for path in PACKAGE.glob("*.py") if path.stem not in ("__init__", "__main__")
)


def _reexports():
    """``(module, name)`` for every name ``spinrsc/__init__.py`` imports from a submodule."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(f"spinrsc.{module_name}")
    assert module.__all__, module_name
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == [], f"spinrsc.{module_name}.__all__ names what the module lacks"


def test_every_package_reexport_is_in_its_modules_all():
    reexports = _reexports()
    assert reexports
    stray = [
        f"{module_name}.{name}"
        for module_name, name in reexports
        if name not in importlib.import_module(f"spinrsc.{module_name}").__all__
    ]
    assert stray == []


# What the CLI, the demos, the README and bench/ call, and the types those
# functions take, return or raise.  A helper that only tests use stays private.
PACKAGE_EXPORTS = {
    "ControlParams", "CoverageReport", "CreatableParams", "CriticalLength", "Coupling",
    "CouplingModel", "DegenerateProtocolError", "EigensolverError", "MaximumNotFoundError",
    "OptimalProtocol", "RegionGrid", "SpectralDecomposition", "SpinRscError",
    "SweepModel", "SweepRow", "TransferMode", "amplitude_matrix", "beta2_coverage",
    "build_hamiltonian", "chain_decomposition", "create_state", "critical_length",
    "full_transition_amplitude", "lam_plus_sq", "maximize_over_time", "optimal_protocol",
    "receiver_from_params", "region_grid", "row_norm_sq", "sample_max_transfer", "sweep",
    "transition_amplitude",
}


def test_package_exports_exactly_the_public_api():
    public = {
        name
        for name, value in vars(spinrsc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PACKAGE_EXPORTS
