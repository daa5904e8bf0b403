"""The package's public surface, pinned: a change that adds or drops a
top-level name of `mklmmwu` edits PUBLIC_NAMES here and says why."""

import pkgutil
import types

import mklmmwu

PUBLIC_NAMES = [
    "Dataset",
    "DegenerateModel",
    "EmptyDataset",
    "GAUSSIAN_BANDWIDTHS",
    "GramAccessor",
    "InfeasibleDual",
    "KernelSpec",
    "MalformedModel",
    "MklError",
    "MklModel",
    "NonBinaryLabels",
    "NumericalFailure",
    "OneClassSplit",
    "POLYNOMIAL_DEGREES",
    "ParseError",
    "ScalingParams",
    "SolverConfig",
    "SolverState",
    "apply_scaling",
    "apply_update",
    "bind",
    "compute_bias",
    "decision_values",
    "error_rate",
    "exponentiate_m",
    "extract_weights",
    "find_pair",
    "fit",
    "fit_scaling",
    "iteration_budget",
    "load_model",
    "make_default_family",
    "model_from_state",
    "parse_libsvm",
    "predict",
    "save_model",
    "serialize_model",
    "split",
    "train",
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(mklmmwu).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_package_ships_only_the_system_modules():
    # test-only references live in tests/reference.py, not in the package
    assert sorted(m.name for m in pkgutil.iter_modules(mklmmwu.__path__)) == [
        "cli", "data", "errors", "kernels", "model", "solver",
    ]
