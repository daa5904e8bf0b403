"""The package's public surface, pinned: a change that adds or drops a
top-level name of `mklmmwu` edits PUBLIC_NAMES here and says why."""

import types

import mklmmwu

PUBLIC_NAMES = [
    "BruteResult",
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
    "arrow_exp",
    "bind",
    "brute_qcqp",
    "compute_bias",
    "decision_values",
    "dense_expm",
    "error_rate",
    "eval_kernel",
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
    "recompute_state",
    "save_model",
    "serialize_libsvm",
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
