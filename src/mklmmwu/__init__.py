"""Multiple kernel learning with multiplicative-weights updates.

Learns a convex kernel combination and a max-margin classifier in O(m n)
memory with closed-form per-iteration updates; kernel columns are computed
on demand so no Gram matrix is ever materialized.
"""

from .data import (
    Dataset,
    ScalingParams,
    apply_scaling,
    fit_scaling,
    parse_libsvm,
    split,
)
from .errors import (
    DegenerateModel,
    EmptyDataset,
    InfeasibleDual,
    MalformedModel,
    MklError,
    NonBinaryLabels,
    NumericalFailure,
    OneClassSplit,
    ParseError,
)
from .kernels import (
    GAUSSIAN_BANDWIDTHS,
    POLYNOMIAL_DEGREES,
    GramAccessor,
    KernelSpec,
    bind,
    make_default_family,
)
from .model import (
    MklModel,
    compute_bias,
    decision_values,
    error_rate,
    extract_weights,
    fit,
    load_model,
    model_from_state,
    predict,
    save_model,
    serialize_model,
)
from .solver import (
    SolverConfig,
    SolverState,
    apply_update,
    exponentiate_m,
    find_pair,
    iteration_budget,
    train,
)

__version__ = "0.1.0"
