"""Layer-wise pruning of linear layers under hard sparsity budgets.

Given the Gram matrix H = X^T X of calibration activations and dense
weights W_hat, the solvers here minimize the layer reconstruction error
tr((W_hat - W)^T H (W_hat - W)) subject to a global or n:m sparsity
budget on W, and verify their own convergence behavior from recorded
iteration traces.

The names exported here are the user-facing API; solver internals (ADMM
state and step, rescaling, eigendecomposition, projections) live in submodules.
"""

from .admm import AdmmConfig, admm_solve, budget_from_sparsity
from .baselines import (
    PruneSolution,
    activation_weighted_prune,
    backsolve_exact,
    brute_force_support,
    magnitude_prune,
)
from .diagnostics import (
    IterRecord,
    IterTrace,
    TheoremBound,
    Violation,
    check_lemma1,
    check_lemma2,
    theorem1_residual_bound,
)
from .errors import (
    DegenerateInstanceError,
    DegenerateSupportError,
    InvalidInputError,
    PruneError,
)
from .linalg import gram_from_activations, layer_objective, relative_error
from .matrixio import read_matrix, write_matrix
from .pcg import pcg_refine
from .projections import NM, SparsityBudget, Unstructured, support_of

__all__ = [
    "AdmmConfig",
    "DegenerateInstanceError",
    "DegenerateSupportError",
    "InvalidInputError",
    "IterRecord",
    "IterTrace",
    "NM",
    "PruneError",
    "PruneSolution",
    "SparsityBudget",
    "TheoremBound",
    "Unstructured",
    "Violation",
    "activation_weighted_prune",
    "admm_solve",
    "backsolve_exact",
    "brute_force_support",
    "budget_from_sparsity",
    "check_lemma1",
    "check_lemma2",
    "gram_from_activations",
    "layer_objective",
    "magnitude_prune",
    "pcg_refine",
    "read_matrix",
    "relative_error",
    "support_of",
    "theorem1_residual_bound",
    "write_matrix",
]

__version__ = "0.1.0"
