"""Layer-wise pruning of linear layers under hard sparsity budgets.

Given the Gram matrix H = X^T X of calibration activations and dense
weights W_hat, the solvers here minimize the layer reconstruction error
tr((W_hat - W)^T H (W_hat - W)) subject to a global or n:m sparsity
budget on W, and verify their own convergence behavior from recorded
iteration traces.

Exported: what users call, construct (NM, Unstructured) or catch, and
PruneSolution; a type only read off a result stays in its submodule.
The solver's constants stay in their modules: RHO0, the penalty schedule
and MAX_ITERS (admm_solve's default max_iters) in l0prune.admm, and the
refinement cap CG_ITERS in l0prune.pcg.
"""

from .admm import admm_solve
from .baselines import (
    PruneSolution,
    activation_weighted_prune,
    backsolve_exact,
    brute_force_support,
    magnitude_prune,
)
from .errors import (
    DegenerateInstanceError,
    InvalidInputError,
    PruneError,
)
from .linalg import gram_from_activations, layer_objective, relative_error
from .matrixio import read_matrix, write_matrix
from .pcg import pcg_refine
from .projections import NM, Unstructured, budget_from_sparsity, support_of

__all__ = [
    "DegenerateInstanceError",
    "InvalidInputError",
    "NM",
    "PruneError",
    "PruneSolution",
    "Unstructured",
    "activation_weighted_prune",
    "admm_solve",
    "backsolve_exact",
    "brute_force_support",
    "budget_from_sparsity",
    "gram_from_activations",
    "layer_objective",
    "magnitude_prune",
    "pcg_refine",
    "read_matrix",
    "relative_error",
    "support_of",
    "write_matrix",
]

__version__ = "0.1.0"
