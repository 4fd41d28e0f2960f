"""Reference solvers and pruning baselines.

backsolve_exact is the optimality oracle for a fixed support;
brute_force_support is the global oracle for instances small enough to
enumerate. magnitude_prune and activation_weighted_prune are the two
standard one-shot baselines the solver is compared against.

Each checks its Gram and dense weights once, through linalg.check_instance;
brute force then hands every candidate to the exact solver's unchecked kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .diagnostics import IterTrace, TheoremBound, Violation
from .errors import DegenerateInstanceError, InvalidInputError
from .linalg import (
    as_matrix, check_finite, check_instance, objective_and_error, output_energy, quadratic_form,
)
from .projections import (
    SparsityBudget,
    Unstructured,
    budget_mask,
    budget_size,
    check_support,
)

BRUTE_FORCE_LIMIT = 20


@dataclass
class PruneSolution:
    """A pruned weight matrix with its quality metrics.

    objective and rel_error are evaluated against the Gram matrix when
    one is available; methods that never see a Gram leave them None.
    method is the name `l0prune prune --method` gives the solver ("alps",
    "mp", "wanda"), or the oracle's ("backsolve", "brute_force"). The
    last three fields hold the diagnostics checkers' results on the trace.
    """

    w: np.ndarray
    support: np.ndarray
    objective: float | None
    rel_error: float | None
    method: str
    stabilized: bool = True
    iterations: int = 0
    rho_final: float | None = None
    pcg_iters_used: int = 0
    polish_rounds: int = 0
    trace: IterTrace | None = field(default=None, repr=False)
    lemma1_violations: list[Violation] | None = None
    lemma2_violations: list[Violation] | None = None
    theorem1_bound: TheoremBound | None = None


def build_solution(w, h, w_hat, method: str, **extra) -> PruneSolution:
    """Package w with its support, metrics when h is given, and extra fields.

    Checks no input: every caller builds w itself from arrays it checked.
    The metrics raise where linalg.objective_and_error does.
    """
    objective, rel = (None, None) if h is None else objective_and_error(h, w_hat, w)
    return PruneSolution(w, w != 0.0, objective, rel, method, **extra)


def backsolve_exact(h, w_hat, support) -> np.ndarray:
    """Exact restricted least squares, column by column.

    support is a boolean array shaped like w_hat, as support_of returns
    it. For each output column solves the normal equations of the layer
    objective restricted to that column's support rows. Columns with an
    empty support come back zero. A singular restricted system gets its
    minimum-norm optimum, so a kept dead input holds 0. H W_hat or an
    answer weight past float64's range raises DegenerateInstanceError.
    """
    h, w_hat = check_instance(h, w_hat)
    support = check_support(support, w_hat.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        g = h @ w_hat
    check_finite(g, "H W_hat")
    w = _backsolve(h, g, support)
    check_finite(w, "an exact weight")
    return w


def _backsolve(h: np.ndarray, g: np.ndarray, support: np.ndarray) -> np.ndarray:
    """backsolve_exact's kernel for checked arrays, given G = H W_hat."""
    w = np.zeros_like(g)
    for j in range(g.shape[1]):
        rows = np.flatnonzero(support[:, j])
        if rows.size == 0:
            continue
        sub, rhs = h[np.ix_(rows, rows)], g[rows, j]
        try:
            w[rows, j] = np.linalg.solve(sub, rhs)
        except np.linalg.LinAlgError:
            # rhs = H[rows] W_hat lies in the range of the PSD sub: consistent.
            w[rows, j] = np.linalg.lstsq(sub, rhs, rcond=None)[0]
    return w


def brute_force_support(h, w_hat, k: int) -> PruneSolution:
    """Global optimum by enumerating every support of size k.

    Only available for at most BRUTE_FORCE_LIMIT weights; the candidate
    count explodes combinatorially beyond that. The instance is checked
    and G = H W_hat formed once; each candidate then goes straight to the
    exact solver's kernel. A singular candidate is solved at minimum norm,
    not skipped, so dead inputs cost what a full-rank layer does. Objective
    ties resolve to the lexicographically smallest support, which
    enumeration order provides for free.
    """
    h, w_hat = check_instance(h, w_hat)
    n_in, n_out = w_hat.shape
    size = n_in * n_out
    if size > BRUTE_FORCE_LIMIT:
        raise InvalidInputError(
            f"instance has {size} weights; enumeration is capped at {BRUTE_FORCE_LIMIT}"
        )
    budget_size(Unstructured(k), w_hat.shape)
    # The energy is the objective of W = 0, so it bounds every candidate's
    # optimum: if it is a normal float64, no candidate objective overflows.
    g = output_energy(h, w_hat)[0]
    best_w = None
    best_obj = np.inf
    for indices in combinations(range(size), k):
        mask = np.zeros(size, dtype=bool)
        mask[list(indices)] = True
        w = _backsolve(h, g, mask.reshape(n_in, n_out))
        # Clamped at zero as layer_objective clamps it; an inf or NaN never wins.
        obj = max(quadratic_form(h, w_hat - w)[1], 0.0)
        if obj < best_obj:
            best_obj = obj
            best_w = w
    if best_w is None:
        raise DegenerateInstanceError("no candidate support has a finite objective")
    return build_solution(best_w, h, w_hat, "brute_force")


def _keep_best(scores, w_hat, h, budget: SparsityBudget, method: str) -> PruneSolution:
    """Keep the dense weights whose scores rank highest under the budget."""
    budget_size(budget, w_hat.shape)
    w = np.where(budget_mask(scores, budget), w_hat, 0.0)
    return build_solution(w, h, w_hat, method)


def magnitude_prune(w_hat, budget: SparsityBudget, gram=None) -> PruneSolution:
    """Keep the largest-magnitude weights allowed by the budget.

    gram, when given, is validated and used only for the metrics.
    """
    if gram is None:
        w_hat = as_matrix(w_hat, "dense weights")
    else:
        gram, w_hat = check_instance(gram, w_hat)
    return _keep_best(np.abs(w_hat), w_hat, gram, budget, "mp")


def activation_weighted_prune(w_hat, h, budget: SparsityBudget) -> PruneSolution:
    """Keep weights scoring highest on |weight| times input activation norm.

    The score for weight (i, j) is |W_hat[i, j]| * sqrt(H[i, i]), i.e. the
    weight magnitude scaled by the calibration norm of input channel i.
    Selection follows the budget (global top-k or per-group top-n) and the
    surviving weights keep their dense values. This scores against the
    Gram diagonal only, ignoring cross-channel correlation, so it is an
    approximation of activation-aware selection rather than a solver.
    """
    h, w_hat = check_instance(h, w_hat)
    channel_norms = np.sqrt(np.clip(np.diag(h), 0.0, None))
    # A score past float64's range is inf; build_solution's gap or energy raises.
    with np.errstate(over="ignore"):
        scores = np.abs(w_hat) * channel_norms[:, None]
    return _keep_best(scores, w_hat, h, budget, "wanda")
