"""Reference solvers and pruning baselines.

backsolve_exact is the optimality oracle for a fixed support;
brute_force_support is the global top-k oracle for layers of up to 18
inputs. magnitude_prune and activation_weighted_prune are the two
standard one-shot baselines the solver is compared against.

Each checks its Gram and dense weights once, through linalg.check_instance;
both oracles then solve through _solve, at minimum norm where singular.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .diagnostics import IterTrace, TheoremBound, Violation
from .errors import DegenerateInstanceError, InvalidInputError
from .linalg import as_matrix, check_finite, check_instance, objective_and_error, output_energy
from .projections import (
    SparsityBudget,
    Unstructured,
    budget_mask,
    budget_size,
    check_support,
)

BRUTE_FORCE_LIMIT = 2**23


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
    w = np.zeros_like(g)
    for j in range(g.shape[1]):
        rows = np.flatnonzero(support[:, j])
        if rows.size:
            w[rows, j] = _solve(h[np.ix_(rows, rows)], g[rows, j])
    check_finite(w, "an exact weight")
    return w


def _solve(sub: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a restricted system or a stack of them, at minimum norm if one is singular."""
    try:
        return np.linalg.solve(sub, rhs)
    except np.linalg.LinAlgError:
        # Each rhs is H[rows] W_hat, in the range of its PSD sub: every member is consistent.
        n = sub.shape[-1]
        pairs = zip(sub.reshape(-1, n, n), rhs.reshape(sub.size // n**2, n, -1))
        answers = [np.linalg.lstsq(a, b, rcond=None)[0] for a, b in pairs]
        return np.stack(answers).reshape(rhs.shape)


def brute_force_support(h, w_hat, k: int) -> PruneSolution:
    """Global optimum over every support of size k, from per-column tables.

    The objective separates over columns, coupled by the budget only
    through their support sizes. Each size's C(n_in, s) restricted Grams
    are stacked and solved once against all of G = H W_hat (at minimum norm
    where singular), each column keeps its least objective by size, and a
    min-plus knapsack picks sizes that sum to k: 2^n_in systems in all.
    BRUTE_FORCE_LIMIT caps the tables, 2^n_in (n_in + n_out) + n_in n_out^2
    numbers, before k is checked. Ties go to a column's first subset, then
    to fewer weights in later columns, the last column first.
    """
    h, w_hat = check_instance(h, w_hat)
    n_in, n_out = w_hat.shape
    cells = 2**n_in * (n_in + n_out) + n_in * n_out**2
    if cells > BRUTE_FORCE_LIMIT:
        raise InvalidInputError(
            f"the oracle's tables would hold {cells} numbers; the cap is {BRUTE_FORCE_LIMIT}"
        )
    budget_size(Unstructured(k), w_hat.shape)
    g = output_energy(h, w_hat)[0]  # H W_hat, once the energy is found in range
    top, columns = min(n_in, k), np.arange(n_out)
    table = np.full((top + 1, n_out), np.einsum("ij,ij->j", w_hat, g))  # least objective by size
    answers = np.zeros((top + 1, n_in, n_out))  # each column's weights there
    for s in range(1, top + 1):
        rows = np.array(list(combinations(range(n_in), s)))
        subs, rhs = h[rows[:, :, None], rows[:, None, :]], g[rows]
        w = _solve(subs, rhs)
        with np.errstate(over="ignore", invalid="ignore"):
            obj = table[0] + np.einsum("csm,csm->cm", w, subs @ w - 2 * rhs)
        obj = np.fmin(np.maximum(obj, 0.0), np.inf)  # clamped at zero; a NaN loses as inf
        best, table[s] = obj.argmin(0), obj.min(0)
        answers[s, rows[best].T, columns] = w[best, :, columns].T
    # head[c, t]: the least objective of the first c columns keeping t weights.
    head = np.full((n_out + 1, k + 1), np.inf)
    head[0, 0] = 0.0
    for c in range(n_out):
        for s in range(top + 1):
            np.minimum(head[c + 1, s:], head[c, : k + 1 - s] + table[s, c], out=head[c + 1, s:])
    if head[n_out, k] == np.inf:
        raise DegenerateInstanceError("no candidate support has a finite objective")
    w = np.zeros_like(w_hat)
    for c in reversed(range(n_out)):
        sizes = np.arange(min(top, k) + 1)
        s = int(np.argmin(head[c, k - sizes] + table[sizes, c]))
        w[:, c] = answers[s, :, c]
        k -= s
    return build_solution(w, h, w_hat, "brute_force")


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
