"""Alternating solver for the budget-constrained layer reconstruction problem.

The solver splits the weights into a dense iterate W and a budget-feasible
iterate D coupled by a dual variable V, alternating

    W <- (H + rho I)^{-1} (G - V + rho D)        with G = H W_hat,
    D <- project(W + V / rho)                     onto the budget,
    V <- V + rho (W - D),

on a diagonally rescaled problem. The penalty rho starts small so the
support can move, and grows on a fixed step schedule driven by how much
the support of D changed over the last CHECK_PERIOD iterations. Once the
support stops changing the loop ends, and the polish below first solves
for the optimal weights on the frozen support by conjugate gradient.

H = Q diag(lambda) Q^T is factored once per solve, and the iterates are
carried in its eigenbasis too: the state keeps Q^T G, Q^T D and Q^T V
next to W, D and V. The ridge solve is then a division by lambda + rho,
and an iteration costs two dense products, W = Q (Q^T W) and Q^T D;
Q^T V follows V elementwise. Because Q is orthogonal, the trace norms
||G - H D|| = ||Q^T G - diag(lambda) Q^T D|| and ||H V|| =
||diag(lambda) Q^T V|| need no product at all, and each record's
||V|| before the step is the previous record's after it, carried over
rather than recomputed.

Only D and rho outlive the loop: W, V and the eigenbasis copies are
released before the polish, so they do not set the solve's memory peak.

The loop can stop on a support near, but not at, a better one: on a
diagonal Gram the dual variable inflates the pruned entries against the
kept ones, so supports churn until rho freezes one that is not the
separable optimum. So after its refinement the polish runs monotone
iterative hard-thresholding rounds (the local search CHITA runs on this
objective). Each round takes D' = project(W + H (W_hat - W) / lambda_max),
stops when D' keeps the current support, refines on the support of D'
warm-started from D', and keeps the result only if the objective strictly
falls. With step 1 / lambda_max a round never raises the objective, and
at a fixed point the rounds cost one product and one projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .baselines import PruneSolution, build_solution
from .diagnostics import IterRecord, IterTrace
from .errors import DegenerateInstanceError, InvalidInputError
from .linalg import EigenCache, as_matrix, eigendecompose, validate_gram
from .pcg import PcgConfig, support_cg
from .projections import (
    SparsityBudget,
    SupportMask,
    Unstructured,
    budget_size,
    mask_support,
    project,
    support_change,
)

DEAD_DIAG_RTOL = 1e-12

# The reference penalty schedule; rho_update runs every CHECK_PERIOD steps.
CHECK_PERIOD = 3
RHO_MULTIPLIERS = (1.3, 1.2, 1.1)
CHURN_THRESHOLDS = (0.1, 0.005)


@dataclass(frozen=True)
class AdmmConfig:
    """Solver knobs, one per `l0prune prune` flag of the same name.

    max_iters also caps the polish rounds, and pcg_iters every refinement.
    """

    rho0: float = 0.1
    max_iters: int = 300
    pcg_iters: int = 10

    def __post_init__(self):
        if not self.rho0 > 0:
            raise InvalidInputError("rho0 must be positive")
        if self.max_iters < 1 or self.pcg_iters < 1:
            raise InvalidInputError("iteration caps must be positive")


def budget_from_sparsity(s: float, n_in: int, n_out: int) -> Unstructured:
    """Budget keeping floor((1 - s) * n_in * n_out) weights at sparsity s."""
    if not 0.0 <= s <= 1.0:
        raise InvalidInputError(f"sparsity must lie in [0, 1], got {s}")
    if n_in < 1 or n_out < 1:
        raise InvalidInputError("dimensions must be positive")
    # The nudge absorbs representation error when (1-s)*size is an exact
    # integer, e.g. s=0.9 on 100 weights.
    return Unstructured(int(math.floor(n_in * n_out * (1.0 - s) + 1e-9)))


@dataclass(frozen=True, eq=False)
class ScaledProblem:
    """Diagonally rescaled instance with unit Gram diagonal on live coords.

    scale holds the positive diagonal E with W = E W'; gram is E H E and
    w_hat is E^{-1} W_hat. Dead coordinates (vanishing Gram diagonal) are
    recorded, decoupled from the Gram, and their dense rows zeroed, which
    keeps every iterate exactly zero there.
    """

    scale: np.ndarray
    gram: np.ndarray
    w_hat: np.ndarray
    dead: np.ndarray


def preprocess(h, w_hat) -> ScaledProblem:
    """Rescale so the Gram has unit diagonal wherever it is positive."""
    h = validate_gram(h)
    w_hat = as_matrix(w_hat, "dense weights")
    if w_hat.shape[0] != h.shape[0]:
        raise InvalidInputError("gram and weight shapes do not conform")
    diag = np.diag(h).copy()
    max_diag = float(diag.max())
    if max_diag <= 0.0:
        raise DegenerateInstanceError("gram diagonal is entirely zero")
    dead = diag <= DEAD_DIAG_RTOL * max_diag
    scale = np.ones_like(diag)
    live = ~dead
    scale[live] = 1.0 / np.sqrt(diag[live])
    gram = h * scale[:, None] * scale[None, :]
    if dead.any():
        # Quarantine dead coordinates: congruence with a projection keeps
        # the matrix PSD, and zero rows pin their iterates at zero.
        gram[dead, :] = 0.0
        gram[:, dead] = 0.0
    gram = (gram + gram.T) / 2.0
    w_scaled = w_hat / scale[:, None]
    w_scaled[dead, :] = 0.0
    return ScaledProblem(scale=scale, gram=gram, w_hat=w_scaled, dead=dead)


@dataclass(frozen=True, eq=False)
class AdmmState:
    """One solve's iterates; created by initial_state, advanced by admm_step.

    qtg, qtd and qtv are Q^T G, Q^T D and Q^T V in the eigenbasis of cache.
    """

    w: np.ndarray
    d: np.ndarray
    v: np.ndarray
    qtg: np.ndarray
    qtd: np.ndarray
    qtv: np.ndarray
    rho: float
    iteration: int
    prev_support: SupportMask
    cache: EigenCache


def initial_state(scaled: ScaledProblem, cache: EigenCache, rho0: float) -> AdmmState:
    """Start from the dense weights: D = W = w_hat, V = 0."""
    if not rho0 > 0:
        raise InvalidInputError("rho0 must be positive")
    w_hat = scaled.w_hat
    qtd = cache.q.T @ w_hat
    return AdmmState(
        w=w_hat.copy(),
        d=w_hat.copy(),
        v=np.zeros_like(w_hat),
        # Q^T H W_hat = diag(lambda) Q^T W_hat, so G itself is never formed.
        qtg=cache.eigenvalues[:, None] * qtd,
        qtd=qtd,
        qtv=np.zeros_like(w_hat),
        rho=rho0,
        iteration=0,
        prev_support=mask_support(w_hat != 0.0),
        cache=cache,
    )


def admm_step(state: AdmmState, budget: SparsityBudget) -> AdmmState:
    """Advance W, D, V one iteration, in that order, under one rho."""
    rho, q = state.rho, state.cache.q
    # (H + rho I) W = G - V + rho D is diagonal in the eigenbasis.
    qtw = state.qtg - state.qtv + rho * state.qtd
    qtw /= (state.cache.eigenvalues + rho)[:, None]
    w = q @ qtw
    d = project(w + state.v / rho, budget)
    v = state.v + rho * (w - d)
    qtd = q.T @ d
    # Q^T V follows V + rho (W - D) without a product, since Q^T W is qtw.
    qtv = state.qtv + rho * (qtw - qtd)
    return replace(
        state, w=w, d=d, v=v, qtd=qtd, qtv=qtv, iteration=state.iteration + 1
    )


def rho_update(rho: float, s_t: int, k: int) -> float | None:
    """Step-function penalty growth from the support change s_t.

    A change of at least CHURN_THRESHOLDS[0] * k entries grows rho by
    RHO_MULTIPLIERS[0], one of at least [1] * k by [1], a smaller one by
    [2]. Returns None when the support did not move at all, which signals
    the caller to stop iterating.
    """
    if s_t < 0:
        raise InvalidInputError("support change cannot be negative")
    if s_t == 0:
        return None
    if s_t >= CHURN_THRESHOLDS[0] * k:
        return RHO_MULTIPLIERS[0] * rho
    if s_t >= CHURN_THRESHOLDS[1] * k:
        return RHO_MULTIPLIERS[1] * rho
    return RHO_MULTIPLIERS[2] * rho


def _frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def polish(
    scaled: ScaledProblem,
    cache: EigenCache,
    budget: SparsityBudget,
    d: np.ndarray,
    cfg: AdmmConfig,
) -> tuple[np.ndarray, int, int]:
    """Refine on the support of d, then run monotone hard-thresholding rounds.

    Works on the rescaled problem, a congruence of the original, so the
    objectives compared are the real ones. The refinement starts from d;
    at most cfg.max_iters rounds follow, and every refinement runs at
    most cfg.pcg_iters iterations. Returns the weights, the rounds
    accepted and the refinement iterations run, the first one included.
    """
    h, w_hat = scaled.gram, scaled.w_hat
    step = 1.0 / cache.spectral_norm
    pcg_cfg = PcgConfig(max_iters=cfg.pcg_iters)
    mask = d != 0.0
    w, cg_iters, _ = support_cg(h, w_hat, mask, d, pcg_cfg)
    # H (W_hat - W) is minus half the objective's gradient.
    delta = w_hat - w
    descent = h @ delta
    objective = float(np.vdot(delta, descent))
    rounds = 0
    for _ in range(cfg.max_iters):
        d = project(w + step * descent, budget)
        d_mask = d != 0.0
        if np.array_equal(d_mask, mask):
            break
        candidate, iters, _ = support_cg(h, w_hat, d_mask, d, pcg_cfg)
        cg_iters += iters
        delta = w_hat - candidate
        candidate_descent = h @ delta
        candidate_objective = float(np.vdot(delta, candidate_descent))
        if not candidate_objective < objective:
            break
        w, mask = candidate, d_mask
        descent, objective = candidate_descent, candidate_objective
        rounds += 1
    return w, rounds, cg_iters


def admm_solve(
    h,
    w_hat,
    budget: SparsityBudget,
    cfg: AdmmConfig = AdmmConfig(),
) -> PruneSolution:
    """Solve the layer pruning problem under a sparsity budget.

    Runs the alternating updates on the rescaled problem until the
    support of D survives a whole check period unchanged (or max_iters is
    hit, reported via the stabilized flag), then polishes: refines the
    weights on the frozen support with conjugate gradient and runs
    monotone hard-thresholding rounds. Last it undoes the scaling. The
    returned solution carries a per-iteration trace for the convergence
    diagnostics, the polish rounds accepted, and in pcg_iters_used every
    refinement iteration the solve ran, polish rounds included.
    """
    w_hat = as_matrix(w_hat, "dense weights")
    # Checks the budget before any Gram work; preprocess validates the Gram.
    k_eff = budget_size(budget, w_hat.shape)
    scaled = preprocess(h, w_hat)
    cache = eigendecompose(scaled.gram)
    state = initial_state(scaled, cache, cfg.rho0)
    trace = IterTrace(
        records=[], h_spectral=cache.spectral_norm, g_norm=_frob(state.qtg)
    )
    lam = cache.eigenvalues[:, None]
    lam_sq = cache.eigenvalues**2
    # Each step's post-step ||V|| is the next record's pre-step one.
    v_norm = _frob(state.v)

    stabilized = False
    while state.iteration < cfg.max_iters:
        rho_t = state.rho
        d_prev = state.d
        d_norm = _frob(d_prev)
        grad_gap = _frob(state.qtg - lam * state.qtd)
        # ||diag(lambda) Q^T V||^2 from row sums, without an n x m temporary.
        hv_norm = math.sqrt(lam_sq @ np.einsum("ij,ij->i", state.qtv, state.qtv))

        state = admm_step(state, budget)

        delta = None
        boundary = state.iteration % CHECK_PERIOD == 0
        if boundary:
            current = mask_support(state.d != 0.0)
            delta = support_change(current, state.prev_support)
            state = replace(state, prev_support=current)
        v_next_norm = _frob(state.v)
        trace.records.append(
            IterRecord(
                rho=rho_t,
                d_norm=d_norm,
                v_norm=v_norm,
                grad_gap=grad_gap,
                hv_norm=hv_norm,
                v_next_norm=v_next_norm,
                d_change=_frob(state.d - d_prev),
                wd_gap=_frob(state.w - state.d),
                support_change=delta,
            )
        )
        v_norm = v_next_norm
        if boundary:
            new_rho = rho_update(rho_t, delta, k_eff)
            if new_rho is None:
                stabilized = True
                break
            state = replace(state, rho=new_rho)

    # Only D goes on: W, V and the eigenbasis copies must not stay alive
    # through the polish, where they would set the solve's memory peak.
    d, rho_final = state.d, state.rho
    del state, d_prev
    polished, polish_rounds, pcg_iters = polish(scaled, cache, budget, d, cfg)
    w = scaled.scale[:, None] * polished
    return build_solution(
        w, h, w_hat, "admm",
        stabilized=stabilized,
        iterations=len(trace.records),
        rho_final=rho_final,
        pcg_iters_used=pcg_iters,
        polish_rounds=polish_rounds,
        trace=trace,
    )
