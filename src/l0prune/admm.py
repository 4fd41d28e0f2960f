"""Alternating solver for the budget-constrained layer reconstruction problem.

The solver splits the weights into a dense iterate W and a budget-feasible
iterate D coupled by a dual variable V, alternating

    W <- (H + rho I)^{-1} (G - V + rho D)        with G = H W_hat,
    D <- project(W + V / rho)                     onto the budget,
    V <- V + rho (W - D),

on the problem linalg.preprocess rescales to a unit live Gram diagonal
(the polish's CG preconditioner) and dense weights normalized by a power
of two. The penalty rho starts small so the support can move, and grows
on a fixed step schedule driven by how much the support of D changed
over the last CHECK_PERIOD iterations. Once the support stops changing
the loop ends, and the polish below first solves for the optimal weights
on the frozen support by conjugate gradient.

admm_solve factors H = Q diag(lambda) Q^T once per solve and hands the
pair to admm_loop, whose state keeps W and V only in that eigenbasis, as
Q^T W and Q^T V, next to Q^T G, Q^T D and D. The ridge solve is then a
division by lambda + rho, and an iteration costs two dense products:
W + V / rho = Q (Q^T W + Q^T V / rho), which is projected, and Q^T D of
the new D. Because Q is orthogonal, ||D - D_prev||, ||W - D||, ||V||,
||G - H D|| = ||Q^T G - diag(lambda) Q^T D|| and
||H V|| = ||diag(lambda) Q^T V|| are all taken in the eigenbasis, with
no product.

The step runs in place, in six n x m buffers allocated once per solve:
D, Q^T G, Q^T W, Q^T D, Q^T V and a spare. It forms ||D - D_prev|| and
||W - D|| from differences it needs anyway, and ||D||, ||V||,
||G - H D|| and ||H V|| are taken once per iterate, the start's included,
and kept in the trace's per-iterate arrays. The state holds only these
buffers, Q and lambda; admm_loop owns rho, the iteration count, the last
checked support and the stop, and they die with the call. Through the
loop a solve holds the state, the scaled W_hat and Gram, and during a
top-k projection the copy np.partition reorders. Only D, rho and the
trace outlive the loop, and admm_solve drops Q before the polish, which
reads only lambda_max. The polish holds at most five n x m arrays past
its entry: W, a candidate D', in which its refinement runs, and the
refinement's residual, direction and H times it. So it stays below the
loop's eight. The loop sets a wide layer's memory peak, the
eigendecomposition a tall one's: about 6 n^2, with NumPy's copy of the
input, LAPACK's work array and Q beside the Gram.

The loop can stop on a support near, but not at, a better one: on a
diagonal Gram the dual variable inflates the pruned entries against the
kept ones, so supports churn until rho freezes one that is not the
separable optimum. So the polish takes the hard-thresholding step of
CHITA's local search, D' = project(S + H (W_hat - S) / lambda_max), from
two starts S: the refined W, then W_hat, where it is project(W_hat), the
activation-weighted support on the unit live diagonal. D' is refined
only on a new support whose D' already beats the best objective, and
kept only if it still does, so no solve ends above that baseline but by
rounding or a tie.
linalg.quadratic_form gives each objective and descent, unchecked: they
only order candidates, and build_solution range-checks the answer's gap
on the caller's arrays. Only admm_solve checks inputs, through
linalg.check_instance, and preprocess and the polish trust them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baselines import PruneSolution, build_solution
from .diagnostics import (
    IterTrace, check_lemma1, check_lemma2, theorem1_residual_bound,
)
from .errors import DegenerateInstanceError
from .linalg import ScaledProblem, check_instance, eigendecompose, preprocess, quadratic_form
from .pcg import CG_ITERS, check_max_iters, support_cg
from .projections import SparsityBudget, budget_size, project, support_change

# The reference penalty schedule: rho starts at RHO0 and rho_update runs
# every CHECK_PERIOD steps. MAX_ITERS is admm_solve's default cap.
RHO0 = 0.1
CHECK_PERIOD = 3
RHO_MULTIPLIERS = (1.3, 1.2, 1.1)
CHURN_THRESHOLDS = (0.1, 0.005)
MAX_ITERS = 300


@dataclass(eq=False)
class AdmmState:
    """One solve's factorization and work buffers, advanced in place by admm_step.

    q and lam are the eigenvectors and eigenvalues of the scaled Gram. D is
    kept as d; W and V only in that eigenbasis, as qtw and qtv, next to
    qtg and qtd (Q^T G and Q^T D). spare is a work buffer of the same
    shape, which the step overwrites.
    """

    q: np.ndarray
    lam: np.ndarray
    d: np.ndarray
    qtg: np.ndarray
    qtw: np.ndarray
    qtd: np.ndarray
    qtv: np.ndarray
    spare: np.ndarray


def initial_state(w_hat: np.ndarray, lam: np.ndarray, q: np.ndarray) -> AdmmState:
    """Start on the given factorization of the Gram from D = w_hat, V = 0."""
    qtd = q.T @ w_hat
    return AdmmState(
        q=q,
        lam=lam,
        d=w_hat.copy(),
        # Q^T H W_hat = diag(lambda) Q^T W_hat, so G itself is never formed.
        qtg=lam[:, None] * qtd,
        qtw=np.empty_like(w_hat),
        qtd=qtd,
        qtv=np.zeros_like(w_hat),
        spare=np.empty_like(w_hat),
    )


def admm_step(
    state: AdmmState, rho: float, budget: SparsityBudget
) -> tuple[float, float]:
    """Advance W, D, V one iteration in place; returns ||D - D_prev||, ||W - D||."""
    d, qtd, qtv, spare, qtw = state.d, state.qtd, state.qtv, state.spare, state.qtw
    # (H + rho I) W = G - V + rho D is diagonal in the eigenbasis.
    np.subtract(state.qtg, qtv, out=qtw)
    qtw += np.multiply(qtd, rho, out=spare)
    qtw /= (state.lam + rho)[:, None]
    # W + V / rho goes into D's buffer, free while Q^T D still holds D; the
    # new D goes into spare, and its Q^T D into D's buffer.
    a = np.divide(qtv, rho, out=spare)
    a += qtw
    d_next = project(np.matmul(state.q, a, out=d), budget, out=spare)
    qtd_next = np.matmul(state.q.T, d_next, out=d)
    # Q is orthogonal, so both norms can be taken in the eigenbasis, in
    # the old Q^T D's buffer: D - D_prev, then W - D for the dual update.
    d_change = np.linalg.norm(np.subtract(qtd_next, qtd, out=qtd))
    gap = np.subtract(qtw, qtd_next, out=qtd)
    wd_gap = np.linalg.norm(gap)
    gap *= rho
    qtv += gap
    state.d, state.qtd, state.spare = d_next, qtd_next, gap
    return d_change, wd_gap


def rho_update(rho: float, s_t: int, k: int) -> float:
    """Step-function penalty growth from the support change s_t.

    A change of at least CHURN_THRESHOLDS[0] * k entries grows rho by
    RHO_MULTIPLIERS[0], one of at least [1] * k by [1], a smaller one by
    [2]. admm_loop stops on s_t = 0 instead of calling it.
    """
    if s_t >= CHURN_THRESHOLDS[0] * k:
        return RHO_MULTIPLIERS[0] * rho
    if s_t >= CHURN_THRESHOLDS[1] * k:
        return RHO_MULTIPLIERS[1] * rho
    return RHO_MULTIPLIERS[2] * rho


def _norms(state: AdmmState) -> tuple[float, float, float, float]:
    """||D||, ||V||, ||G - H D|| and ||H V|| of the current iterates.

    Q is orthogonal, so ||G - H D|| = ||Q^T G - diag(lambda) Q^T D||, formed
    in the spare buffer (free between steps), ||V|| = ||Q^T V|| and
    ||H V|| = ||diag(lambda) Q^T V||.
    """
    lam = state.lam
    gap = np.multiply(lam[:, None], state.qtd, out=state.spare)
    np.subtract(state.qtg, gap, out=gap)
    # Both V norms from one set of row sums, without an n x m temporary.
    rows = np.einsum("ij,ij->i", state.qtv, state.qtv)
    return (np.linalg.norm(state.d), math.sqrt(rows.sum()),
            np.linalg.norm(gap), math.sqrt(lam**2 @ rows))


def admm_loop(
    w_hat, lam, q, budget: SparsityBudget, k: int, max_iters: int
) -> tuple[np.ndarray, float, IterTrace]:
    """Run the alternating updates on the Gram's factorization (lam, q).

    Starts from D = w_hat at rho = RHO0, grows rho by rho_update on budget
    size k, and stops after max_iters steps or on a check period that
    moved no support entry, its last support_change 0. Returns the last D,
    rho and the trace; the state dies with the call.
    """
    state = initial_state(w_hat, lam, q)
    norms, steps = [_norms(state)], []
    rho, support = RHO0, w_hat != 0.0
    for t in range(1, max_iters + 1):
        d_change, wd_gap = admm_step(state, rho, budget)
        delta = -1
        if t % CHECK_PERIOD == 0:
            current = state.d != 0.0
            delta = support_change(current, support)
            support = current
        norms.append(_norms(state))
        steps.append((rho, d_change, wd_gap, delta))
        if delta == 0:
            break
        if delta > 0:
            rho = rho_update(rho, delta, k)
    g_norm = math.sqrt(np.vdot(state.qtg, state.qtg))
    columns = (np.array(c) for c in (*zip(*steps), *zip(*norms)))
    trace = IterTrace(*columns, h_spectral=float(lam[-1]), g_norm=g_norm)
    return state.d, rho, trace


def polish(
    scaled: ScaledProblem, spectral_norm: float, budget: SparsityBudget, d: np.ndarray
) -> tuple[np.ndarray, int, int]:
    """Refine on the support of d, then take the two hard-thresholding steps.

    Works on the rescaled problem, a congruence of the original, so the
    objectives compared are the real ones; spectral_norm is its Gram's.
    It consumes d, refining in its buffer, and refines each candidate in
    its own, CG_ITERS iterations at most. Returns the weights, the steps
    accepted and the CG iterations of every refinement.
    """
    h, w_hat = scaled.gram, scaled.w_hat
    mask = d != 0.0
    w, cg_iters = support_cg(h, w_hat, mask, d, CG_ITERS)
    # H (W_hat - W) is minus half the objective's gradient; it vanishes at
    # W_hat. Popping each start lets the step from W go once projected.
    descent, objective = quadratic_form(h, w_hat - w)
    descent *= 1.0 / spectral_norm
    descent += w
    starts = [descent, w_hat]
    del descent
    accepted = 0
    while starts:
        d = project(starts.pop(0), budget)
        d_mask = d != 0.0
        if np.array_equal(d_mask, mask) or not quadratic_form(h, w_hat - d)[1] < objective:
            continue
        d, iters = support_cg(h, w_hat, d_mask, d, CG_ITERS)
        cg_iters += iters
        d_objective = quadratic_form(h, w_hat - d)[1]
        if d_objective < objective:
            w, mask, objective = d, d_mask, d_objective
            accepted += 1
    return w, accepted, cg_iters


def admm_solve(
    h, w_hat, budget: SparsityBudget, max_iters: int = MAX_ITERS
) -> PruneSolution:
    """Solve the layer pruning problem under a sparsity budget.

    Checks and rescales the inputs (preprocess's problem, whose norms cannot
    leave float64), factors the rescaled Gram once, and runs admm_loop on
    that factorization until the support of D survives a whole check
    period unchanged (or max_iters is hit, reported via the stabilized
    flag). Then it polishes: refines the weights on the frozen support with
    conjugate gradient, at most CG_ITERS iterations a refinement, and takes
    two hard-thresholding steps, each kept only if it lowers the objective.
    Last it undoes the scaling. The returned solution carries a
    per-iteration trace, in the rescaled problem's units, the verdicts of
    the three convergence checks of l0prune.diagnostics on it, the polish
    steps accepted (0 to 2) in polish_rounds, and in pcg_iters_used every
    refinement iteration the solve ran. max_iters caps only the loop.
    Raises InvalidInputError when max_iters is not a positive integer, and
    DegenerateInstanceError on an all-zero Gram diagonal, when W_hat is
    nonzero only on dead channels, on an answer weight past float64
    (before its gap), and where relative_error would on the answer.
    """
    # The only input checks; the rest trusts them.
    check_max_iters(max_iters)
    h, w_hat = check_instance(h, w_hat)
    k_eff = budget_size(budget, w_hat.shape)
    scaled = preprocess(h, w_hat)
    lam, q = eigendecompose(scaled.gram)
    # After the factorization, whose PSD check outranks it: the rescaling
    # zeroes only dead rows, so a zero rescaled W_hat from a nonzero one
    # puts the signal on dead channels.
    if not scaled.w_hat.any() and w_hat.any():
        raise DegenerateInstanceError("the dense weights are nonzero only on dead channels")
    d, rho, trace = admm_loop(scaled.w_hat, lam, q, budget, k_eff, max_iters)
    # Only D goes on: Q must not stay alive through the polish.
    spectral_norm = float(lam[-1])
    del lam, q
    polished, polish_rounds, pcg_iters = polish(scaled, spectral_norm, budget, d)
    return build_solution(
        scaled.unscale(polished), h, w_hat, "alps",
        stabilized=bool(trace.support_change[-1] == 0),
        iterations=len(trace),
        rho_final=rho,
        pcg_iters_used=pcg_iters,
        polish_rounds=polish_rounds,
        trace=trace,
        lemma1_violations=check_lemma1(trace),
        lemma2_violations=check_lemma2(trace),
        theorem1_bound=theorem1_residual_bound(trace),
    )
