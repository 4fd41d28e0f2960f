"""Alternating solver for the budget-constrained layer reconstruction problem.

The solver splits the weights into a dense iterate W and a budget-feasible
iterate D coupled by a dual variable V, alternating

    W <- (H + rho I)^{-1} (G - V + rho D)        with G = H W_hat,
    D <- project(W + V / rho)                     onto the budget,
    V <- V + rho (W - D),

on the problem linalg.preprocess rescales to a unit live Gram diagonal
(the polish's CG preconditioner). The penalty rho starts small so the
support can move, and grows on a fixed step schedule driven by how much
the support of D changed over the last CHECK_PERIOD iterations. Once the
support stops changing the loop ends, and the polish below first solves
for the optimal weights on the frozen support by conjugate gradient.

H = Q diag(lambda) Q^T is factored once per solve into the state's q and
lam, and the loop keeps W and V only in that eigenbasis, as Q^T W and
Q^T V, next to Q^T G, Q^T D and D. The ridge solve is then a division by
lambda + rho, and an iteration costs two dense products: W + V / rho =
Q (Q^T W + Q^T V / rho), which is projected, and Q^T D of the new D.
Because Q is orthogonal, ||D - D_prev||, ||W - D||, ||V||, ||G - H D|| =
||Q^T G - diag(lambda) Q^T D|| and ||H V|| = ||diag(lambda) Q^T V|| are
all taken in the eigenbasis, with no product.

The step runs in place, in six n x m buffers allocated once per solve:
D, Q^T G, Q^T W, Q^T D, Q^T V and a spare. It forms ||D - D_prev|| and
||W - D|| from differences it needs anyway, and ||D||, ||V||,
||G - H D|| and ||H V|| are taken once after each step and carried into
the next record as its pre-step norms. The state holds only these
buffers, Q and lambda; admm_solve owns rho, the iteration count, the last
checked support and the stop. Through the loop a solve holds the state,
the scaled W_hat and Gram, and during a top-k projection the copy
np.partition reorders. Only D and rho outlive the loop: the state and the
support go before the polish, which reads only lambda_max. The polish
holds at most five n x m arrays past its entry: W, the projected D', in
which its refinement runs, and the refinement's residual, direction and
H times it. Each round's step runs in the spent descent's buffer, which
goes before the refinement. So the polish stays below the loop's eight.
The loop sets a wide layer's memory peak, the eigendecomposition a tall
one's: about 6 n^2, with NumPy's copy of the input, LAPACK's work array
and Q beside the Gram.

The loop can stop on a support near, but not at, a better one: on a
diagonal Gram the dual variable inflates the pruned entries against the
kept ones, so supports churn until rho freezes one that is not the
separable optimum. So after its refinement the polish runs monotone
iterative hard-thresholding rounds (the local search CHITA runs on this
objective). Each round takes D' = project(W + H (W_hat - W) / lambda_max),
stops when D' keeps the current support, refines on the support of D'
in D' itself, and keeps the result only if the objective strictly
falls. With step 1 / lambda_max a round never raises the objective, and
at a fixed point the rounds cost one product and one projection.
linalg.gap_form gives each objective and descent and frees W_hat - W;
only admm_solve checks inputs, through linalg.check_instance, and
preprocess and the polish trust them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .baselines import PruneSolution, build_solution
from .diagnostics import (
    IterRecord, IterTrace, check_lemma1, check_lemma2, theorem1_residual_bound,
)
from .errors import DegenerateInstanceError, InvalidInputError
from .linalg import ScaledProblem, check_instance, eigendecompose, gap_form, preprocess
from .pcg import support_cg
from .projections import (
    SparsityBudget, Unstructured, budget_size, project, support_change,
)

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
        if not 0 < self.rho0 < math.inf:
            raise InvalidInputError(f"rho0 must be positive and finite: {self.rho0!r}")
        caps = (self.max_iters, self.pcg_iters)
        if not all(isinstance(c, (int, np.integer)) and c >= 1 for c in caps):
            raise InvalidInputError(f"iteration caps must be positive integers: {caps}")


def budget_from_sparsity(s: float, n_in: int, n_out: int) -> Unstructured:
    """Budget keeping floor((1 - s) * n_in * n_out) weights at sparsity s."""
    if not 0.0 <= s <= 1.0:
        raise InvalidInputError(f"sparsity must lie in [0, 1], got {s}")
    if n_in < 1 or n_out < 1:
        raise InvalidInputError("dimensions must be positive")
    # Exact arithmetic on the decimal s prints as, so an integer (1-s)*size
    # loses no slot to float error: s=0.9 on 100 weights, or s=0.8 on a
    # 5120 x 13824 layer, where a fixed nudge is below the rounding.
    return Unstructured(math.floor((1 - Fraction(repr(float(s)))) * n_in * n_out))


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


def initial_state(scaled: ScaledProblem) -> AdmmState:
    """Factor the scaled Gram; start from the dense weights: D = w_hat, V = 0."""
    lam, q = eigendecompose(scaled.gram)
    w_hat = scaled.w_hat
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
    d_change = _frob(np.subtract(qtd_next, qtd, out=qtd))
    gap = np.subtract(qtw, qtd_next, out=qtd)
    wd_gap = _frob(gap)
    gap *= rho
    qtv += gap
    state.d, state.qtd, state.spare = d_next, qtd_next, gap
    return d_change, wd_gap


def rho_update(rho: float, s_t: int, k: int) -> float:
    """Step-function penalty growth from the support change s_t.

    A change of at least CHURN_THRESHOLDS[0] * k entries grows rho by
    RHO_MULTIPLIERS[0], one of at least [1] * k by [1], a smaller one by
    [2]. admm_solve stops the loop on s_t = 0 instead of calling it.
    """
    if s_t >= CHURN_THRESHOLDS[0] * k:
        return RHO_MULTIPLIERS[0] * rho
    if s_t >= CHURN_THRESHOLDS[1] * k:
        return RHO_MULTIPLIERS[1] * rho
    return RHO_MULTIPLIERS[2] * rho


def _frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


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
    return _frob(state.d), math.sqrt(rows.sum()), _frob(gap), math.sqrt(lam**2 @ rows)


def polish(
    scaled: ScaledProblem,
    spectral_norm: float,
    budget: SparsityBudget,
    d: np.ndarray,
    cfg: AdmmConfig,
) -> tuple[np.ndarray, int, int]:
    """Refine on the support of d, then run monotone hard-thresholding rounds.

    Works on the rescaled problem, a congruence of the original, so the
    objectives compared are the real ones; spectral_norm is its Gram's.
    The polish consumes d: the refinement runs in its buffer. At most
    cfg.max_iters rounds follow, each taking its step in the descent's
    buffer and refining its projected D' in D' itself, and every
    refinement runs at most cfg.pcg_iters iterations. So it holds at most
    five n x m arrays: W, D' and support_cg's three. Returns the weights,
    the rounds accepted and the CG iterations of every refinement.
    """
    h, w_hat = scaled.gram, scaled.w_hat
    step = 1.0 / spectral_norm
    mask = d != 0.0
    w, cg_iters = support_cg(h, w_hat, mask, d, cfg.pcg_iters)
    # H (W_hat - W) is minus half the objective's gradient.
    descent, objective = gap_form(h, w_hat, w)
    rounds = 0
    for _ in range(cfg.max_iters):
        # The step runs in descent's buffer, released before the
        # refinement: a kept round brings its own.
        descent *= step
        descent += w
        d = project(descent, budget)
        del descent
        d_mask = d != 0.0
        if np.array_equal(d_mask, mask):
            break
        candidate, iters = support_cg(h, w_hat, d_mask, d, cfg.pcg_iters)
        cg_iters += iters
        descent, candidate_objective = gap_form(h, w_hat, candidate)
        if not candidate_objective < objective:
            break
        w, mask, objective = candidate, d_mask, candidate_objective
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
    returned solution carries a per-iteration trace, the verdicts of the
    three convergence checks of l0prune.diagnostics on it, the polish
    rounds accepted, and in pcg_iters_used every refinement iteration the
    solve ran, polish rounds included. Raises DegenerateInstanceError
    where preprocess does, when ||H W_hat|| overflows on the rescaled
    problem, and when W_hat is nonzero only on dead channels.
    """
    # The only input checks; the rest trusts them.
    h, w_hat = check_instance(h, w_hat)
    k_eff = budget_size(budget, w_hat.shape)
    scaled = preprocess(h, w_hat)
    # Only the state holds Q, so deleting the state frees it.
    state = initial_state(scaled)
    spectral_norm = float(state.lam[-1])
    # ||G|| can overflow where W_hat's own norm does not; vdot does not warn.
    g_squared = float(np.vdot(state.qtg, state.qtg))
    if not math.isfinite(g_squared):
        raise DegenerateInstanceError("squared norm of the rescaled H W_hat overflows float64")
    trace = IterTrace(records=[], h_spectral=spectral_norm, g_norm=math.sqrt(g_squared))
    pre = _norms(state)
    # ||D|| starts as the rescaled W_hat's norm, zero here only if the
    # rescaling zeroed every row: then the signal sits on dead channels.
    if pre[0] == 0.0 and w_hat.any():
        raise DegenerateInstanceError("the dense weights are nonzero only on dead channels")
    rho, support = cfg.rho0, scaled.w_hat != 0.0
    stabilized = False
    for t in range(1, cfg.max_iters + 1):
        d_change, wd_gap = admm_step(state, rho, budget)
        delta = None
        if t % CHECK_PERIOD == 0:
            current = state.d != 0.0
            delta = support_change(current, support)
            support = current
            del current  # else it holds the last support through the polish
        # Each step's post-step norms are the next record's pre-step ones.
        post = _norms(state)
        trace.records.append(
            IterRecord(
                rho,
                *pre,
                v_next_norm=post[1],
                d_change=d_change,
                wd_gap=wd_gap,
                support_change=delta,
            )
        )
        pre = post
        if delta == 0:
            stabilized = True
            break
        if delta is not None:
            rho = rho_update(rho, delta, k_eff)

    # Only D goes on: the other iterates, the work buffers, Q and the
    # support must not stay alive through the polish.
    d = state.d
    del state, support
    polished, polish_rounds, pcg_iters = polish(scaled, spectral_norm, budget, d, cfg)
    w = scaled.scale[:, None] * polished
    return build_solution(
        w, h, w_hat, "alps",
        stabilized=stabilized,
        iterations=len(trace.records),
        rho_final=rho,
        pcg_iters_used=pcg_iters,
        polish_rounds=polish_rounds,
        trace=trace,
        lemma1_violations=check_lemma1(trace),
        lemma2_violations=check_lemma2(trace),
        theorem1_bound=theorem1_residual_bound(trace),
    )
