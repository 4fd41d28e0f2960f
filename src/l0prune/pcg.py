"""Support-restricted conjugate gradient refinement.

Solves min ||X(W_hat - W)||_F^2 over matrices supported on a fixed mask S
by running CG on the normal equations H W = H W_hat for all output
columns at once, re-projecting the residual onto S every iteration. A
single step size couples the columns, which makes each iteration two
dense matrix products instead of a per-column solve. The Jacobi
preconditioner is applied once, as linalg.preprocess's rescaling to a
unit live Gram diagonal, the same for the solver's polish and pcg_refine.

pcg_refine is the public entry: it checks its arguments once (the Gram
and dense weights through linalg.check_instance), rescales them, and
hands them to support_cg, the kernel, which trusts its arrays. The solver
calls the kernel directly, from its polish, on arrays it rescaled itself.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInstanceError, InvalidInputError
from .linalg import as_matrix, check_instance, preprocess
from .projections import check_support

# A starting residual at or below START_RTOL * ||W_hat|| counts as
# converged: no step; CG stops once it falls to REL_TOL of its start.
START_RTOL = 1e-14
REL_TOL = 1e-8


def pcg_refine(h, w_hat, support, w0, max_iters: int = 10) -> np.ndarray:
    """Refine weights on a fixed support toward the restricted optimum.

    Parameters
    ----------
    h : square Gram matrix.
    w_hat : dense reference weights.
    support : boolean mask shaped like w_hat that the solution must live on.
    w0 : warm start, already supported on the mask.
    max_iters : positive iteration cap.

    Returns the refined weights, supported on the mask, with w0's rows on
    the dead channels of linalg.preprocess; w0 is left as it was. Raises
    DegenerateInstanceError where preprocess does (an all-zero Gram
    diagonal, weights beyond float64's range), and on vanishing curvature
    with the residual above tolerance (a singular restricted system).
    """
    h, w_hat = check_instance(h, w_hat)
    support = check_support(support, w_hat.shape)
    w0 = as_matrix(w0, "warm start")
    if w0.shape != w_hat.shape:
        raise InvalidInputError(f"warm start {w0.shape} not shaped like {w_hat.shape}")
    if np.any(w0[~support] != 0.0):
        raise InvalidInputError("warm start has mass outside the support")
    if not isinstance(max_iters, (int, np.integer)) or max_iters < 1:
        raise InvalidInputError(f"max_iters must be a positive integer: {max_iters!r}")

    scaled = preprocess(h, w_hat)
    scale = scaled.scale[:, None]
    # Scaling copies the warm start, which the kernel refines in place.
    w = support_cg(scaled.gram, scaled.w_hat, support, w0 / scale, max_iters)[0]
    w *= scale
    return w


def support_cg(
    h: np.ndarray,
    w_hat: np.ndarray,
    mask: np.ndarray,
    w: np.ndarray,
    max_iters: int,
) -> tuple[np.ndarray, int]:
    """Plain CG on a fixed support, for arrays already checked and rescaled.

    Takes a conforming finite Gram, dense weights, boolean support mask
    and a warm start w that vanishes off the mask, as pcg_refine checks
    and rescales them. Refines in place: returns w, overwritten with the
    refined weights, and the iterations run. Beside w it holds three n x m
    arrays, the residual r, the direction p and H p, whose buffer also
    takes the steps alpha H p and alpha p. Raises DegenerateInstanceError
    as pcg_refine documents.
    """
    r = h @ (w_hat - w)
    r *= mask
    r0_norm = float(np.linalg.norm(r))
    if r0_norm <= START_RTOL * np.linalg.norm(w_hat):
        return w, 0

    p = r.copy()
    rr = np.vdot(r, r)
    hp = np.empty_like(w)
    rel_residual = 1.0
    iterations = 0
    for _ in range(max_iters):
        np.dot(h, p, out=hp)
        denom = np.vdot(p, hp)
        if denom <= 0.0:
            raise DegenerateInstanceError(
                f"curvature {denom:.3e} along search direction with residual "
                f"{rel_residual:.3e} of start"
            )
        alpha = rr / denom
        # hp is spent once scaled into the residual, so it then holds alpha p.
        hp *= alpha
        r -= hp
        r *= mask
        w += np.multiply(p, alpha, out=hp)
        iterations += 1
        rr_new = np.vdot(r, r)
        rel_residual = float(np.sqrt(rr_new)) / r0_norm
        if rel_residual <= REL_TOL:
            break
        p *= rr_new / rr
        p += r
        rr = rr_new
    return w, iterations
