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

import math

import numpy as np

from .errors import DegenerateInstanceError, InvalidInputError
from .linalg import as_matrix, check_finite, check_instance, preprocess
from .projections import check_support

# A starting residual at or below START_RTOL * ||W_hat|| counts as
# converged: no step; CG stops once it falls to REL_TOL of its start.
START_RTOL = 1e-14
REL_TOL = 1e-8
# The cap on every refinement the solver's polish runs, and pcg_refine's default.
CG_ITERS = 10


def pcg_refine(h, w_hat, support, w0, max_iters: int = CG_ITERS) -> np.ndarray:
    """Refine weights on a fixed support toward the restricted optimum.

    Parameters
    ----------
    h : square Gram matrix.
    w_hat : dense reference weights.
    support : boolean mask shaped like w_hat that the solution must live on.
    w0 : warm start, already supported on the mask.
    max_iters : positive iteration cap, by default the solver's CG_ITERS.

    Returns the refined weights, supported on the mask, with w0's rows on
    the dead channels of linalg.preprocess exactly; w0 is left as it was.
    Raises DegenerateInstanceError on an all-zero Gram diagonal, where the
    rescaled warm start, the answer, or a residual or curvature (from a
    warm start far above W_hat) overflows float64, and on vanishing
    curvature with the residual above tolerance (a singular system).
    """
    h, w_hat = check_instance(h, w_hat)
    support = check_support(support, w_hat.shape)
    w0 = as_matrix(w0, "warm start", w_hat.shape)
    if np.any(w0[~support] != 0.0):
        raise InvalidInputError("warm start has mass outside the support")
    check_max_iters(max_iters)

    scaled = preprocess(h, w_hat)
    w, _ = support_cg(scaled.gram, scaled.w_hat, support, scaled.rescale(w0), max_iters)
    return scaled.unscale(w)


def check_max_iters(max_iters) -> None:
    """The one rule for an iteration cap: a positive integer."""
    if not isinstance(max_iters, (int, np.integer)) or max_iters < 1:
        raise InvalidInputError(f"max_iters must be a positive integer: {max_iters!r}")


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
    as pcg_refine documents: w, unlike w_hat, is bounded only by float64
    after rescaling, so the residual and the curvature keep their checks.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        r = h @ (w_hat - w)
        r *= mask
    # A small residual or curvature is progress, so only overflow raises.
    rr = np.vdot(r, r)
    check_finite(rr, "squared norm of the refinement's residual")
    r0_norm = math.sqrt(rr)
    if r0_norm <= START_RTOL * np.linalg.norm(w_hat):
        return w, 0

    p = r.copy()
    hp = np.empty_like(w)
    for iterations in range(1, max_iters + 1):
        np.dot(h, p, out=hp)
        denom = np.vdot(p, hp)
        check_finite(denom, "curvature along the search direction")
        if denom <= 0.0:
            raise DegenerateInstanceError(
                f"curvature {denom:.3e} along search direction with residual "
                f"{math.sqrt(rr) / r0_norm:.3e} of start"
            )
        alpha = rr / denom
        # hp is spent once scaled into the residual, so it then holds alpha p.
        hp *= alpha
        r -= hp
        r *= mask
        w += np.multiply(p, alpha, out=hp)
        rr_new = np.vdot(r, r)
        if math.sqrt(rr_new) / r0_norm <= REL_TOL:
            break
        p *= rr_new / rr
        p += r
        rr = rr_new
    return w, iterations
