"""Runtime convergence diagnostics for the alternating solver.

The solver records the norms of each iterate and step. The checks here
replay two analytic inequalities that every run must satisfy (a growth
bound on the dual variable and a compounding bound on the iterate norms)
plus a residual decay bound of the form max-residual <= C / rho_t. They
operate purely on the recorded trace, so they can run long after the
solve without the matrices. admm_solve runs all three once on its own
trace and stores their results on the solution it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

REL_SLACK = 1e-6
# The residual bound's penalty sum runs over at least this many iterations.
HORIZON = 1000


@dataclass(eq=False)
class IterTrace:
    """A solve's trace, one array per norm, in linalg.ScaledProblem's normalized units.

    Step t, for t < T = len(trace), ran at penalty rho[t] and took the
    iterates from iterate t to iterate t + 1; iterate 0 is the start,
    D = W_hat and V = 0. Per step, T entries: rho, d_change
    (||D_{t+1} - D_t||_F), wd_gap (||W_{t+1} - D_{t+1}||_F) and
    support_change, the support entries moved over the check period the
    step ended, or -1 where it ended none. Per iterate, T + 1 entries
    with the start first: d_norm, v_norm, grad_gap (||G - H D||_F) and
    hv_norm (||H V||_F). h_spectral is the Gram's spectral norm and
    g_norm ||G||_F.
    """

    rho: np.ndarray
    d_change: np.ndarray
    wd_gap: np.ndarray
    support_change: np.ndarray
    d_norm: np.ndarray
    v_norm: np.ndarray
    grad_gap: np.ndarray
    hv_norm: np.ndarray
    h_spectral: float
    g_norm: float

    def __len__(self) -> int:
        return len(self.rho)


@dataclass(frozen=True)
class Violation:
    iteration: int
    inequality: str
    slack: float


def _check_trace(trace: IterTrace) -> None:
    """Raise InvalidInputError unless trace has IterTrace's layout and a step.

    Its penalties must lie in (0, inf) and its norms be finite: every
    inequality is false on NaN, so a NaN norm would pass every check.
    """
    steps = (trace.rho, trace.d_change, trace.wd_gap, trace.support_change)
    iterates = (trace.d_norm, trace.v_norm, trace.grad_gap, trace.hv_norm)
    if not all(isinstance(a, np.ndarray) and a.ndim == 1 for a in steps + iterates):
        raise InvalidInputError("trace has a field that is not a 1-D array")
    if len({len(a) for a in steps}) > 1:
        raise InvalidInputError("trace's per-step arrays differ in length")
    if any(len(a) != len(trace) + 1 for a in iterates):
        raise InvalidInputError(
            "trace's per-iterate arrays are not one entry longer than its per-step ones"
        )
    if not len(trace):
        raise InvalidInputError("trace has no steps")
    # Read off max and min, which propagate NaN, as check_finite reads.
    if not (0.0 < trace.rho.min() and trace.rho.max() < math.inf):
        raise InvalidInputError("trace has a penalty that is not positive and finite")
    norms = (trace.d_change, trace.wd_gap, *iterates, trace.h_spectral, trace.g_norm)
    if not all(np.isfinite(np.max(x)) and np.isfinite(np.min(x)) for x in norms):
        raise InvalidInputError("trace has a norm that is not finite")


def _violations(lhs, rhs, guard: float, inequality: str, first: int) -> list[Violation]:
    """One Violation per entry where lhs exceeds rhs past the slack, numbered from first."""
    over = lhs > rhs + REL_SLACK * np.maximum(lhs, rhs) + guard
    return [
        Violation(first + t, inequality, float((rhs[t] - lhs[t]) / max(lhs[t], rhs[t], 1e-300)))
        for t in np.flatnonzero(over).tolist()
    ]


def _exp(x: float) -> float:
    """math.exp, with inf where the result is past float64's range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def check_lemma1(trace: IterTrace) -> list[Violation]:
    """Verify the per-step dual growth bound on a recorded trace.

    At each step t the next dual norm must satisfy
    ||V_{t+1}|| <= ||G - H D_t|| + ||H V_t|| / rho_t, and the sparse-iterate
    change ||D_{t+1} - D_t|| must stay within 2/rho_t of the same quantity.
    The dense start iterate is exempt: the bound presumes the sparse
    iterate already fits the budget, which only holds from the first
    projected iterate onward, so checks begin at step 1. Returns one
    Violation per failed inequality, in step order, with slack measured
    relative to the larger side (negative slack means violated).
    """
    _check_trace(trace)
    guard = 1e-12 * trace.g_norm
    rho = trace.rho[1:]
    bound = trace.grad_gap[1:-1] + trace.hv_norm[1:-1] / rho
    found = _violations(trace.v_norm[2:], bound, guard, "dual_growth", 1)
    found += _violations(trace.d_change[1:], (2.0 / rho) * bound, guard, "iterate_change", 1)
    return sorted(found, key=lambda v: v.iteration)


def check_lemma2(trace: IterTrace) -> list[Violation]:
    """Verify the compounding norm bound along a whole trace.

    With a_t = ||D_t|| + ||V_t|| / rho_t, every step must satisfy
    a_t <= prod_{s<t}(1 + 3h/rho_s) * (a_0 + sum_{s<t} 3g/rho_s) where h
    is the spectral norm of the Gram and g = ||G||_F. The product is
    accumulated in log space; past float64 the bound is infinite, which
    can never flag a finite trace. Requires nondecreasing rho.
    """
    _check_trace(trace)
    rho = trace.rho
    if np.any(rho[1:] < rho[:-1]):
        raise InvalidInputError("rho decreases along the trace")

    lhs = trace.d_norm[:-1] + trace.v_norm[:-1] / rho
    a0 = float(lhs[0])
    bound = np.empty_like(lhs)
    log_growth = drift = 0.0
    for t, r in enumerate(rho.tolist()):
        base = a0 + drift
        bound[t] = base * _exp(log_growth) if base > 0 else 0.0
        log_growth += math.log1p(3.0 * trace.h_spectral / r)
        drift += 3.0 * trace.g_norm / r
    return _violations(lhs, bound, 1e-12 * max(trace.g_norm, a0), "norm_product", 0)


@dataclass(frozen=True)
class TheoremBound:
    c_hat: float
    worst_ratio: float


def theorem1_residual_bound(trace: IterTrace) -> TheoremBound:
    """Evaluate the residual decay bound max-residual <= C / rho_t.

    Computes a concrete constant from the trace,

        C = 2g + 2h * exp(3h * S) * (g + 3g * S),

    where S proxies the infinite penalty sum by the realized sum of
    1/rho_t, extended at the final rho out to HORIZON iterations when the
    trace is shorter. The exponential can overflow to infinity for slowly
    growing penalties; that only loosens the bound, and C = 0 at g = 0.
    Returns the constant together with the worst observed ratio
    rho_t * max(d_change, wd_gap) / C, which should not meaningfully exceed 1.
    """
    _check_trace(trace)
    rho = trace.rho
    sum_inv = float(sum(1.0 / rho) + max(HORIZON - len(rho), 0) / rho[-1])
    g = trace.g_norm
    h = trace.h_spectral
    growth = _exp(3.0 * h * sum_inv)
    c_hat = 2.0 * g + 2.0 * h * growth * (g + 3.0 * g * sum_inv) if g else 0.0
    worst = float(np.max(rho * np.maximum(trace.d_change, trace.wd_gap)))
    if worst == 0.0:
        ratio = 0.0
    elif c_hat == 0.0:
        ratio = math.inf
    else:
        ratio = worst / c_hat
    return TheoremBound(c_hat=c_hat, worst_ratio=ratio)
