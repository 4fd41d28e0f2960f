"""Runtime convergence diagnostics for the alternating solver.

The solver records per-iteration norms of its iterates. The checks here
replay two analytic inequalities that every run must satisfy (a growth
bound on the dual variable and a compounding bound on the iterate norms)
plus a residual decay bound of the form max-residual <= C / rho_t. They
operate purely on the recorded trace, so they can run long after the
solve without the matrices. admm_solve runs all three once on its own
trace and stores their results on the solution it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InvalidInputError

REL_SLACK = 1e-6
# The residual bound's penalty sum runs over at least this many iterations.
HORIZON = 1000


@dataclass(frozen=True)
class IterRecord:
    """Norms captured around one iteration.

    rho is the penalty used by the step. d_norm, v_norm, grad_gap
    (||G - H D||_F) and hv_norm (||H V||_F) are measured before the step;
    v_next_norm, d_change, and wd_gap (||W - D||_F) after it.
    support_change is filled only at check-period boundaries.
    """

    rho: float
    d_norm: float
    v_norm: float
    grad_gap: float
    hv_norm: float
    v_next_norm: float
    d_change: float
    wd_gap: float
    support_change: int | None = None


@dataclass
class IterTrace:
    """Per-iteration record of a solve, in linalg.ScaledProblem's normalized units."""

    records: list[IterRecord] = field(default_factory=list)
    h_spectral: float = 0.0
    g_norm: float = 0.0

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class Violation:
    iteration: int
    inequality: str
    slack: float


def _require_records(trace: IterTrace) -> None:
    if not trace.records:
        raise InvalidInputError("trace has no records")
    if not all(0.0 < rec.rho < math.inf for rec in trace.records):
        raise InvalidInputError("trace has a penalty that is not positive and finite")


def _violated(lhs: float, rhs: float, guard: float) -> bool:
    return lhs > rhs + REL_SLACK * max(lhs, rhs) + guard


def _slack(lhs: float, rhs: float) -> float:
    return (rhs - lhs) / max(lhs, rhs, 1e-300)


def _exp(x: float) -> float:
    """math.exp, with inf where the result is past float64's range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def check_lemma1(trace: IterTrace) -> list[Violation]:
    """Verify the per-step dual growth bound on a recorded trace.

    At each iteration the post-step dual norm must satisfy
    ||V_next|| <= ||G - H D|| + ||H V|| / rho, and the sparse-iterate
    change ||D_next - D|| must stay within 2/rho of the same quantity.
    The dense start iterate is exempt: the bound presumes the sparse
    iterate already fits the budget, which only holds from the first
    projected iterate onward, so checks begin at the second record.
    Returns one Violation per failed inequality, with slack measured
    relative to the larger side (negative slack means violated).
    """
    _require_records(trace)
    guard = 1e-12 * trace.g_norm
    violations = []
    for t, rec in enumerate(trace.records):
        if t == 0:
            continue
        bound = rec.grad_gap + rec.hv_norm / rec.rho
        if _violated(rec.v_next_norm, bound, guard):
            violations.append(
                Violation(t, "dual_growth", _slack(rec.v_next_norm, bound))
            )
        d_bound = (2.0 / rec.rho) * bound
        if _violated(rec.d_change, d_bound, guard):
            violations.append(
                Violation(t, "iterate_change", _slack(rec.d_change, d_bound))
            )
    return violations


def check_lemma2(trace: IterTrace) -> list[Violation]:
    """Verify the compounding norm bound along a whole trace.

    With a_t = ||D_t|| + ||V_t|| / rho_t, every iteration must satisfy
    a_t <= prod_{s<t}(1 + 3h/rho_s) * (a_0 + sum_{s<t} 3g/rho_s) where h
    is the spectral norm of the Gram and g = ||G||_F. The product is
    accumulated in log space; past float64 the bound is infinite, which
    can never flag a finite trace. Requires nondecreasing rho.
    """
    _require_records(trace)
    rhos = [rec.rho for rec in trace.records]
    if any(b < a for a, b in zip(rhos, rhos[1:])):
        raise InvalidInputError("rho decreases along the trace")

    first = trace.records[0]
    a0 = first.d_norm + first.v_norm / first.rho
    guard = 1e-12 * max(trace.g_norm, a0)
    log_growth = 0.0
    drift = 0.0
    violations = []
    for t, rec in enumerate(trace.records):
        base = a0 + drift
        bound = base * _exp(log_growth) if base > 0 else 0.0
        lhs = rec.d_norm + rec.v_norm / rec.rho
        if _violated(lhs, bound, guard):
            violations.append(Violation(t, "norm_product", _slack(lhs, bound)))
        log_growth += math.log1p(3.0 * trace.h_spectral / rec.rho)
        drift += 3.0 * trace.g_norm / rec.rho
    return violations


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
    _require_records(trace)
    sum_inv = sum(1.0 / rec.rho for rec in trace.records)
    sum_inv += max(HORIZON - len(trace.records), 0) / trace.records[-1].rho
    g = trace.g_norm
    h = trace.h_spectral
    growth = _exp(3.0 * h * sum_inv)
    c_hat = 2.0 * g + 2.0 * h * growth * (g + 3.0 * g * sum_inv) if g else 0.0
    worst = max(rec.rho * max(rec.d_change, rec.wd_gap) for rec in trace.records)
    if worst == 0.0:
        ratio = 0.0
    elif c_hat == 0.0:
        ratio = math.inf
    else:
        ratio = worst / c_hat
    return TheoremBound(c_hat=c_hat, worst_ratio=ratio)
