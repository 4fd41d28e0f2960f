import math

import numpy as np
import pytest

from l0prune import NM, InvalidInputError, Unstructured, admm_solve
from l0prune.admm import MAX_ITERS
from l0prune.diagnostics import (
    REL_SLACK,
    IterTrace,
    TheoremBound,
    Violation,
    check_lemma1,
    check_lemma2,
    theorem1_residual_bound,
)

from conftest import random_problem


def trace(steps, h=1.0, g=1.0, s=1.0, rho=1.0, d_norm=1.0, v_norm=1.5, d_change=3.0, wd_gap=0.5):
    # Each column a constant or a sequence. The defaults satisfy both
    # per-step inequalities: bound = grad_gap + hv_norm / rho = 2, the next
    # v_norm 1.5 <= 2 and d_change 3 <= 2 * bound / rho = 4. Scaling W_hat
    # by s scales every recorded norm, and g_norm, by s; rho and the Gram's
    # spectral norm stay, so the callers pass g = s.
    def column(x, n, scale=s):
        return scale * np.array(np.broadcast_to(x, n), dtype=float)

    return IterTrace(
        rho=column(rho, steps, 1.0),
        d_change=column(d_change, steps),
        wd_gap=column(wd_gap, steps),
        support_change=np.full(steps, -1),
        d_norm=column(d_norm, steps + 1),
        v_norm=column(v_norm, steps + 1),
        grad_gap=column(1.0, steps + 1),
        hv_norm=column(1.0, steps + 1),
        h_spectral=h,
        g_norm=g,
    )


CHECKERS = [check_lemma1, check_lemma2, theorem1_residual_bound]


def solver_trace(seed, n_in=8, n_out=4, k=10):
    rng = np.random.default_rng(seed)
    h, w_hat = random_problem(rng, n_in, n_out)
    return admm_solve(h, w_hat, Unstructured(k)).trace


# --- verdicts carried by a solution ---


@pytest.mark.parametrize(
    "budget, max_iters",
    [(Unstructured(10), MAX_ITERS), (NM(2, 4), MAX_ITERS), (Unstructured(10), 4)],
    ids=["topk", "nm24", "unstabilized"],
)
def test_solution_verdicts_replay_the_checkers(budget, max_iters):
    # The solve runs the three checkers once on its own trace; replaying
    # them on sol.trace gives what the solution carries.
    h, w_hat = random_problem(np.random.default_rng(20), 8, 4)
    sol = admm_solve(h, w_hat, budget, max_iters=max_iters)
    assert sol.stabilized == (max_iters > 4)
    assert sol.lemma1_violations == check_lemma1(sol.trace)
    assert sol.lemma2_violations == check_lemma2(sol.trace)
    assert sol.theorem1_bound == theorem1_residual_bound(sol.trace)


# --- check_lemma1 ---


@pytest.mark.parametrize("seed", range(10))
def test_lemma1_clean_on_solver_traces(seed):
    assert check_lemma1(solver_trace(seed)) == []


@pytest.mark.parametrize("s", [1.0, 1e-15])
def test_lemma1_catches_inflated_dual(s):
    tr = trace(5, g=s, s=s)
    tr.v_norm[4] *= 4
    out = check_lemma1(tr)
    assert [(v.iteration, v.inequality) for v in out] == [(3, "dual_growth")]
    assert out[0].slack < 0


@pytest.mark.parametrize("s", [1.0, 1e-15])
def test_lemma1_catches_runaway_iterate_change(s):
    tr = trace(4, g=s, s=s)
    tr.d_change[2] = 10.0 * s
    out = check_lemma1(tr)
    assert [(v.iteration, v.inequality) for v in out] == [(2, "iterate_change")]


def test_lemma1_exempts_the_dense_start():
    # The bound presumes a budget-feasible sparse iterate, which the dense
    # initialization is not, so the first step is out of scope.
    tr = trace(4)
    tr.v_norm[1] = 100.0
    assert check_lemma1(tr) == []


def test_lemma1_empty_trace_rejected():
    with pytest.raises(InvalidInputError, match="trace has no steps"):
        check_lemma1(trace(0))



@pytest.mark.parametrize("seed", range(5))
def test_lemma1_matches_a_step_by_step_reference(seed):
    # The inequalities written out one step at a time, in scalar floats, on
    # a solver trace with a third of its V and D-change entries inflated:
    # the same violations in the same order, slacks equal to the bit.
    tr = solver_trace(seed)
    rng = np.random.default_rng(seed)
    for column in (tr.v_norm, tr.d_change):
        column[rng.random(len(column)) < 1 / 3] *= 30.0
    expected = []
    for t in range(1, len(tr)):
        bound = tr.grad_gap[t] + tr.hv_norm[t] / tr.rho[t]
        for name, lhs, rhs in (("dual_growth", tr.v_norm[t + 1], bound),
                               ("iterate_change", tr.d_change[t], 2.0 / tr.rho[t] * bound)):
            lhs, rhs = float(lhs), float(rhs)
            if lhs > rhs + REL_SLACK * max(lhs, rhs) + 1e-12 * tr.g_norm:
                expected.append(Violation(t, name, (rhs - lhs) / max(lhs, rhs, 1e-300)))
    assert expected
    assert check_lemma1(tr) == expected


# --- check_lemma2 ---


@pytest.mark.parametrize("seed", range(10))
def test_lemma2_clean_on_solver_traces(seed):
    assert check_lemma2(solver_trace(seed)) == []


def test_lemma2_start_is_tight():
    # With h = g = 0 the bound collapses to a_0 at every step, so the first
    # step sits exactly at equality and constant traces stay clean.
    assert check_lemma2(trace(4, h=0.0, g=0.0, d_norm=1.0, v_norm=0.0)) == []


@pytest.mark.parametrize("s", [1.0, 1e-15])
def test_lemma2_flags_norm_growth_beyond_bound(s):
    tr = trace(4, h=0.0, g=0.0, s=s, d_norm=1.0, v_norm=0.0)
    tr.d_norm[2] = 2.0 * s
    out = check_lemma2(tr)
    assert [(v.iteration, v.inequality) for v in out] == [(2, "norm_product")]


def test_lemma2_requires_monotone_rho():
    with pytest.raises(InvalidInputError, match="rho decreases along the trace"):
        check_lemma2(trace(2, rho=[1.0, 0.5]))


def test_lemma2_overflow_degrades_to_vacuous_bound():
    # Tiny rho against a huge spectral norm overflows the compounding
    # product; the bound becomes infinite instead of wrapping negative.
    out = check_lemma2(trace(30, h=1e6, g=0.0, rho=1e-6, d_norm=1e30, v_norm=0.0))
    assert out == []


# --- theorem1_residual_bound ---


@pytest.mark.parametrize("seed", range(5))
def test_theorem_ratio_within_bound_on_solver_traces(seed):
    trace = solver_trace(seed)
    out = theorem1_residual_bound(trace)
    assert out.worst_ratio <= 1.0 + 1e-6


def test_theorem_constant_matches_hand_formula():
    rhos = [1.0, 2.0, 4.0, 8.0]
    out = theorem1_residual_bound(trace(4, h=0.5, g=2.0, rho=rhos, d_change=0.5, wd_gap=0.25))

    s = sum(1.0 / r for r in rhos) + (1000 - 4) / 8.0
    g, h = 2.0, 0.5
    c_hat = 2 * g + 2 * h * math.exp(3 * h * s) * (g + 3 * g * s)
    worst = max(r * 0.5 for r in rhos)
    assert out.c_hat == pytest.approx(c_hat, rel=1e-12)
    assert out.worst_ratio == pytest.approx(worst / c_hat, rel=1e-12)


def test_theorem_zero_residuals_give_zero_ratio():
    out = theorem1_residual_bound(trace(3, h=0.0, g=0.0, d_change=0.0, wd_gap=0.0))
    assert out.worst_ratio == 0.0


def test_theorem_constant_is_zero_without_gradient():
    # g = ||G|| is 0 while exp(3hS) overflows: C is 0, not inf * 0.
    tr = trace(3, h=1e9, g=0.0, rho=1e-9, d_change=0.0, wd_gap=0.0)
    assert theorem1_residual_bound(tr) == TheoremBound(c_hat=0.0, worst_ratio=0.0)


def test_theorem_ratio_is_infinite_on_a_residual_without_gradient():
    # C = 0 at g = 0, so any nonzero residual exceeds it without bound.
    tr = trace(1, g=0.0, d_change=0.5)
    assert theorem1_residual_bound(tr) == TheoremBound(c_hat=0.0, worst_ratio=math.inf)


def test_theorem_overflow_is_vacuously_satisfied():
    out = theorem1_residual_bound(trace(3, h=1e9, rho=1e-9, d_change=1e50, wd_gap=0.0))
    assert out.c_hat == math.inf
    assert out.worst_ratio == 0.0


def test_theorem_empty_trace_rejected():
    with pytest.raises(InvalidInputError, match="trace has no steps"):
        theorem1_residual_bound(trace(0))


# --- malformed traces ---


@pytest.mark.parametrize("rho", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("check", CHECKERS)
def test_nonpositive_or_nonfinite_rho_rejected(check, rho):
    # Every checker divides by rho, and check_lemma2 takes log1p(3h / rho):
    # such a penalty gives a bare arithmetic error or a meaningless bound.
    with pytest.raises(InvalidInputError, match="positive and finite"):
        check(trace(3, rho=[1.0, rho, 1.0]))


@pytest.mark.parametrize("name, value", [
    ("d_norm", np.ones((4, 1))),
    ("rho", np.ones((1, 3))),
    ("wd_gap", np.float64(0.5)),
    ("v_norm", [1.0] * 4),
], ids=["per-iterate-2d", "per-step-2d", "scalar", "list"])
@pytest.mark.parametrize("check", CHECKERS)
def test_a_field_that_is_not_a_1d_array_is_rejected(check, name, value):
    tr = trace(3)
    setattr(tr, name, value)
    with pytest.raises(InvalidInputError, match="not a 1-D array"):
        check(tr)


@pytest.mark.parametrize("name", ["d_change", "wd_gap", "support_change"])
@pytest.mark.parametrize("check", CHECKERS)
def test_per_step_arrays_of_different_lengths_are_rejected(check, name):
    tr = trace(3)
    setattr(tr, name, getattr(tr, name)[:-1])
    with pytest.raises(InvalidInputError, match="per-step arrays differ in length"):
        check(tr)


@pytest.mark.parametrize("length", [2, 3, 5])
@pytest.mark.parametrize("name", ["d_norm", "v_norm", "grad_gap", "hv_norm"])
@pytest.mark.parametrize("check", CHECKERS)
def test_per_iterate_arrays_must_be_one_entry_longer(check, name, length):
    # The start and every step's result: exactly one entry more than the
    # three per-step entries, so the per-step length (3) is rejected too.
    tr = trace(3)
    setattr(tr, name, np.ones(length))
    with pytest.raises(InvalidInputError, match="not one entry longer"):
        check(tr)


def test_the_nan_trace_that_read_as_clean_is_rejected():
    # NaN in v_norm[2] and in every grad_gap entry: each inequality is false
    # on NaN, so the checkers used to return [], [] and TheoremBound(inf, 0.0).
    tr = trace(3)
    tr.v_norm[2] = math.nan
    tr.grad_gap[:] = math.nan
    for check in CHECKERS:
        with pytest.raises(InvalidInputError, match="trace has a norm that is not finite"):
            check(tr)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", [
    "d_change", "wd_gap", "d_norm", "v_norm", "grad_gap", "hv_norm", "h_spectral", "g_norm",
])
def test_a_norm_that_is_not_finite_is_rejected(name, value):
    tr = trace(3)
    if name in ("h_spectral", "g_norm"):
        setattr(tr, name, value)
    else:
        getattr(tr, name)[1] = value
    for check in CHECKERS:
        with pytest.raises(InvalidInputError, match="trace has a norm that is not finite"):
            check(tr)
