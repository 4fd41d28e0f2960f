import math
from dataclasses import replace

import numpy as np
import pytest

from l0prune import (
    InvalidInputError,
    IterRecord,
    IterTrace,
    Unstructured,
    admm_solve,
    check_lemma1,
    check_lemma2,
    theorem1_residual_bound,
)

from conftest import random_problem


def record(rho=1.0, d_norm=1.0, v_norm=0.0, grad_gap=1.0, hv_norm=1.0,
           v_next_norm=1.5, d_change=3.0, wd_gap=0.5):
    # Satisfies both per-step inequalities: bound = grad_gap + hv/rho = 2,
    # v_next 1.5 <= 2 and d_change 3 <= 2*bound/rho = 4.
    return IterRecord(
        rho=rho, d_norm=d_norm, v_norm=v_norm, grad_gap=grad_gap,
        hv_norm=hv_norm, v_next_norm=v_next_norm, d_change=d_change,
        wd_gap=wd_gap,
    )


def solver_trace(seed, n_in=8, n_out=4, k=10):
    rng = np.random.default_rng(seed)
    h, w_hat = random_problem(rng, n_in, n_out)
    return admm_solve(h, w_hat, Unstructured(k)).trace


# --- check_lemma1 ---


@pytest.mark.parametrize("seed", range(10))
def test_lemma1_clean_on_solver_traces(seed):
    assert check_lemma1(solver_trace(seed)) == []


def test_lemma1_catches_inflated_dual():
    records = [record() for _ in range(5)]
    records[3] = replace(records[3], v_next_norm=records[3].v_next_norm * 4)
    out = check_lemma1(IterTrace(records=records, h_spectral=1.0, g_norm=1.0))
    assert [(v.iteration, v.inequality) for v in out] == [(3, "dual_growth")]
    assert out[0].slack < 0


def test_lemma1_catches_runaway_iterate_change():
    records = [record() for _ in range(4)]
    records[2] = replace(records[2], d_change=10.0)
    out = check_lemma1(IterTrace(records=records, h_spectral=1.0, g_norm=1.0))
    assert [(v.iteration, v.inequality) for v in out] == [(2, "iterate_change")]


def test_lemma1_exempts_the_dense_start():
    # The bound presumes a budget-feasible sparse iterate, which the dense
    # initialization is not, so the first record is out of scope.
    records = [record(v_next_norm=100.0)] + [record() for _ in range(3)]
    assert check_lemma1(IterTrace(records=records, h_spectral=1.0, g_norm=1.0)) == []


def test_lemma1_empty_trace_rejected():
    with pytest.raises(InvalidInputError, match="trace has no records"):
        check_lemma1(IterTrace())


# --- check_lemma2 ---


@pytest.mark.parametrize("seed", range(10))
def test_lemma2_clean_on_solver_traces(seed):
    assert check_lemma2(solver_trace(seed)) == []


def test_lemma2_start_is_tight():
    # With h = g = 0 the bound collapses to a_0 at every step, so the first
    # record sits exactly at equality and constant traces stay clean.
    records = [record(d_norm=1.0, v_norm=0.0) for _ in range(4)]
    assert check_lemma2(IterTrace(records=records, h_spectral=0.0, g_norm=0.0)) == []


def test_lemma2_flags_norm_growth_beyond_bound():
    records = [record(d_norm=1.0) for _ in range(4)]
    records[2] = replace(records[2], d_norm=2.0)
    out = check_lemma2(IterTrace(records=records, h_spectral=0.0, g_norm=0.0))
    assert [(v.iteration, v.inequality) for v in out] == [(2, "norm_product")]


def test_lemma2_requires_monotone_rho():
    records = [record(rho=1.0), record(rho=0.5)]
    with pytest.raises(InvalidInputError, match="rho decreases along the trace"):
        check_lemma2(IterTrace(records=records, h_spectral=1.0, g_norm=1.0))


def test_lemma2_overflow_degrades_to_vacuous_bound():
    # Tiny rho against a huge spectral norm overflows the compounding
    # product; the bound becomes infinite instead of wrapping negative.
    records = [record(rho=1e-6, d_norm=1e30) for _ in range(30)]
    out = check_lemma2(IterTrace(records=records, h_spectral=1e6, g_norm=0.0))
    assert out == []


# --- theorem1_residual_bound ---


@pytest.mark.parametrize("seed", range(5))
def test_theorem_ratio_within_bound_on_solver_traces(seed):
    trace = solver_trace(seed)
    out = theorem1_residual_bound(trace)
    assert out.worst_ratio <= 1.0 + 1e-6


def test_theorem_constant_matches_hand_formula():
    rhos = [1.0, 2.0, 4.0, 8.0]
    records = [record(rho=r, d_change=0.5, wd_gap=0.25) for r in rhos]
    trace = IterTrace(records=records, h_spectral=0.5, g_norm=2.0)
    out = theorem1_residual_bound(trace)

    s = sum(1.0 / r for r in rhos) + (1000 - 4) / 8.0
    g, h = 2.0, 0.5
    c_hat = 2 * g + 2 * h * math.exp(3 * h * s) * (g + 3 * g * s)
    worst = max(r * 0.5 for r in rhos)
    assert out.c_hat == pytest.approx(c_hat, rel=1e-12)
    assert out.worst_ratio == pytest.approx(worst / c_hat, rel=1e-12)


def test_theorem_zero_residuals_give_zero_ratio():
    records = [record(d_change=0.0, wd_gap=0.0) for _ in range(3)]
    out = theorem1_residual_bound(IterTrace(records=records, h_spectral=0.0, g_norm=0.0))
    assert out.worst_ratio == 0.0


def test_theorem_overflow_is_vacuously_satisfied():
    records = [record(rho=1e-9, d_change=1e50, wd_gap=0.0) for _ in range(3)]
    out = theorem1_residual_bound(IterTrace(records=records, h_spectral=1e9, g_norm=1.0))
    assert out.c_hat == math.inf
    assert out.worst_ratio == 0.0


def test_theorem_empty_trace_rejected():
    with pytest.raises(InvalidInputError, match="trace has no records"):
        theorem1_residual_bound(IterTrace())
