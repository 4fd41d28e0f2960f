import gc
import inspect
import itertools
import os
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from l0prune import (
    NM,
    DegenerateInstanceError,
    InvalidInputError,
    Unstructured,
    activation_weighted_prune,
    admm_solve,
    backsolve_exact,
    brute_force_support,
    budget_from_sparsity,
    layer_objective,
    magnitude_prune,
    pcg_refine,
    relative_error,
)
from l0prune import admm, linalg, projections
from l0prune.admm import (
    CHECK_PERIOD,
    MAX_ITERS,
    RHO0,
    RHO_MULTIPLIERS,
    AdmmState,
    admm_loop,
    admm_step,
    initial_state,
    polish,
    preprocess,
    rho_update,
)
from l0prune.baselines import build_solution
from l0prune.diagnostics import check_lemma1, check_lemma2
from l0prune.linalg import eigendecompose
from l0prune.pcg import CG_ITERS
from l0prune.projections import budget_mask, budget_size, project, support_change

from conftest import (
    BEYOND_FLOAT64, GRAM_ENTRIES, correlated_activations, count_calls, dead_channel_instance,
    gap_overflow_instance, held_out_problem, random_problem, random_psd, scale_instance,
    tiny_problem,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def assert_same_trace(a, b):
    # IterTrace holds arrays, so it compares field by field, not with ==.
    for f in fields(a):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


# --- budget_from_sparsity ---


@pytest.mark.parametrize(
    "s,n_in,n_out,k",
    [
        (0.0, 4, 4, 16),
        (1.0, 4, 4, 0),
        (0.7, 10, 10, 30),
        (0.9, 10, 10, 10),  # (1-0.9)*100 is not exact in binary; floor must not lose a slot
        (0.5, 3, 3, 4),
        # Past about 1e7 weights, float rounding can put (1-s)*size below k.
        (0.8, 5120, 13824, 14_155_776),
        (0.8, 10000, 10000, 20_000_000),
        (0.8, 12800, 5120, 13_107_200),
    ],
)
def test_budget_from_sparsity_counts_kept_weights(s, n_in, n_out, k):
    assert budget_from_sparsity(s, n_in, n_out) == Unstructured(k)


def test_budget_from_sparsity_range_check():
    with pytest.raises(InvalidInputError):
        budget_from_sparsity(1.5, 4, 4)
    with pytest.raises(InvalidInputError, match="dimensions must be positive"):
        budget_from_sparsity(0.5, 0, 3)


# --- config ---


def test_config_defaults():
    # The starting penalty and the refinement cap are fixed with the
    # schedule; max_iters is the one setting, a keyword of admm_solve.
    assert RHO0 == 0.1
    assert MAX_ITERS == 300
    assert CG_ITERS == 10
    assert inspect.signature(admm_solve).parameters["max_iters"].default == MAX_ITERS
    assert inspect.signature(pcg_refine).parameters["max_iters"].default == CG_ITERS
    h, w_hat = random_problem(np.random.default_rng(9), 6, 3)
    assert admm_solve(h, w_hat, Unstructured(8), max_iters=np.int64(2)).iterations == 2


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_iters": 0},
        {"max_iters": -1},
        {"max_iters": 2.5},
        {"max_iters": 1.0},
        {"max_iters": np.int64(0)},
        {"max_iters": np.float64(3.0)},
        {"max_iters": float("inf")},
        {"max_iters": float("nan")},
        {"max_iters": None},
        {"max_iters": "10"},
    ],
)
def test_config_rejects_bad_values(kwargs):
    # Anything but a positive integer: floats, integral or not, included.
    h, w_hat = random_problem(np.random.default_rng(9), 6, 3)
    with pytest.raises(InvalidInputError, match="max_iters"):
        admm_solve(h, w_hat, Unstructured(8), **kwargs)


# --- preprocess ---


def test_preprocess_unit_diagonal():
    # max |W_hat_i| / E_i is 1 * 2, whose factors' binary exponents sum to
    # 3: W' = W_hat / (8 E).
    scaled = preprocess(np.diag([4.0, 1.0]), np.ones((2, 1)))
    np.testing.assert_allclose(scaled.scale, [0.5, 1.0])
    np.testing.assert_allclose(scaled.gram, np.eye(2))
    assert scaled.exponent == 3
    np.testing.assert_array_equal(scaled.w_hat, [[0.25], [0.125]])
    np.testing.assert_array_equal(scaled.unscale(scaled.w_hat), np.ones((2, 1)))


def test_preprocess_identity_unchanged():
    # The identity Gram keeps E = 1, so W_hat changes by a power of two only.
    rng = np.random.default_rng(0)
    w_hat = 3.0 * rng.standard_normal((3, 2))
    scaled = preprocess(np.eye(3), w_hat)
    np.testing.assert_array_equal(scaled.gram, np.eye(3))
    np.testing.assert_array_equal(scaled.w_hat, np.ldexp(w_hat, -scaled.exponent))
    np.testing.assert_array_equal(scaled.unscale(scaled.w_hat), w_hat)


def test_preprocess_preserves_objective():
    # The rescaled problem is a congruence of the caller's, 2^-e W_hat on
    # the scaled Gram: its objective times 4^e is the caller's. Unscaling
    # its dense weights leaves only E's rounding: the power of two is exact
    # at any scale.
    rng = np.random.default_rng(1)
    h = random_psd(rng, 5)
    w_unit, w_unit_pruned = rng.standard_normal((2, 5, 3))
    for c in (1e-100, 1.0, 1e100):
        w_hat, w = c * w_unit, c * w_unit_pruned
        scaled = preprocess(h, w_hat)
        e = scaled.exponent
        scale = scaled.scale[:, None]
        np.testing.assert_array_equal(scaled.unscale(scaled.w_hat), scale * (w_hat / scale))
        direct = layer_objective(h, w_hat, w)
        rescaled = layer_objective(scaled.gram, scaled.w_hat, np.ldexp(w / scale, -e))
        assert np.ldexp(rescaled, 2 * e) == pytest.approx(direct, rel=1e-10)


def test_preprocess_zero_diagonal_rejected():
    with pytest.raises(DegenerateInstanceError):
        preprocess(np.zeros((3, 3)), np.ones((3, 1)))


@pytest.mark.parametrize("entry", sorted(GRAM_ENTRIES))
@pytest.mark.parametrize("h", [np.diag([1.0, -1.0, 2.0]), -np.eye(3)], ids=["one", "all"])
def test_negative_gram_diagonal_rejected(h, entry):
    # Not a dead input to set aside, nor an all-zero diagonal: not PSD, and
    # every entry taking a Gram says so, not only the solver.
    with pytest.raises(InvalidInputError, match="not positive semidefinite"):
        GRAM_ENTRIES[entry](h, np.ones((3, 2)))


def test_preprocess_quarantines_dead_coordinates():
    h = np.diag([2.0, 0.0, 1.0])
    w_hat = np.array([[1.0], [5.0], [1.0]])
    scaled = preprocess(h, w_hat)
    assert not scaled.gram[1].any() and not scaled.gram[:, 1].any()
    assert scaled.w_hat[1, 0] == 0.0


# --- admm_step ---


def test_state_holds_only_the_factorization_and_buffers():
    # The penalty, the iteration count and the support are the loop's.
    names = [f.name for f in fields(AdmmState)]
    assert names == ["q", "lam", "d", "qtg", "qtw", "qtd", "qtv", "spare"]
    scaled = preprocess(*random_problem(np.random.default_rng(2), 6, 3))
    state = initial_state(scaled.w_hat, *eigendecompose(scaled.gram))
    assert all(isinstance(getattr(state, name), np.ndarray) for name in names)


def test_first_step_fixes_dense_weights():
    # From the start state the dense update has W_hat as its exact solution.
    rng = np.random.default_rng(2)
    h, w_hat = random_problem(rng, 6, 3)
    scaled = preprocess(h, w_hat)
    state = initial_state(scaled.w_hat, *eigendecompose(scaled.gram))
    admm_step(state, 0.1, Unstructured(18))
    np.testing.assert_allclose(state.q @ state.qtw, scaled.w_hat, atol=1e-12)


def test_step_with_zero_gram_copies_sparse_iterate():
    # With H = 0, G = 0 and V = 0, the dense update is W = (rho D) / rho = D.
    w_hat = np.arange(6.0).reshape(3, 2)
    state = initial_state(w_hat, *eigendecompose(np.zeros((3, 3))))
    d = state.d.copy()  # the step overwrites the state in place
    admm_step(state, 2.0, Unstructured(6))
    np.testing.assert_allclose(state.q @ state.qtw, d, atol=1e-14)


def test_step_on_diagonal_gram_by_hand():
    # H = diag(1, 4), W_hat = (1, 1), rho = 1, keep one weight. Step 1
    # returns W = W_hat, keeps the first of the tied entries, V = (0, 1).
    # Step 2: W = (G - V + D) / (diag(H) + 1) = (2, 3) / (2, 5).
    state = initial_state(np.ones((2, 1)), *eigendecompose(np.diag([1.0, 4.0])))
    admm_step(state, 1.0, Unstructured(1))
    np.testing.assert_allclose(state.q @ state.qtw, [[1.0], [1.0]], atol=1e-14)
    np.testing.assert_array_equal(state.d, [[1.0], [0.0]])
    np.testing.assert_allclose(state.q @ state.qtv, [[0.0], [1.0]], atol=1e-14)
    admm_step(state, 1.0, Unstructured(1))
    np.testing.assert_allclose(state.q @ state.qtw, [[1.0], [0.6]], atol=1e-14)
    np.testing.assert_allclose(state.d, [[0.0], [1.6]], atol=1e-14)
    np.testing.assert_allclose(state.q @ state.qtv, [[1.0], [0.0]], atol=1e-14)


@pytest.mark.parametrize("rho", [1e-4, 0.1, 1e4])
def test_step_matches_explicit_inverse(rho):
    rng = np.random.default_rng(3)
    h, w_hat = random_problem(rng, 5, 2)
    scaled = preprocess(h, w_hat)
    state = initial_state(scaled.w_hat, *eigendecompose(scaled.gram))
    budget = Unstructured(4)
    for _ in range(3):
        admm_step(state, rho, budget)

    hp, v_prev = scaled.gram, state.q @ state.qtv
    g = scaled.gram @ scaled.w_hat
    inv = np.linalg.inv(hp + rho * np.eye(5))
    w = inv @ (g - v_prev + rho * state.d)
    d = np.where(
        np.abs(w + v_prev / rho)
        >= np.partition(np.abs(w + v_prev / rho).ravel(), -4)[-4],
        w + v_prev / rho,
        0.0,
    )
    v = v_prev + rho * (w - d)
    admm_step(state, rho, budget)
    np.testing.assert_allclose(state.q @ state.qtw, w, atol=1e-8)
    np.testing.assert_allclose(state.d, d, atol=1e-8)
    np.testing.assert_allclose(state.q @ state.qtv, v, atol=1e-8)


def _assert_rel_close(actual, expected, rtol=1e-9):
    assert np.linalg.norm(actual - expected) <= rtol * np.linalg.norm(expected)


@pytest.mark.parametrize("budget", [Unstructured(58), NM(2, 4)], ids=["topk", "nm24"])
@pytest.mark.parametrize("case", ["correlated", "dead_channel", "float32"])
def test_step_matches_original_basis_loop(case, budget):
    # The loop written out in the original basis, with explicit solves and
    # Gram products, under the penalties admm_solve recorded; every step
    # must agree, W and V read back from the eigenbasis, and Q^T D must
    # not drift from D. Stepped by hand, admm_step returns the solve's
    # trace rows bit for bit, and the start state's norms give its start
    # row, which the loop writes as a literal.
    rng = np.random.default_rng(14)
    h, w_hat = random_problem(rng, 16, 12)
    if case == "dead_channel":
        h[3, :] = 0.0
        h[:, 3] = 0.0
    if case == "float32":
        h, w_hat = h.astype(np.float32), w_hat.astype(np.float32)
    sol = admm_solve(h, w_hat, budget, max_iters=40)
    # preprocess trusts the float64 arrays admm_solve makes of its inputs.
    scaled = preprocess(h.astype(np.float64), w_hat.astype(np.float64))
    state = initial_state(scaled.w_hat, *eigendecompose(scaled.gram))
    hp = scaled.gram
    g = hp @ scaled.w_hat
    d, v = scaled.w_hat.copy(), np.zeros_like(scaled.w_hat)
    trace = sol.trace
    steps = len(trace)
    lam = state.lam[:, None]
    start = (np.linalg.norm(state.d), np.linalg.norm(state.qtv),
             np.linalg.norm(state.qtg - lam * state.qtd), np.linalg.norm(lam * state.qtv))
    assert start == (trace.d_norm[0], trace.v_norm[0], trace.grad_gap[0], trace.hv_norm[0])
    # The loop below runs past the final iterate, whose norms it checks too.
    assert 20 <= steps < 40
    for t in range(40):
        if t <= steps:
            assert trace.d_norm[t] == pytest.approx(np.linalg.norm(d), rel=1e-9)
            assert trace.v_norm[t] == pytest.approx(np.linalg.norm(v), rel=1e-9)
            assert trace.grad_gap[t] == pytest.approx(np.linalg.norm(g - hp @ d), rel=1e-9)
            assert trace.hv_norm[t] == pytest.approx(np.linalg.norm(hp @ v), rel=1e-9)
        # Past the recorded run, keep stepping under the final penalty.
        rho = trace.rho[t] if t < steps else sol.rho_final
        d_prev = d
        w = np.linalg.solve(hp + rho * np.eye(16), g - v + rho * d)
        d = project(w + v / rho, budget)
        v = v + rho * (w - d)
        if t < steps:
            assert trace.d_change[t] == pytest.approx(np.linalg.norm(d - d_prev), rel=1e-9)
            assert trace.wd_gap[t] == pytest.approx(np.linalg.norm(w - d), rel=1e-9)

        row = admm_step(state, rho, budget)
        if t < steps:
            assert row == (trace.d_change[t], trace.wd_gap[t], trace.d_norm[t + 1],
                           trace.v_norm[t + 1], trace.grad_gap[t + 1], trace.hv_norm[t + 1])
        assert np.array_equal(state.d != 0.0, d != 0.0)
        _assert_rel_close(state.q @ state.qtw, w)
        _assert_rel_close(state.d, d)
        _assert_rel_close(state.q @ state.qtv, v)
        _assert_rel_close(state.qtd, state.q.T @ state.d)


def test_validation_runs_once_per_solve(monkeypatch):
    counts = Counter()
    for name in ("validate_gram", "as_matrix", "eigendecompose"):
        count_calls(monkeypatch, linalg, name, counts)
    count_calls(monkeypatch, projections, "budget_size", counts)

    rng = np.random.default_rng(15)
    h, w_hat = random_problem(rng, 12, 8)
    runs = []
    for cap in (3, 60):
        counts.clear()
        sol = admm_solve(h, w_hat, Unstructured(20), max_iters=cap)
        runs.append((sol.iterations, dict(counts)))
    (short_iters, short), (long_iters, long) = runs
    assert short_iters == 3 and long_iters > 3 * short_iters
    # W_hat and the Gram (inside validate_gram), once each.
    assert short["validate_gram"] == 1
    assert short["as_matrix"] == 2
    # One factorization and one budget check, whatever the cap.
    assert short["eigendecompose"] == 1
    assert short["budget_size"] == 1
    assert short == long


def test_projection_runs_once_per_iteration_and_polish_round(monkeypatch):
    # The benchmark's projections.project metrics count these calls.
    counts = Counter()
    count_calls(monkeypatch, projections, "project", counts)
    rng = np.random.default_rng(15)
    h, w_hat = random_problem(rng, 12, 8)
    cases = [(h, w_hat, Unstructured(20), cap) for cap in (3, 60)]
    rng = np.random.default_rng(300)
    diagonal = np.diag(rng.uniform(0.1, 10.0, 32)), rng.standard_normal((32, 16))
    cases += [(*diagonal, budget, MAX_ITERS) for budget in (Unstructured(153), NM(2, 4))]
    rounds = 0
    for h, w_hat, budget, cap in cases:
        counts.clear()
        sol = admm_solve(h, w_hat, budget, max_iters=cap)
        # The polish projects once from each of its two starts.
        assert counts["project"] == sol.iterations + 2
        rounds += sol.polish_rounds
    assert rounds > 0


@pytest.mark.parametrize(
    "budget", [budget_from_sparsity(0.7, 64, 1024), NM(2, 4)], ids=["topk", "nm24"]
)
def test_loop_memory_is_eight_weight_arrays(budget):
    # The loop holds scaled W_hat and six n x m buffers (D, Q^T G, Q^T W,
    # Q^T D, Q^T V and a spare), and the top-k projection adds the copy
    # np.partition reorders: eight n x m float arrays. The half array
    # on top covers boolean masks (an eighth each) and the trace; the two
    # n x n arrays are the scaled Gram and Q. The polish takes no round
    # here, so the loop sets the solve's peak.
    n_in, n_out = 64, 1024
    h, w_hat = random_problem(np.random.default_rng(1), n_in, n_out)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        sol = admm_solve(h, w_hat, budget)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sol.polish_rounds == 0
    assert peak <= (8.5 * n_in * n_out + 2 * n_in * n_in) * 8


def test_budgets_on_one_factorization_match_their_solves():
    # admm_loop and polish on a factorization held across budgets give
    # each budget's admm_solve bit for bit: the loop only reads lambda and Q.
    h, w_hat = scale_instance()
    scaled = preprocess(h, w_hat)
    lam, q = eigendecompose(scaled.gram)
    for budget in (budget_from_sparsity(0.7, *w_hat.shape), NM(2, 4),
                   budget_from_sparsity(0.9, *w_hat.shape)):
        k = budget_size(budget, w_hat.shape)
        d, rho, trace = admm_loop(scaled.w_hat, lam, q, budget, k, MAX_ITERS)
        w, rounds, cg_iters = polish(scaled, float(lam[-1]), budget, d)
        sol = admm_solve(h, w_hat, budget)
        assert np.array_equal(scaled.unscale(w), sol.w)
        assert_same_trace(trace, sol.trace)
        stabilized = trace.support_change[-1] == 0
        assert (rho, stabilized, len(trace), cg_iters, rounds) == (
            sol.rho_final, sol.stabilized, sol.iterations, sol.pcg_iters_used,
            sol.polish_rounds,
        )


def test_held_factorization_keeps_the_loop_memory_bound():
    # A caller holding lambda and Q across solves keeps Q through every
    # polish; the loop still sets the peak, within the bound of
    # test_loop_memory_is_eight_weight_arrays on its instance.
    n_in, n_out = 64, 1024
    h, w_hat = random_problem(np.random.default_rng(1), n_in, n_out)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        scaled = preprocess(h, w_hat)
        lam, q = eigendecompose(scaled.gram)
        for budget in (budget_from_sparsity(0.7, n_in, n_out), NM(2, 4)):
            k = budget_size(budget, w_hat.shape)
            d = admm_loop(scaled.w_hat, lam, q, budget, k, MAX_ITERS)[0]
            w = polish(scaled, float(lam[-1]), budget, d)[0]
            del d, w
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= (8.5 * n_in * n_out + 2 * n_in * n_in) * 8


@pytest.mark.parametrize(
    "budget", [budget_from_sparsity(0.7, 64, 1024), NM(2, 4)], ids=["topk", "nm24"]
)
def test_polish_memory_is_five_weight_arrays(budget):
    # Past its entry the polish holds W and the projected D, and its CG
    # refinement, which runs in D's buffer, three more n x m arrays (the
    # residual, the search direction, and H times it, which also takes
    # both steps): five. The step from W runs in the descent's buffer,
    # which is released before the refinement, an accepted step included;
    # the half array covers boolean masks.
    n_in, n_out = 64, 1024
    h, w_hat = random_problem(np.random.default_rng(1), n_in, n_out)
    scaled = preprocess(h, w_hat)
    spectral_norm = float(eigendecompose(scaled.gram)[0][-1])
    start = project(scaled.w_hat, budget)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        _, rounds, _ = polish(scaled, spectral_norm, budget, start)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert rounds >= 1
    assert peak <= 5.5 * n_in * n_out * 8


def test_sparse_iterate_feasible_after_every_step():
    rng = np.random.default_rng(4)
    h, w_hat = random_problem(rng, 6, 4)
    scaled = preprocess(h, w_hat)
    for budget in (Unstructured(7), NM(2, 3)):
        s = initial_state(scaled.w_hat, *eigendecompose(scaled.gram))
        cap = budget_size(budget, w_hat.shape)
        for _ in range(10):
            admm_step(s, 0.1, budget)
            assert np.count_nonzero(s.d) <= cap


# --- rho_update ---


@pytest.mark.parametrize(
    "rho,s_t,k,expected",
    [
        (0.1, 10, 100, 0.13),   # s_t >= 0.1 k
        (0.1, 5, 100, 0.12),    # 0.005 k <= s_t < 0.1 k
        (0.1, 1, 100, 0.12),    # k too small for the gentlest tier
        (0.1, 1, 240, 0.11),    # 1 <= s_t < 0.005 k needs k > 200
        (0.5, 120, 100, 0.65),
    ],
)
def test_rho_update_step_function(rho, s_t, k, expected):
    assert rho_update(rho, s_t, k) == pytest.approx(expected)


def test_frozen_support_stops_the_solve_not_rho_update():
    # The loop, not the schedule, stops on a check period that moved no
    # support entry; the penalty it reports is the one that step ran at.
    rng = np.random.default_rng(10)
    h, w_hat = random_problem(rng, 8, 4)
    sol = admm_solve(h, w_hat, Unstructured(10))
    assert sol.stabilized
    assert sol.iterations % CHECK_PERIOD == 0
    assert sol.iterations > CHECK_PERIOD
    assert sol.trace.support_change[-1] == 0
    assert sol.rho_final == sol.trace.rho[-1]
    assert rho_update(0.5, 0, 100) == RHO_MULTIPLIERS[2] * 0.5


# --- admm_solve ---


def test_full_budget_recovers_dense_weights():
    rng = np.random.default_rng(5)
    h, w_hat = random_problem(rng, 6, 3)
    sol = admm_solve(h, w_hat, Unstructured(18))
    assert sol.rel_error <= 1e-12
    np.testing.assert_allclose(sol.w, w_hat, atol=1e-8)


def test_solution_support_is_exactly_k():
    rng = np.random.default_rng(6)
    h, w_hat = random_problem(rng, 8, 4)
    sol = admm_solve(h, w_hat, Unstructured(10))
    assert np.count_nonzero(sol.support) == 10
    assert np.array_equal(sol.w != 0, sol.support)


def test_near_optimal_on_enumerable_instance():
    rng = np.random.default_rng(1)
    h, w_hat = random_problem(rng, 4, 2)
    optimum = brute_force_support(h, w_hat, 3).objective
    sol = admm_solve(h, w_hat, Unstructured(3))
    assert sol.objective >= optimum - 1e-9
    assert sol.objective <= 1.05 * optimum


def test_never_beats_the_exhaustive_oracle():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        h, w_hat = random_problem(rng, 3, 2)
        optimum = brute_force_support(h, w_hat, 3).objective
        assert admm_solve(h, w_hat, Unstructured(3)).objective >= optimum - 1e-9


def test_never_beats_the_optimum_at_layer_scale(capsys):
    # The exact oracle's per-column tables reach 16-input layers. The gap
    # to the optimum is printed, not gated: it is the yardstick for a
    # local search, not a property the solver promises.
    ratios = []
    for n_out in (16, 64):
        for seed in range(3):
            h, w_hat = random_problem(np.random.default_rng(seed), 16, n_out)
            budget = budget_from_sparsity(0.7, 16, n_out)
            optimum = brute_force_support(h, w_hat, budget.k).objective
            objective = admm_solve(h, w_hat, budget).objective
            assert objective >= optimum * (1 - 1e-9), (n_out, seed)
            ratios.append(objective / optimum)
    with capsys.disabled():
        print(
            f"\nALPS / optimum on 16x16 and 16x64 layers at 0.7 sparsity, 3 seeds each: "
            f"median {np.median(ratios):.4f}, max {max(ratios):.4f}",
            flush=True,
        )


def test_zero_budget_solution():
    rng = np.random.default_rng(7)
    h, w_hat = random_problem(rng, 6, 3)
    sol = admm_solve(h, w_hat, Unstructured(0))
    assert not sol.support.any()
    assert sol.rel_error == pytest.approx(1.0)
    assert sol.stabilized


def test_nm_budget_feasible_groupwise():
    rng = np.random.default_rng(8)
    h, w_hat = random_problem(rng, 8, 4)
    sol = admm_solve(h, w_hat, NM(2, 4))
    groups = sol.w.reshape(2, 4, 4)
    assert (np.count_nonzero(groups, axis=1) <= 2).all()


def test_iteration_cap_reported_not_raised():
    rng = np.random.default_rng(9)
    h, w_hat = random_problem(rng, 6, 3)
    sol = admm_solve(h, w_hat, Unstructured(8), max_iters=1)
    assert not sol.stabilized
    assert sol.iterations == 1
    assert np.count_nonzero(sol.support) == 8  # still budget-feasible


def test_trace_matches_run_length_and_rho_monotone():
    rng = np.random.default_rng(10)
    h, w_hat = random_problem(rng, 8, 4)
    sol = admm_solve(h, w_hat, Unstructured(10))
    assert len(sol.trace) == sol.iterations
    assert len(sol.trace.d_norm) == sol.iterations + 1
    assert np.all(np.diff(sol.trace.rho) >= 0)
    assert sol.rho_final >= 0.1
    # Only the steps that end a check period count support changes.
    ends = np.arange(1, sol.iterations + 1) % CHECK_PERIOD == 0
    assert np.all(sol.trace.support_change[ends] >= 0)
    assert np.all(sol.trace.support_change[~ends] == -1)


def test_dead_channels_never_enter_the_support():
    rng = np.random.default_rng(11)
    h, w_hat = random_problem(rng, 6, 3)
    h = h.copy()
    h[2, :] = 0.0
    h[:, 2] = 0.0
    w_hat[2, :] = 100.0  # large weights on a channel the data never sees
    sol = admm_solve(h, w_hat, Unstructured(8))
    assert not sol.support[2].any()
    assert not sol.w[2].any()
    assert np.count_nonzero(sol.support) == 8


def test_weights_only_on_dead_channels_are_rejected():
    # The rescaling zeroes channel 1, at 1e-13 of the largest diagonal, so
    # the solve returned W = 0 at rel_error 1.0, where both baselines keep
    # every weight at rel_error 0.0; the refinement still keeps the warm start.
    h = np.diag([1.0, 1e-13, 2.0])
    w_hat = np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(DegenerateInstanceError, match="only on dead channels"):
        admm_solve(h, w_hat, Unstructured(2))
    assert activation_weighted_prune(w_hat, h, Unstructured(2)).rel_error == 0.0
    assert np.array_equal(pcg_refine(h, w_hat, w_hat != 0.0, w_hat), w_hat)


def test_an_indefinite_gram_is_reported_before_dead_channels():
    # The live block [[1, 2], [2, 1]] is indefinite and every weight sits
    # on the dead channel 2: the Gram's fault is the caller's input error,
    # so the factorization's check runs before the dead-channel rule.
    h = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    w_hat = np.array([[0.0], [0.0], [1.0]])
    with pytest.raises(InvalidInputError, match="gram is not positive semidefinite"):
        admm_solve(h, w_hat, Unstructured(1))


def test_metrics_are_measured_on_the_callers_gram():
    # Channel 2's diagonal is 7e-13 of the largest, under DEAD_DIAG_RTOL, so
    # the solve sets it aside; its tiny activations still carry output energy
    # through weights scaled by 1e5, which the reported metrics must count.
    rng = np.random.default_rng(11)
    x = rng.standard_normal((48, 12))
    x[:, 2] *= 1e-6
    w_hat = rng.standard_normal((12, 4))
    w_hat[2] *= 1e5
    h = linalg.gram_from_activations(x)
    assert np.diag(h)[2] <= linalg.DEAD_DIAG_RTOL * np.diag(h).max()
    sol = admm_solve(h, w_hat, Unstructured(20))
    assert sol.objective == pytest.approx(layer_objective(h, w_hat, sol.w), rel=1e-12)
    assert sol.rel_error == pytest.approx(linalg.relative_error(h, w_hat, sol.w), rel=1e-12)
    # Measured on the Gram with channel 2 zeroed, the error reads 0.54% lower.
    h_without = h.copy()
    h_without[2, :] = h_without[:, 2] = 0.0
    assert sol.rel_error > linalg.relative_error(h_without, w_hat, sol.w) * 1.005


@pytest.mark.parametrize("c", [1e-150, 1e-18, 1e-12, 1e12, 1e150, 2.5e151])
def test_solve_is_invariant_to_the_weights_scale(c):
    # Every step is linear in W_hat and every test on it relative, so
    # scaling W_hat by c scales the solve and changes no decision. A floor
    # on the refinement's starting residual that ignored W_hat's scale
    # would skip the refinement at c = 1e-18, 0.14% worse in rel_error.
    # Every trace norm stays finite: the solve runs on W_hat normalized by
    # a power of two.
    h, w_hat = scale_instance()
    budget = budget_from_sparsity(0.7, 64, 32)
    ref, sol = (admm_solve(h, s * w_hat, budget) for s in (1.0, c))
    assert all(np.isfinite(getattr(sol.trace, f.name)).all() for f in fields(sol.trace))
    assert np.array_equal(sol.support, ref.support)
    for name in ("iterations", "pcg_iters_used", "polish_rounds"):
        assert getattr(sol, name) == getattr(ref, name), name
    for check in (check_lemma1, check_lemma2):
        assert len(check(sol.trace)) == len(check(ref.trace))
    assert sol.rel_error == pytest.approx(ref.rel_error, rel=1e-9)


@pytest.mark.parametrize("k", [-500, 500])
@pytest.mark.parametrize("budget", [Unstructured(614), NM(2, 4)], ids=["topk", "nm24"])
def test_solve_scales_exactly_by_powers_of_two(budget, k):
    # preprocess normalizes W_hat by a power of two, so 2^k W_hat reaches
    # the loop as the same bits: the trace, in normalized units, is the
    # same, and the weights come back 2^k times the unscaled ones.
    h, w_hat = scale_instance()
    ref, sol = (admm_solve(h, np.ldexp(w_hat, s), budget) for s in (0, k))
    assert_same_trace(sol.trace, ref.trace)
    assert np.array_equal(sol.w, np.ldexp(ref.w, k))


@pytest.mark.parametrize("c, g, message", BEYOND_FLOAT64)
def test_solve_rejects_an_instance_beyond_float64(c, g, message):
    # Here the answer's gap leaves float64's range; the solve returned NaN
    # after overflow warnings, or a result off in its sixth digit, or
    # blamed zero output energy on nonzero weights. It runs on normalized
    # weights now, and raises where relative_error does on its answer.
    h, w_hat = scale_instance()
    with pytest.raises(DegenerateInstanceError, match=f"{message} float64"):
        admm_solve(g * h, c * w_hat, budget_from_sparsity(0.7, 64, 32))


def test_answer_weights_past_float64_are_rejected():
    # Keeping one weight refits it to 1.9e308. Unscaling it warned of an
    # overflow in ldexp; then the solve raised on its gap, and the
    # refinement on the same support returned [inf, 0].
    h = np.array([[1.0, 0.9], [0.9, 1.0]])
    w_hat = np.full((2, 1), 1e308)
    with pytest.raises(DegenerateInstanceError, match="^an unscaled weight overflows float64$"):
        admm_solve(h, w_hat, Unstructured(1))
    with pytest.raises(DegenerateInstanceError, match="^an unscaled weight overflows float64$"):
        pcg_refine(h, w_hat, np.array([[True], [False]]), np.zeros((2, 1)))


def _rescaled_norm_cases():
    h, w_hat, g, c = gap_overflow_instance()
    yield pytest.param(g * h, c * w_hat, Unstructured(1), id="2x1")
    h, w_hat = scale_instance()
    yield pytest.param(h, 3e151 * w_hat, budget_from_sparsity(0.7, 64, 32), id="gradient-3e151")
    r = 1.0 - 1e-10
    h = np.array([[1.0, r], [r, 1.0]])
    yield pytest.param(h, np.array([[1e-146], [-1e-146]]), Unstructured(1), id="gradient-1e-146")


@pytest.mark.parametrize("h, w_hat, budget", _rescaled_norm_cases())
def test_solve_answers_where_only_rescaled_norms_left_float64(h, w_hat, budget):
    # The solve refused each on a norm of its rescaled problem while the
    # answer's gap and energy are in range: on the 2x1 instance the
    # rescaled weights' squared norm, 2e310; at 3e151 ||G||^2 overflowed;
    # along the scaled Gram's eigenvalue 1e-10 it was 2.0e-312. On weights
    # normalized by a power of two no such norm can leave float64.
    sol = admm_solve(h, w_hat, budget)
    assert sol.objective == layer_objective(h, w_hat, sol.w)
    assert sol.rel_error == linalg.relative_error(h, w_hat, sol.w)


@pytest.mark.parametrize(
    "entry", ["activation_weighted_prune", "layer_objective", "magnitude_prune", "relative_error"]
)
@pytest.mark.parametrize("c, g, message", BEYOND_FLOAT64)
def test_metrics_reject_an_instance_beyond_float64(entry, c, g, message):
    # Each raises on the gap or the output energy. With both scaled, the
    # products that form them warned of their overflow first.
    h, w_hat = scale_instance()
    with pytest.raises(DegenerateInstanceError, match=f"{message} float64"):
        GRAM_ENTRIES[entry](g * h, c * w_hat)


# Each solver that reports metrics, as a function of (h, w_hat, k); oracle
# --pruned builds backsolve_exact's weights on a support into a solution.
PRODUCERS = {
    "admm-topk": lambda h, w, k: admm_solve(h, w, Unstructured(k)),
    "admm-2:4": lambda h, w, k: admm_solve(h, w, NM(2, 4)),
    "mp": lambda h, w, k: magnitude_prune(w, Unstructured(k), gram=h),
    "wanda": lambda h, w, k: activation_weighted_prune(w, h, Unstructured(k)),
    "backsolve": lambda h, w, k: build_solution(
        backsolve_exact(h, w, magnitude_prune(w, Unstructured(k)).support), h, w, "backsolve"
    ),
    "brute_force": lambda h, w, k: brute_force_support(h, w, k),
}


def _agreement_cases():
    # The 64x32 layer at weight scales across the gap's lower edge and up
    # to 2.5e151; brute force on a 4x3 corner of it; the layer with dead
    # channels; and the 2x1 instance whose gap alone leaves float64.
    h, w_hat = scale_instance()
    for c in (4.6e-157, 1e-156, 1.9e-156, 1.0, 2.5e151):
        for name in ("admm-topk", "admm-2:4", "mp", "wanda", "backsolve"):
            yield pytest.param(name, h, w_hat, 614, 1.0, c, id=f"{name}-64x32-{c:g}")
        yield pytest.param(
            "brute_force", h[:4, :4], w_hat[:4, :3], 4, 1.0, c, id=f"brute_force-4x3-{c:g}"
        )
    # With dead channels the caller's gap at 1e-156 is normal although
    # the rescaled problem's, which leaves them out, is subnormal.
    h, w_hat = dead_channel_instance()
    for c in (1e-156, 1.0):
        for name in ("admm-topk", "admm-2:4", "mp", "wanda", "backsolve"):
            yield pytest.param(name, h, w_hat, 614, 1.0, c, id=f"{name}-68x32-dead-{c:g}")
    h, w_hat, g, c = gap_overflow_instance()
    for name in ("mp", "wanda", "backsolve", "brute_force"):
        yield pytest.param(name, h, w_hat, 1, g, c, id=f"{name}-2x1")


@pytest.mark.parametrize("producer, h, w_hat, k, g, c", _agreement_cases())
def test_solvers_report_what_the_metrics_measure(producer, h, w_hat, k, g, c):
    # Every solver either reports the gap and error the metrics give its
    # weights, bit for bit, or raises where the metrics refuse its answer,
    # taken as c times its answer on the unscaled instance. The baselines
    # reported inf on the 2x1 instance, and admm_solve 6.47e-309 at 1e-156,
    # where relative_error on its weights raised; a check of the polish's
    # rescaled gap raised on the dead-channel layer where it did not.
    produce = PRODUCERS[producer]
    try:
        sol = produce(g * h, c * w_hat, k)
    except DegenerateInstanceError as exc:
        assert "float64" in str(exc)
        with pytest.raises(DegenerateInstanceError, match="float64"):
            linalg.relative_error(g * h, c * w_hat, c * produce(h, w_hat, k).w)
        return
    assert sol.objective == layer_objective(g * h, c * w_hat, sol.w)
    assert sol.rel_error == linalg.relative_error(g * h, c * w_hat, sol.w)


def test_solve_is_deterministic():
    rng = np.random.default_rng(12)
    h, w_hat = random_problem(rng, 6, 3)
    a = admm_solve(h, w_hat, Unstructured(8))
    b = admm_solve(h, w_hat, Unstructured(8))
    assert np.array_equal(a.w, b.w)
    assert a.objective == b.objective


# Solves one instance from saved arrays in a child process, whose BLAS
# thread count is fixed at start-up, and saves what the solves found.
SOLVE_CHILD = """
import sys
import numpy as np
import l0prune as lp
h, w_hat = np.load(sys.argv[1]), np.load(sys.argv[2])
budgets = {"topk": lp.budget_from_sparsity(0.7, *w_hat.shape), "nm24": lp.NM(2, 4)}
out = {}
for name, budget in budgets.items():
    sol = lp.admm_solve(h, w_hat, budget)
    out[name + "_support"] = sol.support
    out[name + "_counts"] = [sol.iterations, sol.polish_rounds, sol.pcg_iters_used]
    out[name + "_rel_error"] = sol.rel_error
np.savez(sys.argv[3], **out)
"""


def test_solve_agrees_across_blas_thread_counts(tmp_path):
    # Bits are pinned only at a fixed BLAS thread count: the threads split
    # the products' sums differently. The supports and counts must agree.
    rng = np.random.default_rng(3)
    h = linalg.gram_from_activations(correlated_activations(rng, 256, 128))
    inputs = [tmp_path / "h.npy", tmp_path / "w_hat.npy"]
    np.save(inputs[0], h)
    np.save(inputs[1], rng.standard_normal((128, 256)))
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.npz"
        env = {**os.environ, "PYTHONPATH": str(SRC),
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        child = [sys.executable, "-c", SOLVE_CHILD, *inputs, out]
        subprocess.run(child, env=env, check=True, timeout=300)
        runs.append(np.load(out))
    one, two = runs
    for name in ("topk", "nm24"):
        assert np.array_equal(one[name + "_support"], two[name + "_support"])
        assert np.array_equal(one[name + "_counts"], two[name + "_counts"])
        rel_error = name + "_rel_error"
        assert two[rel_error] == pytest.approx(one[rel_error], rel=1e-12)


def test_budget_bound_checked():
    rng = np.random.default_rng(13)
    h, w_hat = random_problem(rng, 4, 2)
    with pytest.raises(InvalidInputError):
        admm_solve(h, w_hat, Unstructured(9))
    with pytest.raises(InvalidInputError):
        admm_solve(h, w_hat, NM(2, 3))



# Outlier-channel instances, as in LLM activations: 1% of channels x20, 2%
# x100 or 5% x30, at 64x32 from 256 rows and 128x64 from 512, 8 seeds each,
# under 0.7 top-k and 2:4.
OUTLIERS = [(0.01, 20.0), (0.02, 100.0), (0.05, 30.0)]


@pytest.fixture(scope="module")
def outlier_solves():
    solves = []
    for (n_in, n_out), outliers, seed in itertools.product(
        [(64, 32), (128, 64)], OUTLIERS, range(8)
    ):
        rng = np.random.default_rng(seed)
        h, w_hat = random_problem(rng, n_in, n_out, outliers=outliers)
        for budget in (budget_from_sparsity(0.7, n_in, n_out), NM(2, 4)):
            solves.append((
                admm_solve(h, w_hat, budget),
                activation_weighted_prune(w_hat, h, budget),
                magnitude_prune(w_hat, budget, gram=h),
            ))
    return solves


def test_outlier_channels_order_alps_wanda_magnitude(outlier_solves):
    # Large channels make Wanda's |W| * ||X_j|| scores differ from plain
    # magnitudes, so the three methods separate strictly.
    for alps, wanda, mp in outlier_solves:
        assert alps.rel_error < wanda.rel_error < mp.rel_error


def test_outlier_channels_stabilize_like_uniform_ones(outlier_solves):
    # The rescaling absorbs the channel scales: these solves stabilized in
    # 27-36 iterations, the same seeds without outliers in 27-33.
    for alps, _, _ in outlier_solves:
        assert alps.stabilized and alps.iterations <= 45


@pytest.mark.parametrize("seed", [0, 1])
def test_alps_beats_wanda_on_held_out_rows(seed):
    # The abstract's headline is a held-out measure, and ALPS, which fits
    # its calibration Gram far closer than Wanda, is the method most
    # exposed to overfitting it. With 8n calibration rows it still wins on
    # 8,192 fresh rows of the same distribution, undamped.
    n_in, n_out = 128, 64
    h, w_hat, held_out = held_out_problem(
        np.random.default_rng(seed), n_in, n_out, 8 * n_in, 8192
    )
    budget = budget_from_sparsity(0.7, n_in, n_out)
    alps = admm_solve(h, w_hat, budget).w
    wanda = activation_weighted_prune(w_hat, h, budget).w
    assert relative_error(held_out, w_hat, alps) < relative_error(held_out, w_hat, wanda)


# --- polish ---


@pytest.mark.parametrize("budget", [Unstructured(153), NM(2, 4)])
def test_diagonal_gram_lands_on_weighted_truncation(budget):
    # A diagonal Gram makes the objective separable: the optimum keeps the
    # largest |W_hat[i, j]| * sqrt(H[i, i]) at their dense values, which is
    # what activation_weighted_prune returns. A non-identity diagonal also
    # exercises the rescaling.
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        h = np.diag(rng.uniform(0.1, 10.0, 32))
        w_hat = rng.standard_normal((32, 16))
        sol = admm_solve(h, w_hat, budget)
        expected = activation_weighted_prune(w_hat, h, budget).objective
        assert abs(sol.objective - expected) <= 1e-8 * expected


@pytest.mark.parametrize("kind", ["topk", "nm"])
def test_solve_never_loses_to_the_activation_weighted_baseline(kind):
    # The polish's step from W_hat lands on the activation-weighted
    # support: on the rescaled problem's unit diagonal |W_hat'| is its
    # score. So a solve's objective is never above that baseline's.
    for seed in range(300):
        if kind == "topk":
            h, w_hat, k = tiny_problem(seed)
            budgets = [Unstructured(k)]
        else:
            h, w_hat, _ = tiny_problem(seed, n_in=(4, 8)[seed % 2])
            budgets = [NM(1, 4), NM(2, 4)]
        for budget in budgets:
            sol = admm_solve(h, w_hat, budget)
            wanda = activation_weighted_prune(w_hat, h, budget).objective
            assert sol.objective <= wanda * (1.0 + 1e-9), (seed, budget)


def test_solve_reaches_the_optimum_where_magnitude_beat_it():
    # On this instance the loop's support, refined, reads rel_error 0.6254
    # where unrefined magnitude reads 0.1604 and the optimum 0.1497.
    h = np.array([[6.425, 2.451], [2.451, 14.003]])
    w_hat = np.array([[-1.219], [-0.404]])
    sol = admm_solve(h, w_hat, Unstructured(1))
    best = brute_force_support(h, w_hat, 1)
    assert sol.objective == pytest.approx(best.objective, rel=1e-9)
    assert np.array_equal(sol.support, best.support)


def test_polish_rounds_accepted_only_when_the_objective_falls():
    budget = Unstructured(40)
    accepted = 0
    for seed in range(6):
        rng = np.random.default_rng(40 + seed)
        h, w_hat = random_problem(rng, 16, 8)
        scaled = preprocess(h, w_hat)
        spectral_norm = float(eigendecompose(scaled.gram)[0][-1])
        mask = budget_mask(np.abs(scaled.w_hat), budget)
        start = np.where(mask, scaled.w_hat, 0.0)
        # The polish refines in its start's buffer, and start is used below.
        w, rounds, cg_iters = polish(scaled, spectral_norm, budget, start.copy())
        refined = pcg_refine(scaled.gram, scaled.w_hat, mask, start)
        before = layer_objective(scaled.gram, scaled.w_hat, refined)
        after = layer_objective(scaled.gram, scaled.w_hat, w)
        assert after <= before
        assert (rounds > 0) == (after < before)
        assert cg_iters >= rounds
        assert np.count_nonzero(w) <= budget.k
        accepted += rounds > 0
    assert accepted > 0  # magnitude supports are rarely hard-thresholding fixed points


def test_polish_runs_without_loop_iterates(monkeypatch):
    # The state, its buffers, lambda and Q (which admm_solve itself also
    # holds), and the supports the loop checked must not stay alive
    # through the polish, where they would raise the solve's memory peak;
    # only the last D is handed over.
    held = []

    def tracked_initial_state(w_hat, lam, q):
        state = initial_state(w_hat, lam, q)
        held.append(weakref.ref(state))
        held.extend(weakref.ref(a) for a in vars(state).values())
        return state

    def tracked_support_change(current, previous):
        held.extend((weakref.ref(current), weakref.ref(previous)))
        return support_change(current, previous)

    entries = []

    def checked_polish(scaled, spectral_norm, budget, d):
        gc.collect()
        entries.append([ref() is None or ref() is d for ref in held])
        return polish(scaled, spectral_norm, budget, d)

    monkeypatch.setattr(admm, "initial_state", tracked_initial_state)
    monkeypatch.setattr(admm, "support_change", tracked_support_change)
    monkeypatch.setattr(admm, "polish", checked_polish)
    rng = np.random.default_rng(16)
    h, w_hat = random_problem(rng, 12, 8)
    # One solve stops on a frozen support, at a check boundary; one stops
    # at max_iters = 4, between boundaries.
    for cap in (MAX_ITERS, 4):
        held.clear()
        admm_solve(h, w_hat, Unstructured(30), max_iters=cap)
        # The state, its eight arrays, and at least one checked pair.
        assert len(held) >= 1 + len(fields(AdmmState)) + 2
        assert all(entries.pop())
