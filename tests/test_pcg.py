import numpy as np
import pytest

from l0prune import (
    DegenerateInstanceError,
    InvalidInputError,
    Unstructured,
    backsolve_exact,
    layer_objective,
    magnitude_prune,
    pcg_refine,
    support_of,
)
from l0prune.pcg import REL_TOL, support_cg

from conftest import random_problem


def mp_support(w_hat, k):
    return magnitude_prune(w_hat, Unstructured(k)).support


def test_identity_gram_full_support_converges_in_one_step():
    rng = np.random.default_rng(0)
    w_hat = rng.standard_normal((5, 3))
    mask = np.ones((5, 3), dtype=bool)
    out, iterations = support_cg(np.eye(5), w_hat, mask, np.zeros((5, 3)), 10)
    np.testing.assert_allclose(out, w_hat, atol=1e-12)
    assert iterations == 1


def test_empty_support_returns_warm_start_untouched():
    mask = np.zeros((3, 2), dtype=bool)
    out, iterations = support_cg(np.eye(3), np.ones((3, 2)), mask, np.zeros((3, 2)), 10)
    assert not out.any()
    assert iterations == 0


def test_config_validation():
    w_hat = np.ones((3, 2))
    for max_iters in (0, -1, 2.5):
        with pytest.raises(InvalidInputError):
            pcg_refine(np.eye(3), w_hat, support_of(w_hat), np.zeros((3, 2)), max_iters)


def test_warm_start_off_support_rejected():
    h = np.eye(3)
    w_hat = np.ones((3, 1))
    support = mp_support(np.array([[3.0], [2.0], [1.0]]), 2)
    w0 = np.array([[0.0], [0.0], [1.0]])  # mass on the dropped coordinate
    with pytest.raises(InvalidInputError):
        pcg_refine(h, w_hat, support, w0)


def test_matches_backsolve_on_magnitude_support():
    rng = np.random.default_rng(1)
    h, w_hat = random_problem(rng, 6, 3)
    support = mp_support(w_hat, 9)  # 50% kept
    exact = backsolve_exact(h, w_hat, support)
    out = pcg_refine(h, w_hat, support, np.zeros_like(w_hat), max_iters=36)
    assert np.linalg.norm(out - exact) <= 1e-6 * np.linalg.norm(exact)


def test_result_stays_on_support():
    rng = np.random.default_rng(2)
    for seed in range(5):
        h, w_hat = random_problem(np.random.default_rng(seed), 8, 4)
        support = mp_support(w_hat, 12)
        out = pcg_refine(h, w_hat, support, np.zeros_like(w_hat), max_iters=3)
        assert not out[~support].any()


def test_objective_nonincreasing_across_iteration_counts():
    # Running t iterations from the same start must never be worse than t-1.
    rng = np.random.default_rng(3)
    h, w_hat = random_problem(rng, 8, 3)
    support = mp_support(w_hat, 10)
    w0 = np.where(support, w_hat, 0.0)
    objectives = [
        layer_objective(
            h, w_hat, pcg_refine(h, w_hat, support, w0, max_iters=t)
        )
        for t in range(1, 9)
    ]
    for earlier, later in zip(objectives, objectives[1:]):
        assert later <= earlier + 1e-10 * max(1.0, earlier)


def test_full_support_reaches_dense_weights():
    rng = np.random.default_rng(4)
    h, w_hat = random_problem(rng, 6, 2)
    support = support_of(np.ones_like(w_hat))
    out = pcg_refine(h, w_hat, support, np.zeros_like(w_hat), max_iters=60)
    np.testing.assert_allclose(out, w_hat, atol=1e-6 * np.linalg.norm(w_hat))


def test_refine_is_invariant_under_diagonal_rescaling():
    # Jacobi preconditioning makes the refinement see through a diagonal
    # change of variables W = E W': on (E H E, E^-1 W_hat) it returns
    # E^-1 times the refinement of (H, W_hat). Plain CG does not, and a
    # few iterations on a badly scaled Gram show it.
    for seed in range(5):
        rng = np.random.default_rng(20 + seed)
        h, w_hat = random_problem(rng, 12, 4)
        e = 10.0 ** rng.uniform(-3.0, 3.0, 12)
        h_e = h * e[:, None] * e[None, :]
        support = mp_support(w_hat, 24)
        w0 = np.where(support, w_hat, 0.0)
        out = pcg_refine(h, w_hat, support, w0, max_iters=3)
        out_e = pcg_refine(
            (h_e + h_e.T) / 2.0, w_hat / e[:, None], support, w0 / e[:, None], max_iters=3
        )
        expected = out / e[:, None]
        assert np.linalg.norm(out_e - expected) <= 1e-9 * np.linalg.norm(expected)


def test_refine_leaves_the_warm_start_unchanged():
    # The kernel refines in its warm-start buffer; the public entry must
    # not hand it the caller's array, which as_matrix passes through.
    rng = np.random.default_rng(8)
    h, w_hat = random_problem(rng, 6, 3)
    support = mp_support(w_hat, 9)
    w0 = np.where(support, w_hat, 0.0)
    before = w0.copy()
    out = pcg_refine(h, w_hat, support, w0)
    assert not np.array_equal(out, before)
    np.testing.assert_array_equal(w0, before)


def test_idempotent_at_convergence():
    rng = np.random.default_rng(5)
    h, w_hat = random_problem(rng, 6, 3)
    support = mp_support(w_hat, 9)
    once = pcg_refine(h, w_hat, support, np.zeros_like(w_hat), max_iters=36)
    twice = pcg_refine(h, w_hat, support, once, max_iters=36)
    obj_once = layer_objective(h, w_hat, once)
    obj_twice = layer_objective(h, w_hat, twice)
    assert abs(obj_twice - obj_once) <= 1e-8 * max(1.0, obj_once)


def test_exact_warm_start_returns_immediately():
    rng = np.random.default_rng(6)
    h, w_hat = random_problem(rng, 5, 2)
    support = mp_support(w_hat, 6)
    exact = backsolve_exact(h, w_hat, support)
    # The kernel refines in place, so it gets a copy to compare against.
    out, iterations = support_cg(h, w_hat, support, exact.copy(), 10)
    # The residual starts at rounding level, so no meaningful work happens.
    assert iterations <= 1
    np.testing.assert_allclose(out, exact, atol=1e-10)


def test_breakdown_on_vanishing_curvature():
    # An indefinite matrix drives the search-direction curvature negative
    # while the residual is still large, which must surface as breakdown
    # rather than a silent wrong answer.
    h = np.diag([1.0, -1.0])
    w_hat = np.array([[0.0], [1.0]])
    support = support_of(np.ones((2, 1)))
    with pytest.raises(DegenerateInstanceError, match="curvature .* along search direction"):
        pcg_refine(h, w_hat, support, np.zeros((2, 1)))


@pytest.mark.parametrize(
    "support",
    [np.ones((3, 2)), np.ones((3, 2), dtype=np.int8), np.ones((2, 3), dtype=bool)],
    ids=["float", "int8", "transposed"],
)
def test_support_must_be_boolean_and_shaped_like_weights(support):
    w_hat = np.ones((3, 2))
    with pytest.raises(InvalidInputError):
        pcg_refine(np.eye(3), w_hat, support, np.zeros((3, 2)))


def test_shape_mismatch_rejected():
    with pytest.raises(InvalidInputError):
        pcg_refine(
            np.eye(3), np.ones((4, 2)), support_of(np.ones((4, 2))), np.zeros((4, 2))
        )


def test_stats_report_final_relative_residual():
    rng = np.random.default_rng(7)
    h, w_hat = random_problem(rng, 6, 3)
    support = mp_support(w_hat, 9)
    w, iterations = support_cg(h, w_hat, support, np.zeros_like(w_hat), 36)
    # Under the cap, so CG stopped on its relative tolerance, and the
    # residual it reached says so.
    assert iterations < 36
    start = np.linalg.norm(support * (h @ w_hat))
    assert np.linalg.norm(support * (h @ (w_hat - w))) <= REL_TOL * start
