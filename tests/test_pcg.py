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
from l0prune.linalg import DEAD_DIAG_RTOL
from l0prune.pcg import REL_TOL, support_cg

from conftest import BEYOND_FLOAT64, random_problem, scale_instance


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


def test_refine_is_invariant_to_the_weights_scale():
    # Scaling W_hat and the warm start by c scales the refinement by c. A
    # floor on the starting residual that ignored W_hat's scale would
    # return the warm start at c = 1e-18, 25% off.
    rng = np.random.default_rng(9)
    h, w_hat = random_problem(rng, 24, 6)
    support = mp_support(w_hat, 72)
    w0 = np.where(support, w_hat, 0.0)
    c = 1e-18
    expected = c * pcg_refine(h, w_hat, support, w0)
    out = pcg_refine(h, c * w_hat, support, c * w0)
    assert np.linalg.norm(out - expected) <= 1e-9 * np.linalg.norm(expected)


@pytest.mark.parametrize("k", [-500, 500])
def test_refine_scales_exactly_by_powers_of_two(k):
    # preprocess normalizes W_hat by a power of two, so 2^k W_hat and a
    # warm start 2^k w0 reach the kernel as the same bits.
    h, w_hat = scale_instance()
    support = mp_support(w_hat, 614)
    w0 = np.where(support, w_hat, 0.0)
    expected = np.ldexp(pcg_refine(h, w_hat, support, w0), k)
    assert np.array_equal(pcg_refine(h, np.ldexp(w_hat, k), support, np.ldexp(w0, k)), expected)


# The instances beyond float64 where the metrics raise, on the 0.7
# magnitude support, and weights scales where a cold start on the full
# support overflowed the curvature (1.4e151 to 2.5e151) or the first
# residual (2.6e151, 3.9e151) before the refinement ran on normalized weights.
SCALED_REFINEMENTS = [pytest.param(*p.values[:2], 614, id=p.id) for p in BEYOND_FLOAT64] + [
    pytest.param(c, 1.0, 2048, id=f"full-{c:g}")
    for c in (1.4e151, 2e151, 2.5e151, 2.6e151, 3.9e151)
]


@pytest.mark.parametrize("c, g, kept", SCALED_REFINEMENTS)
def test_refine_returns_c_times_the_unscaled_refinement(c, g, kept):
    # The refinement checks no metric, so on W_hat normalized by a power of
    # two it has no range edge in c or g. Without the normalization it
    # raised here, and before that it warned on overflow and returned
    # weights 37% off, drifted, or returned the zero start. A warm start,
    # W_hat magnitude-pruned, crosses the scaling as W_hat does, the power
    # of two first: divided by E first, it overflowed at 1e160 on 1e300.
    h, w_hat = scale_instance()
    support = mp_support(w_hat, kept)
    for w0 in (np.zeros(w_hat.shape), np.where(support, w_hat, 0.0)):
        expected = pcg_refine(h, w_hat, support, w0)
        out = pcg_refine(g * h, c * w_hat, support, c * w0)
        assert np.linalg.norm(out / c - expected) <= 1e-12 * np.linalg.norm(expected)


def test_refine_rejects_a_warm_start_the_scaling_takes_past_float64():
    # e is W_hat's alone, so 2^-e takes this w0 past float64, and the
    # refinement says so. An e over W_hat and w0 together keeps w0 in
    # range but underflows W_hat to zero: it returned [0, 0], not W_hat.
    w_hat = np.full((2, 1), 1e-300)
    w0 = np.array([[1e300], [0.0]])
    with pytest.raises(DegenerateInstanceError, match="^a rescaled weight overflows float64$"):
        pcg_refine(np.eye(2), w_hat, np.ones((2, 1), bool), w0)


@pytest.mark.parametrize(
    "c, message",
    [(2e153, "curvature along the search direction"),
     (1e154, "squared norm of the refinement's residual")],
)
def test_refine_rejects_a_residual_or_curvature_beyond_float64(c, message):
    # A warm start far above W_hat on the full support. Unchecked, p^T H p
    # overflows to inf, so the step is zero and the start comes back with
    # no warning; at 1e154 the first residual's squared norm overflows first.
    h, w_hat = scale_instance()
    with pytest.raises(DegenerateInstanceError, match=f"^{message} overflows float64$"):
        pcg_refine(h, w_hat, np.ones(w_hat.shape, bool), np.full(w_hat.shape, c))


@pytest.mark.parametrize("c, kept", [(4.6e-157, 2048), (1.3e151, 2048), (2.6e151, 614)])
def test_refine_scales_up_to_its_edges(c, kept):
    # A tiny residual or curvature is progress, not lost bits, so only
    # their overflow raises; on normalized weights neither depends on c.
    # Before the normalization these scales were just inside the edges:
    # at 4.6e-157 the curvatures fell below the smallest normal float64,
    # and only the magnitude support kept them finite at 2.6e151.
    h, w_hat = scale_instance()
    support = mp_support(w_hat, kept)
    expected = pcg_refine(h, w_hat, support, np.zeros(w_hat.shape))
    out = pcg_refine(h, c * w_hat, support, np.zeros(w_hat.shape))
    assert np.linalg.norm(out / c - expected) <= 1e-12 * np.linalg.norm(expected)


def test_refine_leaves_dead_channels_at_the_warm_start():
    # The refinement runs on the solver's rescaling, which sets aside a
    # channel whose Gram diagonal is at most DEAD_DIAG_RTOL of the largest.
    h, w_hat = random_problem(np.random.default_rng(10), 8, 3)
    # A congruence keeps h PSD and puts channel 3 at 1e-13 of the largest.
    e = np.ones(8)
    e[3] = np.sqrt(1e-13 * np.diag(h).max() / h[3, 3])
    h = h * e[:, None] * e[None, :]
    assert np.diag(h)[3] <= DEAD_DIAG_RTOL * np.diag(h).max()
    support = support_of(np.ones_like(w_hat))
    w0 = w_hat + 0.5
    out = pcg_refine(h, w_hat, support, w0)
    np.testing.assert_array_equal(out[3], w0[3])
    assert not np.array_equal(out, w0)


def test_refine_returns_dead_rows_exactly():
    # Dead rows never cross the scaling. At e = 998 a round trip through
    # 2^-e and 2^e underflowed this warm start's 1e-300 to 0.0.
    h = np.diag([1.0, 1e-13])
    w_hat = np.array([[1e300], [0.0]])
    out = pcg_refine(h, w_hat, np.ones((2, 1), bool), np.array([[0.0], [1e-300]]))
    assert out[1, 0] == 1e-300


def test_refine_rejects_an_all_zero_gram():
    w_hat = np.ones((3, 2))
    with pytest.raises(DegenerateInstanceError, match="entirely zero"):
        pcg_refine(np.zeros((3, 3)), w_hat, support_of(w_hat), np.zeros((3, 2)))


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
    # rather than a silent wrong answer. Its diagonal is positive, so the
    # instance check lets it through; only the spectrum shows it.
    h = np.array([[1.0, 2.0], [2.0, 1.0]])
    w_hat = np.array([[1.0], [-1.0]])
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


def test_misshapen_warm_start_rejected():
    with pytest.raises(InvalidInputError, match=r"warm start \(2, 2\) not shaped like \(3, 2\)"):
        pcg_refine(np.eye(3), np.ones((3, 2)), np.ones((3, 2), bool), np.zeros((2, 2)))


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
