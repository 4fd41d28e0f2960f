import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from l0prune import (
    DegenerateInstanceError,
    InvalidInputError,
    Unstructured,
    gram_from_activations,
    layer_objective,
    relative_error,
)
from l0prune import matrixio
from l0prune.admm import admm_step, initial_state
from l0prune.linalg import (
    SYMMETRY_RTOL, as_matrix, check_finite, check_instance, eigendecompose, validate_gram,
)
from l0prune.matrixio import read_row_blocks, write_matrix

from conftest import random_psd, scale_instance


def test_as_matrix_rejects_nan():
    with pytest.raises(InvalidInputError):
        as_matrix(np.array([[1.0, np.nan]]))


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_as_matrix_rejects_an_infinite_entry(value):
    x = np.ones((3, 4))
    x[2, 1] = value
    with pytest.raises(InvalidInputError, match="non-finite"):
        as_matrix(x)


def test_as_matrix_allocates_no_mask():
    # Finiteness is read off max and min, as check_finite reads it: an
    # isfinite mask of this 2048 x 2048 array would take 4.2 MB.
    x = np.ones((2048, 2048))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        as_matrix(x)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_instance_check_copies_no_gram():
    # Symmetry is read off H - H^T in row blocks of about 1 MiB: the whole
    # difference of this 2048 x 2048 Gram would take 33.6 MB.
    h = random_psd(np.random.default_rng(4), 2048)
    w_hat = np.ones((2048, 2))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        check_instance(h, w_hat)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_as_matrix_rejects_vector():
    with pytest.raises(InvalidInputError):
        as_matrix(np.ones(3))


def test_as_matrix_rejects_empty_dims():
    with pytest.raises(InvalidInputError):
        as_matrix(np.ones((0, 2)))


# --- gram_from_activations ---


def test_gram_diagonal_case():
    x = np.array([[1.0, 0.0], [0.0, 2.0]])
    np.testing.assert_array_equal(gram_from_activations(x), [[1.0, 0.0], [0.0, 4.0]])


def test_gram_single_row_is_outer_product():
    x = np.array([[3.0, -2.0]])
    np.testing.assert_allclose(gram_from_activations(x), [[9.0, -6.0], [-6.0, 4.0]])


def test_gram_matches_outer_product_sum():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 3))
    expected = sum(np.outer(row, row) for row in x)
    np.testing.assert_allclose(gram_from_activations(x), expected, rtol=1e-12)


def activation_layouts(rng):
    """One activation matrix in each layout a caller may hand over."""
    x = rng.standard_normal((600, 200))
    return {
        "contiguous": x[:300, :100].copy(),
        "column-strided": x[:300, ::2],
        "row-strided": x[::2, :100],
        "fortran": np.asfortranarray(x[:300, :100]),
        "float32": x[:300, :100].astype(np.float32),
    }


def float32_stream(tmp_path, monkeypatch, x):
    """x's rows read back from a float32 file in blocks of 40 rows."""
    path = tmp_path / "x.amtx"
    write_matrix(path, x, dtype=np.float32)
    monkeypatch.setattr(matrixio, "BLOCK_BYTES", 40 * x.shape[1] * 8)
    return lambda: read_row_blocks(path)


def summed_products(blocks):
    """The block products X^T X added in order, each of a C-ordered float64 copy."""
    wide = [np.ascontiguousarray(b, dtype=np.float64) for b in blocks]
    h = wide[0].T @ wide[0]
    for b in wide[1:]:
        h = h + b.T @ b
    return h


def test_gram_output_is_exactly_symmetric(tmp_path, monkeypatch):
    # BLAS's X^T X is exactly symmetric, and so is a sum of such products:
    # the Gram is returned as summed, in every layout the bits of X^T X of a
    # C-ordered copy. NumPy's own product of the column-strided view is not
    # exactly symmetric at this size.
    rng = np.random.default_rng(2)
    for name, x in activation_layouts(rng).items():
        h = gram_from_activations(x)
        assert h.tobytes() == summed_products([x]).tobytes(), name
        assert np.array_equal(h, h.T), name
        validate_gram(h)
    stream = float32_stream(tmp_path, monkeypatch, rng.standard_normal((150, 7)))
    h = gram_from_activations(stream())
    assert np.array_equal(h, h.T)
    validate_gram(h)


def test_gram_sums_row_blocks_in_order(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((9, 4))
    blocks = iter([x[:4], x[4:8].copy(), x[8:]])
    np.testing.assert_allclose(gram_from_activations(blocks), x.T @ x, rtol=1e-13)
    one = gram_from_activations(iter([x]))
    assert one.tobytes() == gram_from_activations(x).tobytes()
    for name, x in activation_layouts(rng).items():
        blocks = [x[:200], x[200:210], x[210:]]
        h = gram_from_activations(iter(blocks))
        assert h.tobytes() == summed_products(blocks).tobytes(), name
        assert np.array_equal(h, h.T), name
    stream = float32_stream(tmp_path, monkeypatch, rng.standard_normal((150, 7)))
    blocks = [b.copy() for b in stream()]
    assert [len(b) for b in blocks] == [40, 40, 40, 30]
    h = gram_from_activations(stream())
    assert h.tobytes() == summed_products(blocks).tobytes()
    assert np.array_equal(h, h.T)


def test_gram_entries_near_the_top_of_float64_stay_finite():
    # 1.44e308 is finite, but twice it is not: no pass may form H + H^T.
    x = np.array([[1.2e154, 1.0e154], [1.0, 2.0]])
    h = gram_from_activations(x)
    assert h.tobytes() == (x.T @ x).tobytes()
    validate_gram(h)


def test_gram_of_one_array_holds_only_the_gram():
    # One block needs no spare product buffer: the Gram, n^2 float64, is all
    # it allocates.
    n = 1024
    x = np.random.default_rng(4).standard_normal((n, n))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        h = gram_from_activations(x)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert h.shape == (n, n)
    assert peak <= 1.1 * n * n * 8


@pytest.mark.parametrize(
    "blocks, message",
    [([], "no row blocks"), ([np.ones((2, 3)), np.ones((2, 4))], "4 columns, expected 3"),
     ([np.ones((2, 3)), np.array([[np.nan, 0.0, 0.0]])], "non-finite")],
    ids=["empty", "ragged", "nan"],
)
def test_gram_rejects_bad_row_blocks(blocks, message):
    with pytest.raises(InvalidInputError, match=message):
        gram_from_activations(iter(blocks))


# --- validate_gram ---


def test_validate_gram_rejects_asymmetry():
    with pytest.raises(InvalidInputError):
        validate_gram(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_negative_definite_rejected_at_factorization():
    # validate_gram checks shape and symmetry; definiteness is caught where
    # the spectrum is actually computed.
    validate_gram(-np.eye(3))
    with pytest.raises(InvalidInputError):
        eigendecompose(-np.eye(3))


def test_validate_gram_accepts_tiny_asymmetry():
    h = np.eye(2)
    h[0, 1] = 1e-12
    validate_gram(h)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_validate_gram_tolerance_scales_with_largest_magnitude(sign):
    # The scale is max |h|, also when the most negative entry sets it.
    h = np.diag([sign * 4.0, 1.0])
    h[0, 1] = 1e-9 * 4.0
    validate_gram(h)
    h[0, 1] = np.nextafter(h[0, 1], 1.0)
    with pytest.raises(InvalidInputError, match="symmetric"):
        validate_gram(h)


def violates_symmetry(h):
    """The rule validate_gram applies, read off the whole of |H - H^T|."""
    with np.errstate(over="ignore"):
        return np.abs(h - h.T).max() > SYMMETRY_RTOL * max(np.abs(h).max(), 1e-300)


def straddle(h, i, j, sign):
    """Copies of h with h[i, j] one ulp apart, on both sides of the symmetry rule."""
    h = h.copy()
    h[i, j] = h[j, i] + sign * SYMMETRY_RTOL * np.abs(h).max()
    start = violates_symmetry(h)
    toward = -sign * np.inf if start else sign * np.inf
    while violates_symmetry(h) == start:
        h[i, j] = np.nextafter(h[i, j], toward)
    other = h.copy()
    other[i, j] = np.nextafter(h[i, j], -toward)
    return h, other


def check_verdict(h):
    """validate_gram rejects h exactly when the rule does."""
    if violates_symmetry(h):
        with pytest.raises(InvalidInputError, match="symmetric"):
            validate_gram(h)
    else:
        validate_gram(h)


# 1000 is not a multiple of the 131 rows a block holds at that side: entry
# (999, 3) is in the last, short block, (130, 131) and (131, 130) straddle a
# block boundary.
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize(
    "n, i, j", [(2, 0, 1), (2, 1, 0), (1000, 999, 3), (1000, 3, 999), (1000, 130, 131),
                (1000, 131, 130)],
)
def test_validate_gram_gives_the_verdict_of_the_whole_difference(n, i, j, sign):
    x = np.random.default_rng(n + i).standard_normal((n, n))
    pair = straddle((x + x.T) / 2.0, i, j, sign)
    assert sorted(violates_symmetry(h) for h in pair) == [False, True]
    for h in pair:
        check_verdict(h)


@pytest.mark.parametrize(
    "h, rejected",
    [([[5.0]], False), ([[-3.0]], False), ([[1.0, 1e308], [-1e308, 1.0]], True),
     ([[1e308, -1e308], [-1e308, 1e308]], False)],
    ids=["1x1", "1x1_negative", "overflowing_skew", "extreme_symmetric"],
)
def test_validate_gram_verdict_on_edge_cases(h, rejected):
    h = np.array(h)
    assert violates_symmetry(h) == rejected
    check_verdict(h)


# --- check_finite ---


def test_check_finite_allocates_no_array():
    # Read off max and min: no boolean mask, which would be 1 MB here.
    # Each NumPy reduction costs about 1 KB of its own, whatever the size.
    x = np.random.default_rng(5).standard_normal((1000, 1000))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        check_finite(x, "x")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2048


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_check_finite_raises_on_one_entry_past_float64(value):
    x = np.ones((1000, 1000))
    x[617, 42] = value
    with pytest.raises(DegenerateInstanceError, match="x overflows float64"):
        check_finite(x, "x")


# --- eigendecompose ---


def test_eigendecompose_diagonal():
    lam, q = eigendecompose(np.diag([4.0, 1.0]))
    np.testing.assert_allclose(lam, [1.0, 4.0])
    np.testing.assert_allclose(np.abs(q), np.eye(2)[:, ::-1], atol=1e-14)


def test_eigendecompose_identity():
    lam, _ = eigendecompose(np.eye(5))
    np.testing.assert_allclose(lam, np.ones(5))
    assert lam[-1] == pytest.approx(1.0)


def test_eigendecompose_reconstructs():
    rng = np.random.default_rng(3)
    h = random_psd(rng, 6)
    lam, q = eigendecompose(h)
    rebuilt = (q * lam) @ q.T
    assert np.linalg.norm(rebuilt - h) <= 1e-6 * np.linalg.norm(h)


def test_eigendecompose_clamps_rounding_noise():
    rng = np.random.default_rng(4)
    h = random_psd(rng, 5, rank=3)  # exactly rank deficient
    lam, _ = eigendecompose(h)
    assert lam.min() >= 0.0


def test_eigendecompose_rejects_indefinite():
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))
    h = (q * np.array([1.0, 0.5, -1e-3])) @ q.T
    h = (h + h.T) / 2.0
    with pytest.raises(InvalidInputError):
        eigendecompose(h)


# --- the step's ridge solve ---
# The dense update of admm_step solves (H + rho I) W = G - V + rho D in the
# eigenbasis. With zero weights (G = D = 0) and V = -B it solves for B.


def step_ridge_solve(h, rho, b):
    state = initial_state(np.zeros_like(b), *eigendecompose(h))
    state = replace(state, qtv=state.q.T @ -b)
    admm_step(state, rho, Unstructured(b.size))
    return state.q @ state.qtw


def test_ridge_solve_diagonal_arithmetic():
    out = step_ridge_solve(np.diag([1.0, 4.0]), 1.0, np.array([[2.0], [5.0]]))
    np.testing.assert_allclose(out, [[1.0], [1.0]], atol=1e-14)


def test_ridge_solve_zero_gram_divides_by_rho():
    b = np.arange(6.0).reshape(3, 2)
    np.testing.assert_allclose(step_ridge_solve(np.zeros((3, 3)), 2.0, b), b / 2.0, atol=1e-14)


@pytest.mark.parametrize("rho", np.logspace(-4, 8, 7))
def test_ridge_solve_residual_across_rho_range(rho):
    rng = np.random.default_rng(6)
    h = random_psd(rng, 8)
    b = rng.standard_normal((8, 4))
    y = step_ridge_solve(h, rho, b)
    residual = (h + rho * np.eye(8)) @ y - b
    assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(b)


def test_ridge_solve_matches_dense_solve():
    rng = np.random.default_rng(7)
    h = random_psd(rng, 7)
    b = rng.standard_normal((7, 3))
    expected = np.linalg.solve(h + 0.3 * np.eye(7), b)
    np.testing.assert_allclose(step_ridge_solve(h, 0.3, b), expected, rtol=1e-9)


# --- objective and relative error ---


def test_layer_objective_hand_value():
    h = np.diag([2.0, 1.0])
    w_hat = np.array([[1.0], [3.0]])
    w = np.array([[0.0], [3.0]])
    # difference is e_0, so the quadratic form picks out H[0,0]
    assert layer_objective(h, w_hat, w) == pytest.approx(2.0)


def test_layer_objective_zero_at_fixed_point():
    rng = np.random.default_rng(8)
    h = random_psd(rng, 4)
    w = rng.standard_normal((4, 2))
    assert layer_objective(h, w, w) == 0.0
    # A difference only on a channel the Gram never sees is no gap either.
    h[1, :] = h[:, 1] = 0.0
    moved = w.copy()
    moved[1] += 1.0
    assert layer_objective(h, w, moved) == 0.0


def test_layer_objective_rejects_misshapen_weights():
    with pytest.raises(InvalidInputError, match=r"weights \(3, 3\) not shaped like \(3, 2\)"):
        layer_objective(np.eye(3), np.ones((3, 2)), np.ones((3, 3)))


@given(st.integers(0, 2**31 - 1))
def test_layer_objective_never_negative(seed):
    rng = np.random.default_rng(seed)
    h = random_psd(rng, 3, rank=2)
    assert layer_objective(h, rng.standard_normal((3, 2)), rng.standard_normal((3, 2))) >= 0.0


@pytest.mark.parametrize("metric", [layer_objective, relative_error])
def test_metrics_reject_non_square_gram(metric):
    w_hat = np.ones((3, 2))
    with pytest.raises(InvalidInputError):
        metric(np.eye(3, 4), w_hat, np.zeros_like(w_hat))


def test_relative_error_trivial_endpoints():
    rng = np.random.default_rng(9)
    h = random_psd(rng, 5)
    w_hat = rng.standard_normal((5, 3))
    assert relative_error(h, w_hat, w_hat) == pytest.approx(0.0, abs=1e-15)
    assert relative_error(h, w_hat, np.zeros_like(w_hat)) == pytest.approx(1.0)


def test_relative_error_matches_activation_space():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((20, 6))
    h = gram_from_activations(x)
    w_hat = rng.standard_normal((6, 4))
    w = rng.standard_normal((6, 4))
    direct = np.linalg.norm(x @ w_hat - x @ w) ** 2 / np.linalg.norm(x @ w_hat) ** 2
    assert relative_error(h, w_hat, w) == pytest.approx(direct, rel=1e-10)


@given(st.integers(0, 2**31 - 1))
def test_relative_error_column_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    h = random_psd(rng, 4)
    w_hat = rng.standard_normal((4, 5))
    w = rng.standard_normal((4, 5))
    perm = rng.permutation(5)
    assert relative_error(h, w_hat[:, perm], w[:, perm]) == pytest.approx(
        relative_error(h, w_hat, w), rel=1e-12
    )


def test_relative_error_degenerate_denominator():
    with pytest.raises(DegenerateInstanceError, match="zero output energy"):
        relative_error(np.zeros((2, 2)), np.ones((2, 1)), np.ones((2, 1)))
    # At c = 1e-170 the energy underflows to 0.0 although H W_hat is
    # nonzero, and so does the gap of pruned weights although H (W_hat - W)
    # is: the error blamed the weights, and layer_objective read 0.0.
    h, w_hat = scale_instance()
    w = np.where(np.abs(w_hat) > 1.0, w_hat, 0.0)
    with pytest.raises(DegenerateInstanceError, match="energy of the dense weights underflows"):
        relative_error(h, 1e-170 * w_hat, 1e-170 * w_hat)
    for metric in (layer_objective, relative_error):
        with pytest.raises(DegenerateInstanceError, match=r"gap underflows float64: 0\.000e\+00"):
            metric(h, 1e-170 * w_hat, 1e-170 * w)


@pytest.mark.parametrize("c, g", [(1e154, 1.0), (1.0, 1e305)])
def test_relative_error_rejects_an_energy_beyond_float64(c, g):
    # The energy overflows to inf, or to NaN across mixed signs; the ratio
    # over it was NaN, without a warning.
    h, w_hat = scale_instance()
    w = np.where(np.abs(w_hat) > 1.0, c * w_hat, 0.0)
    with pytest.raises(DegenerateInstanceError, match="overflows float64"):
        relative_error(g * h, c * w_hat, w)
    # The gap overflows too; layer_objective returned NaN or inf.
    with pytest.raises(DegenerateInstanceError, match="reconstruction gap overflows float64"):
        layer_objective(g * h, c * w_hat, w)


@pytest.mark.parametrize("metric", [layer_objective, relative_error])
def test_metrics_reject_a_difference_beyond_float64(metric):
    # W_hat - W overflows to inf, and H times it makes 0 * inf = NaN: the
    # product warned before the range check.
    with pytest.raises(DegenerateInstanceError, match="reconstruction gap overflows float64"):
        metric(np.eye(2), [[1e308], [1.0]], [[-1e308], [1.0]])


def test_relative_error_uses_the_checked_arrays():
    # The denominator takes the float64 arrays the objective's check made,
    # not the caller's float32 arrays or lists.
    rng = np.random.default_rng(11)
    h = random_psd(rng, 4).astype(np.float32)
    w_hat = rng.standard_normal((4, 3)).astype(np.float32)
    w = w_hat.astype(np.float64)
    w[1] = 0.0
    expected = relative_error(h.astype(np.float64), w_hat.astype(np.float64), w)
    assert relative_error(h, w_hat, w) == expected
    assert relative_error(h.tolist(), w_hat.tolist(), w.tolist()) == expected
