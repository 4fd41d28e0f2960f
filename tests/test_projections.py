from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from l0prune import (
    NM, InvalidInputError, Unstructured, admm_solve, magnitude_prune, support_of,
)
from l0prune.projections import (
    budget_mask,
    budget_size,
    check_budget,
    nm_mask,
    project,
    support_change,
    topk_mask,
)


@st.composite
def matrix_and_k(draw, max_side=5):
    rows = draw(st.integers(1, max_side))
    cols = draw(st.integers(1, max_side))
    # Integer-valued entries make magnitude ties common.
    vals = draw(
        st.lists(
            st.integers(-4, 4).map(float), min_size=rows * cols, max_size=rows * cols
        )
    )
    a = np.array(vals).reshape(rows, cols)
    k = draw(st.integers(0, rows * cols))
    return a, k


# --- budgets ---


def test_unstructured_rejects_negative_k():
    with pytest.raises(InvalidInputError):
        Unstructured(-1)


@pytest.mark.parametrize("n,m", [(0, 4), (3, 2), (2, 0), (2.0, 4), (2, 4.0)])
def test_nm_rejects_bad_groups(n, m):
    with pytest.raises(InvalidInputError):
        NM(n, m)


def test_check_budget_oversized_k():
    with pytest.raises(InvalidInputError):
        check_budget(Unstructured(7), (2, 3))


def test_check_budget_indivisible_groups():
    with pytest.raises(InvalidInputError):
        check_budget(NM(2, 4), (6, 3))


def test_budget_size_values():
    assert budget_size(Unstructured(5), (2, 3)) == 5
    assert budget_size(NM(2, 4), (8, 3)) == 2 * 2 * 3


# --- top-k projection ---


def test_topk_forced_example():
    a = np.array([[3.0, -1.0], [0.5, -4.0]])
    expected = [[3.0, 0.0], [0.0, -4.0]]
    np.testing.assert_array_equal(project(a, Unstructured(2)), expected)


def test_topk_zero_budget():
    out = project(np.ones((2, 2)), Unstructured(0))
    np.testing.assert_array_equal(out, np.zeros((2, 2)))


def test_topk_tie_goes_to_lower_index():
    out = project(np.array([[2.0, 2.0]]), Unstructured(1))
    np.testing.assert_array_equal(out, [[2.0, 0.0]])


def test_topk_out_of_range():
    with pytest.raises(InvalidInputError):
        magnitude_prune(np.ones((2, 2)), Unstructured(5))


@given(matrix_and_k())
def test_topk_nonzero_count(case):
    a, k = case
    out = project(a, Unstructured(k))
    assert np.count_nonzero(out) == min(k, np.count_nonzero(a))


@given(matrix_and_k())
def test_topk_preserves_surviving_values(case):
    a, k = case
    out = project(a, Unstructured(k))
    kept = out != 0
    assert np.array_equal(out[kept], a[kept])


@given(matrix_and_k())
def test_topk_idempotent(case):
    a, k = case
    once = project(a, Unstructured(k))
    np.testing.assert_array_equal(project(once, Unstructured(k)), once)


@given(matrix_and_k(max_side=3))
def test_topk_is_closest_k_sparse_matrix(case):
    # Exhaustive check: no support of size k truncates to a closer matrix.
    a, k = case
    best = min(
        np.sum(np.delete(a.ravel(), list(kept)) ** 2)
        for kept in combinations(range(a.size), k)
    )
    out = project(a, Unstructured(k))
    assert np.sum((a - out) ** 2) == pytest.approx(best, abs=1e-12)


def test_topk_mask_exact_count_under_ties():
    scores = np.array([[1.0, 1.0, 1.0, 1.0]])
    mask = topk_mask(scores, 2)
    assert mask.sum() == 2
    assert mask[0, 0] and mask[0, 1]


# --- n:m projection ---


def test_nm_forced_column():
    col = np.array([[1.0], [-3.0], [2.0], [-0.5]])
    np.testing.assert_array_equal(project(col, NM(2, 4)), [[0.0], [-3.0], [2.0], [0.0]])


def test_nm_identity_when_n_equals_m():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 3))
    np.testing.assert_array_equal(project(a, NM(3, 3)), a)


def test_nm_rejects_indivisible_rows():
    with pytest.raises(InvalidInputError):
        magnitude_prune(np.ones((6, 2)), NM(2, 4))


def test_nm_per_group_top_n_oracle():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((8, 3))
    out = project(a, NM(2, 4))
    for j in range(3):
        for g in range(2):
            group = a[4 * g : 4 * g + 4, j]
            kept = out[4 * g : 4 * g + 4, j]
            assert np.count_nonzero(kept) <= 2
            order = np.argsort(-np.abs(group), kind="stable")[:2]
            expected = np.zeros(4)
            expected[order] = group[order]
            np.testing.assert_array_equal(kept, expected)


@given(st.integers(0, 2**31 - 1), st.integers(1, 4))
def test_nm_idempotent_and_feasible(seed, n):
    rng = np.random.default_rng(seed)
    m = 4
    a = rng.integers(-3, 4, size=(8, 2)).astype(float)
    out = project(a, NM(n, m))
    np.testing.assert_array_equal(project(out, NM(n, m)), out)
    groups = out.reshape(2, m, 2)
    assert (np.count_nonzero(groups, axis=1) <= n).all()


def reference_nm_mask(scores, n, m):
    """Top n of each group by a stable argsort, one group at a time."""
    mask = np.zeros(scores.shape, dtype=bool)
    for start in range(0, scores.shape[0], m):
        for col in range(scores.shape[1]):
            order = np.argsort(-scores[start : start + m, col], kind="stable")
            mask[start + order[:n], col] = True
    return mask


@st.composite
def nm_case(draw):
    # Small integer scores make ties common.
    m = draw(st.sampled_from([1, 2, 3, 4, 8, 16, 32, 33, 64]))
    n = draw(st.integers(1, m))
    rows = m * draw(st.integers(1, 3))
    cols = draw(st.integers(1, 3))
    vals = draw(st.lists(st.integers(0, 4), min_size=rows * cols, max_size=rows * cols))
    return np.array(vals, dtype=float).reshape(rows, cols), n, m


@given(nm_case())
def test_nm_mask_matches_stable_argsort(case):
    scores, n, m = case
    np.testing.assert_array_equal(nm_mask(scores, n, m), reference_nm_mask(scores, n, m))


@pytest.mark.parametrize("m", [255, 256, 257])
def test_nm_mask_rank_counter_holds_large_groups(m):
    # Ranks reach m - 1, so a uint8 counter holds groups up to m = 256
    # and m = 257 needs a wider one.
    rng = np.random.default_rng(m)
    scores = rng.integers(0, 6, size=(2 * m, 3)).astype(float)
    for n in (1, m // 2, m - 1, m):
        np.testing.assert_array_equal(nm_mask(scores, n, m), reference_nm_mask(scores, n, m))


def test_nm_mask_keeps_exactly_n_per_group():
    mask = nm_mask(np.zeros((4, 2)), 2, 4)
    assert (mask.sum(axis=0) == 2).all()


# --- project dispatcher ---


def test_project_dispatches_both_budgets():
    a = np.array([[1.0, -3.0], [2.0, -0.5]])
    np.testing.assert_array_equal(project(a, Unstructured(2)),
                                  [[0.0, -3.0], [2.0, 0.0]])
    np.testing.assert_array_equal(project(a.reshape(4, 1), NM(2, 4)),
                                  [[0.0], [-3.0], [2.0], [0.0]])


@pytest.mark.parametrize("budget", [Unstructured(30), NM(2, 4)], ids=["topk", "nm24"])
def test_project_bytes_match_where_on_negative_inputs(budget):
    # A pruned negative entry times False is -0.0; the projection must
    # still return np.where's bytes, with no sign bit on any zero.
    rng = np.random.default_rng(17)
    a = -np.abs(rng.standard_normal((16, 8)))
    a[::5] *= -1.0
    expected = np.where(budget_mask(np.abs(a), budget), a, 0.0)
    out = np.full_like(a, np.nan)
    for result in (project(a, budget), project(a, budget, out=out)):
        assert result.tobytes() == expected.tobytes()
        assert not np.signbit(result[result == 0.0]).any()
    assert project(a, budget, out=out) is out


@pytest.mark.parametrize("budget", [Unstructured(30), NM(2, 4)], ids=["topk", "nm24"])
def test_solution_zeros_have_no_sign_bit(budget):
    rng = np.random.default_rng(18)
    x = rng.standard_normal((64, 16))
    w_hat = -np.abs(rng.standard_normal((16, 8)))
    sol = admm_solve(x.T @ x, w_hat, budget)
    assert not np.signbit(sol.w[sol.w == 0.0]).any()


# --- support bookkeeping ---


def test_support_of_zero_matrix():
    s = support_of(np.zeros((3, 2)))
    assert s.dtype == bool and s.shape == (3, 2) and not s.any()


def test_support_of_diagonal():
    s = support_of(np.array([[1.0, 0.0], [0.0, 2.0]]))
    np.testing.assert_array_equal(s, np.eye(2, dtype=bool))


@given(matrix_and_k())
def test_support_count_after_projection(case):
    a, k = case
    assert np.count_nonzero(support_of(project(a, Unstructured(k)))) == min(k, np.count_nonzero(a))


def test_support_change_trivia():
    a = support_of(np.array([[1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]]))
    b = support_of(np.array([[0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]]))
    assert support_change(a, a) == 0
    assert support_change(a, b) == 7


@given(st.integers(0, 2**31 - 1))
def test_support_change_is_xor_count(seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=(4, 5)).astype(float)
    b = rng.integers(0, 2, size=(4, 5)).astype(float)
    expected = int(((a != 0) ^ (b != 0)).sum())
    assert support_change(support_of(a), support_of(b)) == expected
