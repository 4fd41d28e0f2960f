from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from l0prune import NM, InvalidInputError, Unstructured, support_of
from l0prune.projections import (
    budget_size,
    check_budget,
    nm_mask,
    project,
    project_nm,
    project_topk,
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


# --- project_topk ---


def test_topk_forced_example():
    a = np.array([[3.0, -1.0], [0.5, -4.0]])
    np.testing.assert_array_equal(project_topk(a, 2), [[3.0, 0.0], [0.0, -4.0]])


def test_topk_zero_budget():
    np.testing.assert_array_equal(project_topk(np.ones((2, 2)), 0), np.zeros((2, 2)))


def test_topk_tie_goes_to_lower_index():
    np.testing.assert_array_equal(project_topk(np.array([[2.0, 2.0]]), 1), [[2.0, 0.0]])


def test_topk_out_of_range():
    with pytest.raises(InvalidInputError):
        project_topk(np.ones((2, 2)), 5)


@given(matrix_and_k())
def test_topk_nonzero_count(case):
    a, k = case
    out = project_topk(a, k)
    assert np.count_nonzero(out) == min(k, np.count_nonzero(a))


@given(matrix_and_k())
def test_topk_preserves_surviving_values(case):
    a, k = case
    out = project_topk(a, k)
    kept = out != 0
    assert np.array_equal(out[kept], a[kept])


@given(matrix_and_k())
def test_topk_idempotent(case):
    a, k = case
    once = project_topk(a, k)
    np.testing.assert_array_equal(project_topk(once, k), once)


@given(matrix_and_k(max_side=3))
def test_topk_is_closest_k_sparse_matrix(case):
    # Exhaustive check: no support of size k truncates to a closer matrix.
    a, k = case
    best = min(
        np.sum(np.delete(a.ravel(), list(kept)) ** 2)
        for kept in combinations(range(a.size), k)
    )
    assert np.sum((a - project_topk(a, k)) ** 2) == pytest.approx(best, abs=1e-12)


def test_topk_mask_exact_count_under_ties():
    scores = np.array([[1.0, 1.0, 1.0, 1.0]])
    mask = topk_mask(scores, 2)
    assert mask.sum() == 2
    assert mask[0, 0] and mask[0, 1]


# --- project_nm ---


def test_nm_forced_column():
    col = np.array([[1.0], [-3.0], [2.0], [-0.5]])
    np.testing.assert_array_equal(project_nm(col, 2, 4), [[0.0], [-3.0], [2.0], [0.0]])


def test_nm_identity_when_n_equals_m():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 3))
    np.testing.assert_array_equal(project_nm(a, 3, 3), a)


def test_nm_rejects_indivisible_rows():
    with pytest.raises(InvalidInputError):
        project_nm(np.ones((6, 2)), 2, 4)


def test_nm_per_group_top_n_oracle():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((8, 3))
    out = project_nm(a, 2, 4)
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
    out = project_nm(a, n, m)
    np.testing.assert_array_equal(project_nm(out, n, m), out)
    groups = out.reshape(2, m, 2)
    assert (np.count_nonzero(groups, axis=1) <= n).all()


def test_nm_mask_keeps_exactly_n_per_group():
    mask = nm_mask(np.zeros((4, 2)), 2, 4)
    assert (mask.sum(axis=0) == 2).all()


# --- project dispatcher ---


def test_project_dispatches_both_budgets():
    a = np.array([[1.0, -3.0], [2.0, -0.5]])
    np.testing.assert_array_equal(project(a, Unstructured(2)), project_topk(a, 2))
    np.testing.assert_array_equal(project(a.reshape(4, 1), NM(2, 4)),
                                  project_nm(a.reshape(4, 1), 2, 4))


# --- support bookkeeping ---


def test_support_of_zero_matrix():
    s = support_of(np.zeros((3, 2)))
    assert s.count == 0 and not s.mask.any()


def test_support_of_diagonal():
    s = support_of(np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert s.count == 2
    np.testing.assert_array_equal(s.mask, np.eye(2, dtype=bool))


@given(matrix_and_k())
def test_support_count_after_projection(case):
    a, k = case
    assert support_of(project_topk(a, k)).count == min(k, np.count_nonzero(a))


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


def test_support_change_shape_mismatch():
    with pytest.raises(InvalidInputError):
        support_change(support_of(np.ones((2, 2))), support_of(np.ones((2, 3))))
