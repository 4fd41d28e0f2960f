"""Sparsity budgets and projections onto them.

Two budget shapes are supported: a global cap of k nonzeros, and n:m
group sparsity where every group of m consecutive entries down each
output column keeps at most n. Projections keep the largest magnitudes
and preserve the surviving values exactly; magnitude ties resolve toward
the smaller row-major linear index so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidInputError
from .linalg import as_matrix


@dataclass(frozen=True)
class Unstructured:
    """Keep at most k nonzero weights across the whole matrix."""

    k: int

    def __post_init__(self):
        if not isinstance(self.k, (int, np.integer)) or self.k < 0:
            raise InvalidInputError(f"k must be a nonnegative integer, got {self.k!r}")


@dataclass(frozen=True)
class NM:
    """Keep at most n nonzeros in every group of m consecutive input weights."""

    n: int
    m: int

    def __post_init__(self):
        if not all(isinstance(x, (int, np.integer)) for x in (self.n, self.m)):
            raise InvalidInputError(
                f"n and m must be integers, got n={self.n!r}, m={self.m!r}"
            )
        if self.m < 1 or self.n < 1 or self.n > self.m:
            raise InvalidInputError(f"need 1 <= n <= m, got n={self.n}, m={self.m}")


SparsityBudget = Union[Unstructured, NM]


def budget_size(budget: SparsityBudget, shape: tuple[int, int]) -> int:
    """Most kept weights the budget allows on the given shape.

    The one budget rule: raises InvalidInputError for a k above the
    shape's size, for groups that do not divide the input dimension, and
    for a budget of any other type.
    """
    n_in, n_out = shape
    if isinstance(budget, Unstructured):
        if budget.k > n_in * n_out:
            raise InvalidInputError(
                f"budget k={budget.k} exceeds matrix size {n_in * n_out}"
            )
        return budget.k
    if not isinstance(budget, NM):
        raise InvalidInputError(f"unknown budget type {type(budget).__name__}")
    if n_in % budget.m != 0:
        raise InvalidInputError(
            f"input dimension {n_in} not divisible by group size {budget.m}"
        )
    return budget.n * (n_in // budget.m) * n_out


def support_of(a) -> np.ndarray:
    """Support (exact-nonzero pattern) of a matrix, as a boolean array."""
    return as_matrix(a, "matrix") != 0.0


def check_support(support, shape: tuple[int, int]) -> np.ndarray:
    """Reject a support that is not a boolean array of the given shape."""
    support = np.asarray(support)
    if support.dtype != bool or support.shape != shape:
        raise InvalidInputError(f"support must be a boolean array of shape {shape}")
    return support


def support_change(a: np.ndarray, b: np.ndarray) -> int:
    """Size of the symmetric difference between two boolean supports."""
    return int(np.count_nonzero(a ^ b))


def topk_mask(scores: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the k largest scores, ties to the smaller flat index."""
    flat = scores.ravel()
    size = flat.size
    if k <= 0:
        return np.zeros(scores.shape, dtype=bool)
    if k >= size:
        return np.ones(scores.shape, dtype=bool)
    threshold = np.partition(flat, size - k)[size - k]
    mask = flat > threshold
    # Entries strictly above the threshold always survive; the remaining
    # slots go to threshold-valued entries in index order.
    short = k - np.count_nonzero(mask)
    if short > 0:
        mask[np.flatnonzero(flat == threshold)[:short]] = True
    return mask.reshape(scores.shape)


def nm_mask(scores: np.ndarray, n: int, m: int) -> np.ndarray:
    """Per-group top-n mask over groups of m consecutive rows per column.

    Ties go to the smaller row, as everywhere in this module. Each entry's
    rank in its group, rank_i = #{j : s_j > s_i} + #{j < i : s_j = s_i},
    is counted from the m (m - 1) / 2 pairwise comparisons and the entries
    ranked below n are kept: each pair i < j adds one to rank_i if
    s_j > s_i and to rank_j otherwise. So rank_j starts at j, and pass i
    moves one from rank_j to rank_i for every j > i with s_j > s_i. Counts
    stay in [0, m - 1], so an unsigned counter sized to m suffices.

    The m - 1 passes are vectorized over all groups, so an entry costs
    (m - 1) / 2 comparisons. That suits the small groups of hardware n:m
    patterns: measured on a 2-CPU box against a per-group stable argsort
    (best of 5-20, half:m), 0.9 vs 11.8 ms under 2:4 at 384x1024, and at
    1024x1024 2.5 vs 28 ms (m = 4), 37 vs 49 ms (m = 64), 64 vs 59 ms
    (m = 128) and 156 vs 72 ms (m = 256), where the argsort's O(log m)
    per entry wins.
    """
    n_in, n_out = scores.shape
    grouped = scores.reshape(n_in // m, m, n_out)
    rank = np.empty(grouped.shape, dtype=np.min_scalar_type(m))
    rank[...] = np.arange(m, dtype=rank.dtype)[:, None]
    for i in range(m - 1):
        beats = grouped[:, i + 1 :] > grouped[:, i : i + 1]
        rank[:, i] += beats.sum(axis=1, dtype=rank.dtype)
        rank[:, i + 1 :] -= beats
    return (rank < n).reshape(n_in, n_out)


def budget_mask(scores: np.ndarray, budget: SparsityBudget) -> np.ndarray:
    """Mask of the highest scores the budget keeps; it must fit scores' shape."""
    if isinstance(budget, Unstructured):
        return topk_mask(scores, budget.k)
    return nm_mask(scores, budget.n, budget.m)


def project(a, budget: SparsityBudget, out: np.ndarray | None = None) -> np.ndarray:
    """Projection onto the budget: the closest feasible matrix in Frobenius norm.

    Keeps the largest magnitudes the budget allows (globally, or per group
    of m consecutive input weights) at their exact values; zeroes the rest.
    a must be a finite 2-D float array the budget fits: the solver calls
    this every iteration on arrays it built and a budget it checked once.

    The result goes to out when given (shaped like a, not overlapping it;
    it holds the scores first), else to a new array. It is a times its
    mask, then plus 0.0, since a pruned negative entry times False is
    -0.0: every zero of the result is +0.0. At 384x1024 the two passes
    take 0.58 ms against 1.49 ms for np.where(mask, a, 0.0), 2-CPU box.
    """
    mask = budget_mask(np.abs(a, out=out), budget)
    out = np.multiply(a, mask, out=out)
    out += 0.0
    return out
