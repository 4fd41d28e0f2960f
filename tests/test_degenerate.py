"""Tiny degenerate instances: a solver returns a defined result or a defined error.

Four families, up to 24 inputs: rank-deficient Grams (fewer activation rows
than inputs), dead channels (zero activation columns), channel scales from
1e-6 to 1e6, and rectangular layers. On each, a solver either returns finite,
budget-feasible weights that repeat bit for bit on a second call, or raises
InvalidInputError or DegenerateInstanceError. No warning may escape. Quality
is not checked here, except that backsolve_exact must answer on the support
ALPS returned, with weights stationary on that support.
"""

import numpy as np
from hypothesis import given, strategies as st

from l0prune import (
    NM,
    DegenerateInstanceError,
    InvalidInputError,
    Unstructured,
    activation_weighted_prune,
    admm_solve,
    backsolve_exact,
    gram_from_activations,
    magnitude_prune,
    pcg_refine,
)

DEFINED = (InvalidInputError, DegenerateInstanceError)
FAMILIES = ("rank_deficient", "dead_channels", "wide_scales", "rectangular")


def tiny_instance(family, seed):
    """A (gram, dense weights, budget) triple of the family, from one seed."""
    rng = np.random.default_rng(seed)
    n_in = int(rng.integers(2, 25))
    n_out = int(rng.integers(1, 5))
    rows = 2 * n_in
    if family == "rank_deficient":
        rows = int(rng.integers(1, n_in))
    elif family == "rectangular":
        # Tall or wide, never square.
        wide = rng.random() < 0.5 and n_in < 24
        n_out = int(rng.integers(n_in + 1, 25) if wide else rng.integers(1, n_in))
    x = rng.standard_normal((rows, n_in))
    if family == "dead_channels":
        x[:, rng.choice(n_in, int(rng.integers(1, n_in)), replace=False)] = 0.0
    elif family == "wide_scales":
        x *= 10.0 ** rng.uniform(-6.0, 6.0, n_in)
    w_hat = rng.standard_normal((n_in, n_out))
    if n_in % 4 == 0 and rng.random() < 0.5:
        budget = NM(2, 4)
    else:
        budget = Unstructured(int(rng.integers(0, n_in * n_out + 1)))
    return gram_from_activations(x), w_hat, budget


def feasible(w, budget):
    if isinstance(budget, NM):
        groups = w.reshape(-1, budget.m, w.shape[1])
        return bool((np.count_nonzero(groups, axis=1) <= budget.n).all())
    return np.count_nonzero(w) <= budget.k


def outcome(solve, errors):
    """The solver's weights, or None when it raised one of the errors."""
    try:
        result = solve()
    except errors:
        return None
    return result if isinstance(result, np.ndarray) else result.w


def check_defined(solve, support=None, budget=None, errors=DEFINED):
    """Run solve twice: both raise, or both return the same finite bits that fit.

    The weights fit the budget, or stay on the support when one is given.
    """
    first, second = outcome(solve, errors), outcome(solve, errors)
    assert (first is None) == (second is None)
    if first is not None:
        assert np.all(np.isfinite(first))
        if support is None:
            assert feasible(first, budget)
        else:
            assert not first[~support].any()
        assert first.tobytes() == second.tobytes()
    return first


@given(st.sampled_from(FAMILIES), st.integers(0, 2**31 - 1))
def test_solvers_are_defined_on_tiny_degenerate_instances(family, seed):
    h, w_hat, budget = tiny_instance(family, seed)
    check_defined(lambda: magnitude_prune(w_hat, budget, gram=h), budget=budget)
    check_defined(lambda: activation_weighted_prune(w_hat, h, budget), budget=budget)
    w = check_defined(lambda: admm_solve(h, w_hat, budget), budget=budget)
    if w is None:
        return
    support = w != 0.0
    check_defined(lambda: pcg_refine(h, w_hat, support, w), support=support)
    exact = check_defined(lambda: backsolve_exact(h, w_hat, support), support=support, errors=())
    # Stationary on the support: the gradient H (W - W_hat) vanishes there.
    h_w_hat = h @ w_hat
    gradient = (h @ exact - h_w_hat) * support
    assert np.linalg.norm(gradient) <= 1e-12 * np.linalg.norm(h_w_hat)
