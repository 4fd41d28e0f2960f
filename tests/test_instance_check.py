"""Every public entry taking a Gram and dense weights rejects the same bad pairs."""

import numpy as np
import pytest

from l0prune import (
    InvalidInputError,
    Unstructured,
    activation_weighted_prune,
    admm_solve,
    backsolve_exact,
    brute_force_support,
    layer_objective,
    magnitude_prune,
    pcg_refine,
    relative_error,
)

from conftest import random_psd

# Each entry takes (h, w_hat); the rest of its arguments are shaped by w_hat.
ENTRIES = {
    "admm_solve": lambda h, w: admm_solve(h, w, Unstructured(2)),
    "backsolve_exact": lambda h, w: backsolve_exact(h, w, np.ones(w.shape, bool)),
    "brute_force_support": lambda h, w: brute_force_support(h, w, 2),
    "activation_weighted_prune": lambda h, w: activation_weighted_prune(
        w, h, Unstructured(2)
    ),
    "magnitude_prune": lambda h, w: magnitude_prune(w, Unstructured(2), gram=h),
    "pcg_refine": lambda h, w: pcg_refine(
        h, w, np.ones(w.shape, bool), np.zeros(w.shape)
    ),
    "layer_objective": lambda h, w: layer_objective(h, w, np.zeros(w.shape)),
    "relative_error": lambda h, w: relative_error(h, w, np.zeros(w.shape)),
}


def _asymmetric():
    # Skewed far past the symmetry tolerance, but still PSD once symmetrized,
    # so only the symmetry check can reject it.
    h = random_psd(np.random.default_rng(0), 4)
    h[0, 1] += 1e-6 * np.abs(h).max()
    return h, np.ones((4, 2))


def _non_conforming():
    return random_psd(np.random.default_rng(1), 4), np.ones((3, 2))


def _non_finite():
    w_hat = np.ones((4, 2))
    w_hat[1, 0] = np.nan
    return random_psd(np.random.default_rng(2), 4), w_hat


BAD_PAIRS = {
    "asymmetric": _asymmetric,
    "non_conforming": _non_conforming,
    "non_finite": _non_finite,
}


@pytest.mark.parametrize("bad", sorted(BAD_PAIRS))
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_entry_rejects_bad_instance(entry, bad):
    with pytest.raises(InvalidInputError):
        ENTRIES[entry](*BAD_PAIRS[bad]())


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_entry_accepts_a_good_instance(entry):
    ENTRIES[entry](random_psd(np.random.default_rng(3), 4), np.ones((4, 2)))
