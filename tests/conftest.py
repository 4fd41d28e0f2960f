"""Shared instance builders for the test suite."""

import math
import sys

import numpy as np
import pytest
from hypothesis import settings

from l0prune import (
    Unstructured,
    activation_weighted_prune,
    admm_solve,
    backsolve_exact,
    brute_force_support,
    gram_from_activations,
    layer_objective,
    magnitude_prune,
    pcg_refine,
    relative_error,
)

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


def rotation_and_scales(rng, n_in, cond):
    """A random rotation Q and the singular values spanning condition number cond."""
    q, _ = np.linalg.qr(rng.standard_normal((n_in, n_in)))
    return q, np.logspace(0.0, -0.5 * math.log10(cond), n_in)


def correlated_activations(rng, nl, n_in, cond=100.0, outliers=None):
    """Gaussian rows whose covariance spectrum spans the given condition number.

    outliers=(fraction, factor) scales that fraction of the channels (at
    least one), chosen at random, by factor, as LLM activations carry a few
    feature dimensions 10-100x larger than the rest. The choice is drawn
    after the rows, so the rows match the draw without outliers.
    """
    q, sing = rotation_and_scales(rng, n_in, cond)
    x = rng.standard_normal((nl, n_in)) @ (q * sing) @ q.T
    if outliers is not None:
        fraction, factor = outliers
        x[:, rng.choice(n_in, max(1, round(fraction * n_in)), replace=False)] *= factor
    return x


def random_problem(rng, n_in, n_out, nl=None, cond=100.0, outliers=None):
    """A (gram, dense weights) pair from correlated calibration data."""
    nl = 4 * n_in if nl is None else nl
    x = correlated_activations(rng, nl, n_in, cond, outliers)
    h = x.T @ x
    return (h + h.T) / 2.0, rng.standard_normal((n_in, n_out))


def held_out_problem(rng, n_in, n_out, nl, held_out_rows, cond=100.0):
    """A (gram, dense weights) pair and a held-out Gram of the same layer.

    Both Grams come from rows drawn through one rotation and one set of
    scales, as correlated_activations draws them: nl calibration rows, then
    held_out_rows fresh ones, which score a pruned layer on data its solver
    never saw.
    """
    q, sing = rotation_and_scales(rng, n_in, cond)
    calibration = rng.standard_normal((nl, n_in)) @ (q * sing) @ q.T
    held_out = rng.standard_normal((held_out_rows, n_in)) @ (q * sing) @ q.T
    w_hat = rng.standard_normal((n_in, n_out))
    return gram_from_activations(calibration), w_hat, gram_from_activations(held_out)


def tiny_problem(seed, n_in=None):
    """A tiny (gram, dense weights, k) triple with channels of unequal scale.

    n_in is drawn from [2, 4] unless given, n_out from [1, 3], and the
    rows from [n_in, 4 n_in]: standard normal, each channel scaled by a
    factor drawn from [0.2, 5]. k is drawn from [1, n_in n_out - 1].
    """
    rng = np.random.default_rng(seed)
    n_in = int(rng.integers(2, 5)) if n_in is None else n_in
    n_out = int(rng.integers(1, 4))
    rows = int(rng.integers(n_in, 4 * n_in + 1))
    x = rng.standard_normal((rows, n_in)) * rng.uniform(0.2, 5.0, n_in)
    h = x.T @ x
    w_hat = rng.standard_normal((n_in, n_out))
    return (h + h.T) / 2.0, w_hat, int(rng.integers(1, n_in * n_out))


def scale_instance():
    """The (gram, dense weights) pair of the scale tests: 64 inputs, 32 outputs."""
    rng = np.random.default_rng(3)
    h = gram_from_activations(correlated_activations(rng, 256, 64))
    return h, rng.standard_normal((64, 32))


def dead_channel_instance():
    """The scale instance with four dead channels appended, each weight 1e8.

    Their Gram diagonal, 1e-13 of the largest, is below DEAD_DIAG_RTOL, so
    linalg.preprocess zeroes them: the rescaled problem's gap leaves out
    what they contribute to the caller's gap.
    """
    h, w_hat = scale_instance()
    n, m = w_hat.shape
    padded = np.zeros((n + 4, n + 4))
    padded[:n, :n] = h
    padded[range(n, n + 4), range(n, n + 4)] = 1e-13 * np.diag(h).max()
    return padded, np.vstack([w_hat, np.full((4, m), 1e8)])


def gap_overflow_instance():
    """A 2x1 (gram, dense weights) pair, the unit one scaled by g = 1e300, c = 1e5.

    Its energy, 2e300, is in range, but keeping either weight at its dense
    value leaves a gap of 1e310. Returns the unit pair and the two scales.
    """
    r = 1.0 - 1e-10
    return np.array([[1.0, -r], [-r, 1.0]]), np.array([[1.0], [1.0]]), 1e300, 1e5


# Weights scaled by c, or the Gram by g, past float64's range: the squares
# overflow (c = 1e154, g = 1e305) or fall below the smallest normal float64
# (c = 1e-160, and c = 1e-200, where they vanish although W_hat is nonzero).
# With both scaled (c = 1e160, g = 1e300) the rescaling's division itself
# overflows, and no warning may escape before the defined error.
BEYOND_FLOAT64 = [
    pytest.param(1e154, 1.0, "overflows", id="weights-1e154"),
    pytest.param(1e-160, 1.0, "underflows", id="weights-1e-160"),
    pytest.param(1e-200, 1.0, "underflows", id="weights-1e-200"),
    pytest.param(1.0, 1e305, "overflows", id="gram-1e305"),
    pytest.param(1e160, 1e300, "overflows", id="weights-1e160-gram-1e300"),
]


def random_psd(rng, n, rank=None):
    a = rng.standard_normal((n, n if rank is None else rank))
    h = a @ a.T
    return (h + h.T) / 2.0


def count_calls(monkeypatch, module, name, counts):
    """Count calls to module.name, there and from every l0prune namespace that holds it."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    for owner in list(sys.modules.values()):
        owner_name = getattr(owner, "__name__", "")
        if owner_name != "l0prune" and not owner_name.startswith("l0prune."):
            continue
        for attr, value in list(vars(owner).items()):
            if value is original:
                monkeypatch.setattr(owner, attr, counted)


# Every public entry taking a Gram and dense weights, as a function of the
# pair (h, w_hat); the rest of its arguments are shaped by w_hat.
GRAM_ENTRIES = {
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
