"""Shared instance builders for the test suite."""

import math
import sys

import numpy as np
from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


def correlated_activations(rng, nl, n_in, cond=100.0):
    """Gaussian rows whose covariance spectrum spans the given condition number."""
    q, _ = np.linalg.qr(rng.standard_normal((n_in, n_in)))
    sing = np.logspace(0.0, -0.5 * math.log10(cond), n_in)
    return rng.standard_normal((nl, n_in)) @ (q * sing) @ q.T


def random_problem(rng, n_in, n_out, nl=None, cond=100.0):
    """A (gram, dense weights) pair from correlated calibration data."""
    nl = 4 * n_in if nl is None else nl
    x = correlated_activations(rng, nl, n_in, cond)
    h = x.T @ x
    return (h + h.T) / 2.0, rng.standard_normal((n_in, n_out))


def random_psd(rng, n, rank=None):
    a = rng.standard_normal((n, n if rank is None else rank))
    h = a @ a.T
    return (h + h.T) / 2.0


def count_calls(monkeypatch, module, name, counts):
    """Count calls to module.name from every l0prune namespace that holds it."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    for owner in list(sys.modules.values()):
        owner_name = getattr(owner, "__name__", "")
        if owner_name != "l0prune" and not owner_name.startswith("l0prune."):
            continue
        for attr, value in list(vars(owner).items()):
            if value is original:
                monkeypatch.setattr(owner, attr, counted)
