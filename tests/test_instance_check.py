"""Every public entry taking a Gram and dense weights rejects the same bad pairs."""

import numpy as np
import pytest

from l0prune import InvalidInputError

from conftest import GRAM_ENTRIES, random_psd


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
@pytest.mark.parametrize("entry", sorted(GRAM_ENTRIES))
def test_entry_rejects_bad_instance(entry, bad):
    with pytest.raises(InvalidInputError):
        GRAM_ENTRIES[entry](*BAD_PAIRS[bad]())


@pytest.mark.parametrize("entry", sorted(GRAM_ENTRIES))
def test_entry_accepts_a_good_instance(entry):
    GRAM_ENTRIES[entry](random_psd(np.random.default_rng(3), 4), np.ones((4, 2)))
