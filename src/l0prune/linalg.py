"""Dense linear algebra kernels for the layer reconstruction objective.

Everything here operates on the Gram matrix H = X^T X of calibration
activations. The objective tr((W_hat - W)^T H (W_hat - W)) is fully
determined by H and the dense weights, so activations can be discarded
once the Gram is accumulated.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import DegenerateInstanceError, InvalidInputError

SYMMETRY_RTOL = 1e-9
EIG_NEG_RTOL = 1e-8


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array with finite entries and positive dims."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InvalidInputError(f"{name} must have positive dimensions, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def gram_from_activations(x) -> np.ndarray:
    """H = X^T X, symmetrized to kill rounding skew.

    x is the activation matrix, or an iterator of its row blocks, such as
    `matrixio.read_row_blocks` yields. Block products are summed in order
    into one n x n buffer through one spare n x n buffer, so the Gram, the
    spare and the current block are all that is held, and a block may be
    overwritten once the next is drawn. One block, like a whole matrix,
    gives the bits of the single product X^T X.
    """
    blocks = x if isinstance(x, Iterator) else iter((x,))
    h = spare = None
    for block in blocks:
        block = as_matrix(block, "activations")
        if h is None:
            h = block.T @ block
            spare = np.empty_like(h)
        elif block.shape[1] != h.shape[0]:
            raise InvalidInputError(
                f"activation block has {block.shape[1]} columns, expected {h.shape[0]}"
            )
        else:
            np.matmul(block.T, block, out=spare)
            h += spare
    if h is None:
        raise InvalidInputError("activations have no row blocks")
    np.add(h, h.T, out=spare)
    spare /= 2.0
    return spare


def validate_gram(h) -> np.ndarray:
    """Check that h is square, finite, and symmetric within tolerance."""
    h = as_matrix(h, "gram")
    if h.shape[0] != h.shape[1]:
        raise InvalidInputError(f"gram must be square, got {h.shape}")
    # h is finite, so max |h| needs no temporary and |h - h^T| needs one.
    atol = SYMMETRY_RTOL * max(h.max(), -h.min(), 1e-300)
    skew = np.subtract(h, h.T)
    np.abs(skew, out=skew)
    if skew.max() > atol:
        raise InvalidInputError("gram is not symmetric within tolerance")
    return h


def check_instance(h, w_hat) -> tuple[np.ndarray, np.ndarray]:
    """The one check of a (Gram, dense weights) pair, run at every public entry."""
    h = validate_gram(h)
    w_hat = as_matrix(w_hat, "dense weights")
    if w_hat.shape[0] != h.shape[0]:
        raise InvalidInputError(f"gram {h.shape}, weights {w_hat.shape} do not conform")
    return h, w_hat


def eigendecompose(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair (lambda, Q), as np.linalg.eigh returns it: H = Q diag(lambda) Q^T.

    The caller has already run check_instance; this only checks what the
    spectrum reveals. Eigenvalues come ascending; those in
    [-EIG_NEG_RTOL * max_eig, 0) are rounding noise and get clamped to
    zero, and anything more negative means the input is not PSD.
    """
    eigenvalues, q = np.linalg.eigh(h)
    max_eig = max(float(eigenvalues[-1]), 0.0)
    if eigenvalues[0] < -EIG_NEG_RTOL * max_eig:
        raise InvalidInputError(
            f"gram is not positive semidefinite: min eigenvalue {eigenvalues[0]:.3e} "
            f"vs max {max_eig:.3e}"
        )
    return np.clip(eigenvalues, 0.0, None), q


def layer_objective(h, w_hat, w) -> float:
    """Reconstruction gap tr((W_hat - W)^T H (W_hat - W)), clamped at zero."""
    return _checked_objective(h, w_hat, w)[0]


def _checked_objective(h, w_hat, w) -> tuple[float, np.ndarray, np.ndarray]:
    """layer_objective, with the checked Gram and dense weights it used."""
    h, w_hat = check_instance(h, w_hat)
    w = as_matrix(w, "weights")
    if w.shape != w_hat.shape:
        raise InvalidInputError(f"weights {w.shape} not shaped like {w_hat.shape}")
    # The quadratic form can go mildly negative from rounding on PSD input.
    return max(gap_form(h, w_hat, w)[1], 0.0), h, w_hat


def gap_form(h, w_hat, w) -> tuple[np.ndarray, float]:
    """H (W_hat - W) and unclamped tr((W_hat - W)^T H (W_hat - W)), unchecked."""
    delta = w_hat - w
    h_delta = h @ delta
    return h_delta, float(np.vdot(delta, h_delta))


def relative_error(h, w_hat, w) -> float:
    """Relative reconstruction error of W against the dense weights W_hat.

    Defined as tr((W_hat-W)^T H (W_hat-W)) / tr(W_hat^T H W_hat). The
    denominator is the energy of the dense layer output; a zero value
    means the instance carries no signal to preserve.
    """
    objective, h, w_hat = _checked_objective(h, w_hat, w)
    return objective / output_energy(h, w_hat)


def output_energy(h: np.ndarray, w_hat: np.ndarray) -> float:
    """tr(W_hat^T H W_hat) for arrays the caller has already checked."""
    energy = float(np.vdot(w_hat, h @ w_hat))
    if energy <= 0.0:
        raise DegenerateInstanceError("dense weights have zero output energy")
    return energy
