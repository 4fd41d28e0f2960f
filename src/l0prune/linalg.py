"""Dense linear algebra kernels for the layer reconstruction objective.

Everything here operates on the Gram matrix H = X^T X of calibration
activations. The objective tr((W_hat - W)^T H (W_hat - W)) is fully
determined by H and the dense weights, so activations can be discarded
once the Gram is accumulated. Every rule about a Gram lives here: its
checks, its rescaling and dead channels, and its PSD test.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInstanceError, InvalidInputError

SYMMETRY_RTOL = 1e-9
EIG_NEG_RTOL = 1e-8
DEAD_DIAG_RTOL = 1e-12
# The smallest normal float64: below it a square or an energy has lost bits.
TINY = np.finfo(np.float64).tiny


def as_matrix(a, name: str = "matrix", shape: tuple[int, int] | None = None) -> np.ndarray:
    """Coerce to a finite 2-D float64 array with positive dims, and shape if given."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InvalidInputError(f"{name} must have positive dimensions, got {arr.shape}")
    # As in check_finite: max and min propagate NaN and need no mask.
    if not (np.isfinite(arr.max()) and np.isfinite(arr.min())):
        raise InvalidInputError(f"{name} contains non-finite entries")
    if shape is not None and arr.shape != shape:
        raise InvalidInputError(f"{name} {arr.shape} not shaped like {shape}")
    return arr


def gram_from_activations(x) -> np.ndarray:
    """H = X^T X as BLAS syrk forms it, one triangle mirrored: exactly symmetric.

    x is the activation matrix, or an iterator of its row blocks, such as
    `matrixio.read_row_blocks` yields. Block products are summed in order
    into one n x n buffer, through a spare one from the second block on, so
    the Gram, the spare and the current block are all that is held, and a
    block may be overwritten once the next is drawn. One block gives the
    bits of the single product. A block in neither C nor Fortran order is
    copied to C order first, as float32 is widened: NumPy multiplies such a
    view off BLAS, not always exactly symmetric.
    """
    blocks = x if isinstance(x, Iterator) else iter((x,))
    h = spare = None
    for block in blocks:
        block = as_matrix(block, "activations")
        block = block if block.flags.forc else np.ascontiguousarray(block)
        if h is None:
            h = block.T @ block
        elif block.shape[1] != h.shape[0]:
            raise InvalidInputError(
                f"activation block has {block.shape[1]} columns, expected {h.shape[0]}"
            )
        else:
            spare = np.matmul(block.T, block, out=spare)
            h += spare
    if h is None:
        raise InvalidInputError("activations have no row blocks")
    return h


@np.errstate(over="ignore")
def validate_gram(h) -> np.ndarray:
    """Check that h is square, finite, and symmetric within tolerance."""
    h = as_matrix(h, "gram")
    if h.shape[0] != h.shape[1]:
        raise InvalidInputError(f"gram must be square, got {h.shape}")
    # h is finite, so max |h| needs no temporary. fl(a - b) = -fl(b - a), so the
    # largest entry of H - H^T is its largest magnitude, inf where a difference
    # overflows. It is read in blocks of s rows, about 1 MiB: no copy of h.
    atol = SYMMETRY_RTOL * max(h.max(), -h.min(), 1e-300)
    s = max(2**17 // len(h), 1)
    if any(np.subtract(h[i : i + s], h[:, i : i + s].T).max() > atol for i in range(0, len(h), s)):
        raise InvalidInputError("gram is not symmetric within tolerance")
    return h


def check_instance(h, w_hat) -> tuple[np.ndarray, np.ndarray]:
    """The one check of a (Gram, dense weights) pair, run at every public entry.

    validate_gram, conformity, and no diagonal entry below -EIG_NEG_RTOL * max(diag, 0).
    """
    h = validate_gram(h)
    w_hat = as_matrix(w_hat, "dense weights")
    if w_hat.shape[0] != h.shape[0]:
        raise InvalidInputError(f"gram {h.shape}, weights {w_hat.shape} do not conform")
    diag = np.diag(h)
    if diag.min() < -EIG_NEG_RTOL * max(float(diag.max()), 0.0):
        raise InvalidInputError("gram is not positive semidefinite: negative diagonal")
    return h, w_hat


@dataclass(frozen=True, eq=False)
class ScaledProblem:
    """Rescaled instance: unit Gram diagonal on live coords, and |w_hat| < 2.

    W = 2^e E W' for the positive diagonal E in scale and e in exponent,
    and gram is E H E. A dead row, Gram diagonal at most DEAD_DIAG_RTOL of
    the largest, is cut from the Gram and zeroed in w_hat, so no iterate
    moves there; rescale and unscale, the only crossings, pass it as given.
    """

    scale: np.ndarray
    gram: np.ndarray
    w_hat: np.ndarray
    live: np.ndarray
    exponent: int = 0

    @np.errstate(over="ignore")
    def rescale(self, w: np.ndarray) -> np.ndarray:
        """W' = 2^-e E^-1 W in a new array, the power of two first as in preprocess."""
        w = np.ldexp(w, -self.exponent, out=w.copy(), where=self.live[:, None])
        w /= self.scale[:, None]
        check_finite(w, "a rescaled weight")
        return w

    @np.errstate(over="ignore")
    def unscale(self, w: np.ndarray) -> np.ndarray:
        """W = 2^e E W' of a rescaled w, in a new array."""
        # Not in w: a kept result in a solve's early work buffer fragments the heap.
        w = self.scale[:, None] * w
        np.ldexp(w, self.exponent, out=w, where=self.live[:, None])
        check_finite(w, "an unscaled weight")
        return w


def preprocess(h: np.ndarray, w_hat: np.ndarray) -> ScaledProblem:
    """Rescale arrays check_instance passed to a ScaledProblem.

    2^e is within a factor 4 above max |W_hat_ij| / E_i on live rows. Each
    later step is homogeneous in W_hat, so a solve is exactly 2^-e times
    the one on E^{-1} W_hat, and no norm of it can leave float64. Raises
    DegenerateInstanceError on an all-zero Gram diagonal.
    """
    diag = np.diag(h)
    max_diag = float(diag.max())
    if max_diag <= 0.0:
        raise DegenerateInstanceError("gram diagonal is entirely zero")
    live = diag > DEAD_DIAG_RTOL * max_diag
    scale = 1.0 / np.sqrt(diag, out=np.ones_like(diag), where=live)
    gram = h * scale[:, None] * scale[None, :]
    # Quarantine dead coordinates: congruence with a projection keeps the
    # matrix PSD, and zero rows pin their iterates where they start.
    gram[~live, :] = gram[:, ~live] = 0.0
    gram = (gram + gram.T) / 2.0
    # Exactly 1 where live, so the CG on it needs no preconditioner.
    np.fill_diagonal(gram, live)
    # e_i, the summed binary exponents of a live row's peak |W_hat| and of
    # sqrt(H_ii), bounds peak / E_i by 2^e_i without forming it: no overflow.
    peak = np.maximum(w_hat.max(axis=1), -w_hat.min(axis=1))
    rows = live & (peak > 0.0)
    e = max((np.frexp(peak[rows])[1] + np.frexp(np.sqrt(diag[rows]))[1]).tolist(), default=0)
    w_scaled = np.ldexp(w_hat, -e, out=np.zeros_like(w_hat), where=live[:, None])
    w_scaled /= scale[:, None]
    return ScaledProblem(scale=scale, gram=gram, w_hat=w_scaled, live=live, exponent=e)


def check_finite(x, name: str) -> None:
    """The overflow side of the float64-range rule, alone.

    Raises DegenerateInstanceError when x, a value or an array, is not
    all finite: for values whose smallness is no loss, as a refinement's
    residual or curvature, or an operand of an exact solve. Read off max
    and min, which propagate NaN, so an array costs no temporary.
    """
    if not (np.isfinite(np.max(x)) and np.isfinite(np.min(x))):
        raise DegenerateInstanceError(f"{name} overflows float64")


def check_range(value, operand: np.ndarray, name: str) -> float:
    """The one float64-range rule for a squared norm or quadratic form.

    value is formed from operand. Raises DegenerateInstanceError where
    check_finite does on it, or when it is below TINY in magnitude while
    operand is nonzero: then it has lost its bits, while zero from a zero
    operand is exact.
    """
    check_finite(value, name)
    if abs(value) < TINY and operand.any():
        raise DegenerateInstanceError(f"{name} underflows float64: {value:.3e}")
    return float(value)


def quadratic_form(h: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, float]:
    """The one Gram form: H X and unclamped tr(X^T H X), unchecked.

    Past float64's range they overflow to inf or NaN without a warning.
    A reported value goes through check_range in reconstruction_gap or
    output_energy; the polish only orders candidates by it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        h_x = h @ x
        return h_x, float(np.vdot(x, h_x))


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
    """Reconstruction gap tr((W_hat - W)^T H (W_hat - W)), clamped at zero.

    Raises DegenerateInstanceError where check_range does on the gap,
    formed from H (W_hat - W).
    """
    h, w_hat = check_instance(h, w_hat)
    return reconstruction_gap(h, w_hat, as_matrix(w, "weights", w_hat.shape))


def reconstruction_gap(h, w_hat, w) -> float:
    """tr((W_hat - W)^T H (W_hat - W)), clamped at zero, for checked arrays.

    Raises DegenerateInstanceError where check_range does on it, formed
    from H (W_hat - W).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        delta = w_hat - w
    h_delta, form = quadratic_form(h, delta)
    # The quadratic form can go mildly negative from rounding on PSD input.
    return max(check_range(form, h_delta, "reconstruction gap"), 0.0)


def relative_error(h, w_hat, w) -> float:
    """Relative reconstruction error of W against the dense weights W_hat.

    Defined as tr((W_hat-W)^T H (W_hat-W)) / tr(W_hat^T H W_hat). The
    denominator is the energy of the dense layer output; a zero value
    means the instance carries no signal to preserve.
    """
    h, w_hat = check_instance(h, w_hat)
    return objective_and_error(h, w_hat, as_matrix(w, "weights", w_hat.shape))[1]


def objective_and_error(h, w_hat, w) -> tuple[float, float]:
    """A solution's gap and relative error, for arrays already checked."""
    gap = reconstruction_gap(h, w_hat, w)
    return gap, gap / output_energy(h, w_hat)[1]


def output_energy(h: np.ndarray, w_hat: np.ndarray) -> tuple[np.ndarray, float]:
    """H W_hat and tr(W_hat^T H W_hat), for arrays already checked.

    Raises DegenerateInstanceError where check_range does on the energy,
    formed from H W_hat, and when it is not positive: no signal to preserve.
    """
    h_w, energy = quadratic_form(h, w_hat)
    energy = check_range(energy, h_w, "output energy of the dense weights")
    if energy <= 0.0:
        raise DegenerateInstanceError("dense weights have zero output energy")
    return h_w, energy
