"""Operator-norm estimates for deformed left multiplication on coefficient windows.

The left-regular action of an element on square-summable coefficients is
compressed to the box of indices with max |p_j| <= W.  The largest singular
value of the compression is a certified lower bound of the deformed operator
norm and is nondecreasing in W; no upper bounds are claimed anywhere.  Boxes
of up to 289 points (rank 2, W = 8) take a dense SVD, larger ones a
matrix-free Lanczos estimate: the Rayleigh quotient ||A x|| / ||x|| of its Ritz
vector x, a lower bound even unconverged, with its basis kept within 2 MiB.
The boundary sits above the measured crossover (see ``_DENSE_DIM_LIMIT``).
``left_mult_matrix`` plus the SVD stays the oracle for every box.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cocycles import Bicharacter
from .deform import FourierElement

__all__ = [
    "Window",
    "MonotonicityError",
    "left_mult_matrix",
    "op_norm_estimate",
    "norm_convergence",
]

# Dense SVD up to the 2-d W=8 box, Lanczos on the Gram operator beyond.  With
# one BLAS thread on a 2-core x86 host, at W=8 on the benchmark's window-norms
# elements the SVD takes 15-20 ms and Lanczos 1.4-8 ms; they tie near W=6.  The
# limit stays at W=8 as test_criterion's suite values and the W=8 CLI goldens
# come from the SVD: at 169 the semiclassical-limit gap read 8.674e-19, not 4.441e-16.
_DENSE_DIM_LIMIT = 289
# Largest box estimated at all: W = 511 in rank 2.
_WINDOW_DIM_LIMIT = 2**20
# Lanczos stops once its top Ritz value moves by at most this, relative,
# between checkpoints, or at the step cap.
_LANCZOS_TOL = 1e-13
_LANCZOS_MAX_STEPS = 2000
# Complex values of the Lanczos basis kept for the Ritz vector, 2 MiB; the
# vectors past it are rerun.  An unbounded basis raised the benchmark's
# window-norms peak RSS from 42.5 to 55.0 MB.
_BASIS_BUDGET = 2**17


class MonotonicityError(RuntimeError):
    """Raised when window estimates fail to be nondecreasing."""


@dataclass(frozen=True)
class Window:
    """Box truncation radius for the coefficient representation."""

    radius: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "radius", operator.index(self.radius))
        if self.radius < 1:
            raise ValueError("window radius must be >= 1")

    def dim(self, rank: int) -> int:
        return (2 * self.radius + 1) ** rank


def _as_window(window) -> Window:
    return window if isinstance(window, Window) else Window(window)


def _checked_window(a: FourierElement, sigma: Bicharacter, window) -> Window:
    """The window, checked once for both kernels: lattice a, sigma on a's context,
    a box that covers a's support and holds at most 2**20 points."""
    window = _as_window(window)
    ctx = a.context
    if ctx.is_finite:
        raise ValueError("window compressions are defined on lattice contexts")
    if sigma.context != ctx:
        raise ValueError("cocycle from a different context")
    if window.radius < a.support_radius():
        raise ValueError(
            f"window radius {window.radius} is smaller than the support radius "
            f"{a.support_radius()}"
        )
    dim = window.dim(ctx.rank)
    if dim > _WINDOW_DIM_LIMIT:
        raise ValueError(
            f"window radius {window.radius} in rank {ctx.rank} spans a box of {dim} "
            f"points, above the limit of {_WINDOW_DIM_LIMIT}"
        )
    return window


def _window_grid(rank: int, w: int) -> np.ndarray:
    """All box points in lexicographic order, shape (dim, rank)."""
    axes = [np.arange(-w, w + 1)] * rank
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, rank)


def _window_index(points: np.ndarray, w: int) -> np.ndarray:
    side = 2 * w + 1
    idx = np.zeros(points.shape[0], dtype=np.int64)
    for j in range(points.shape[1]):
        idx = idx * side + (points[:, j] + w)
    return idx


def _phase_on_grid(sigma: Bicharacter, p: np.ndarray, grid: np.ndarray) -> np.ndarray:
    return sigma.eval_many(np.broadcast_to(p, grid.shape), grid)


def left_mult_matrix(
    a: FourierElement, sigma: Bicharacter, window
) -> np.ndarray:
    """Dense matrix of b -> a * b compressed to the window box.

    Entry (p + r, r) holds a(p) sigma(p, r) whenever both r and p + r lie in
    the box; everything else is zero.
    """
    window = _checked_window(a, sigma, window)
    ctx = a.context
    w = window.radius
    grid = _window_grid(ctx.rank, w)
    cols = _window_index(grid, w)
    dim = window.dim(ctx.rank)
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for pv, c in zip(a.coords, a.values):
        shifted = grid + pv
        mask = np.all(np.abs(shifted) <= w, axis=1)
        rows = _window_index(shifted[mask], w)
        mat[rows, cols[mask]] += c * _phase_on_grid(sigma, pv, grid[mask])
    return mat


def _below_spectrum(alpha0: float, pairs: list, mu: float) -> bool:
    """Whether every eigenvalue of T = tridiag(betas, alphas, betas) lies below mu.

    Sturm's count: the LDL^T pivots of mu - T are all positive exactly then.
    ``pairs`` holds (alpha_i, beta_{i-1}^2) for i >= 1; nothing is stored per pass.
    """
    pivot = mu - alpha0
    for alpha, beta_sq in pairs:
        if pivot <= 0.0:
            return False
        pivot = mu - alpha - beta_sq / pivot
    return pivot > 0.0


def _top_ritz_value(alphas: list, betas: list, low: float) -> float:
    """Top eigenvalue theta >= ``low`` of T from above, by bisection on Sturm counts."""
    high = 2.0 * (max(alphas) + 2.0 * max(betas, default=0.0))
    pairs = [(alpha, beta * beta) for alpha, beta in zip(alphas[1:], betas)]
    while high - low > 1e-15 * high:
        mid = 0.5 * (low + high)
        if _below_spectrum(alphas[0], pairs, mid):
            high = mid
        else:
            low = mid
    return high


def _ritz_vector(alphas: list, betas: list, theta: float) -> list:
    """Eigenvector of T for theta, by inverse iteration: one O(k) solve with
    theta - T through its LDL^T pivots, all positive since theta is above the
    spectrum."""
    pivots = [theta - alphas[0]]
    for alpha, beta in zip(alphas[1:], betas):
        pivots.append(theta - alpha - beta * beta / pivots[-1])
    y = [1.0] * len(pivots)
    for i in range(1, len(y)):
        y[i] += betas[i - 1] * y[i - 1] / pivots[i - 1]
    y[-1] /= pivots[-1]
    for i in range(len(y) - 2, -1, -1):
        y[i] = (y[i] + betas[i] * y[i + 1]) / pivots[i]
    return y


def _window_operator(a: FourierElement, sigma: Bicharacter, w: int) -> tuple:
    """x -> A x, x -> A^H x and x -> A^H A x on box-shaped arrays, A the window
    compression.

    In buffers padded by the support radius, each term p reads one contiguous
    slice at a fixed offset from the box's flat span.  Over the span it carries
    a(p) sigma(p, t - p) at t where t and t - p lie in the box, 0 elsewhere, and
    A^H the conjugates at the opposite offset: one multiply-add per term.
    """
    rank, pad = a.context.rank, a.support_radius()
    side = 2 * (w + pad) + 1
    grid = _window_grid(rank, w + pad)  # the padded box, in flat order
    inside = np.all(np.abs(grid) <= w, axis=1)
    step = side ** np.arange(rank - 1, -1, -1)  # flat offset of a unit step per axis
    lo, hi = pad * step.sum(), len(grid) - pad * step.sum()  # the box's flat span
    bufs = np.zeros((3,) + (side,) * rank, dtype=np.complex128)  # x, A x, A^H A x
    inner, flat = (slice(pad, side - pad),) * rank, bufs.reshape(3, -1)
    forward, adjoint = [], []
    for pv, c in zip(a.coords, a.values):
        offset = pv @ step
        coef = c * _phase_on_grid(sigma, pv, grid - pv)
        coef[~(inside & np.roll(inside, offset))] = 0.0
        forward.append((coef[lo:hi], flat[0, lo - offset : hi - offset]))
        back = slice(lo + offset, hi + offset)
        adjoint.append((coef[back].conj(), flat[1, back]))
    passes = [(forward, flat[1, lo:hi]), (adjoint, flat[2, lo:hi])]

    def apply(x: np.ndarray, first: int, last: int) -> np.ndarray:
        bufs[first][inner] = x
        for terms, seg in passes[first:last]:
            np.multiply(*terms[0], out=seg)
            for coef, source in terms[1:]:
                np.add(seg, coef * source, out=seg)
        return bufs[last][inner].copy()

    return (lambda x: apply(x, 0, 1)), (lambda x: apply(x, 1, 2)), (lambda x: apply(x, 0, 2))


def _lanczos_norm(a: FourierElement, sigma: Bicharacter, w: int) -> tuple[float, int, float]:
    """Largest singular value by plain Lanczos on the Gram operator A^H A.

    Nothing is reorthogonalised: lost orthogonality only repeats converged Ritz
    values (Paige 1980).  The top Ritz value is checkpointed until it settles or
    the step cap is hit.  The Ritz vector x sums the vectors q_0, q_1, ... kept
    within ``_BASIS_BUDGET`` (always the first two), then the ones past it, which
    ``resumed`` reruns.  Returns (s, steps, residual) with s = ||A x|| / ||x||, a
    Rayleigh quotient and so a lower bound even when unconverged, and residual
    ||A^H A x - s^2 x|| / ||x||.
    """
    shape = (2 * w + 1,) * a.context.rank
    forward, adjoint, gram = _window_operator(a, sigma, w)
    rng = np.random.default_rng(20240229)
    q = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q /= np.linalg.norm(q)
    kept, keep = [q], max(2, _BASIS_BUDGET // q.size)
    alphas, betas, theta, checkpoint = [], [], 0.0, 20
    q_prev, beta = q, 0.0
    while True:
        v = gram(q) - beta * q_prev
        alpha = float(np.vdot(q, v).real)
        v -= alpha * q
        beta = float(np.linalg.norm(v))
        alphas.append(alpha)
        betas.append(beta)
        # beta ~ 0: the Krylov space is invariant and theta exact
        stop = beta <= _LANCZOS_TOL * alphas[0] or len(alphas) == _LANCZOS_MAX_STEPS
        if stop or len(alphas) == checkpoint:
            previous, theta = theta, _top_ritz_value(alphas, betas[:-1], theta)
            if stop or theta - previous <= _LANCZOS_TOL * theta:
                break
            checkpoint += max(20, checkpoint // 8)
        q_prev, q = q, v / beta
        if len(kept) < keep:
            kept.append(q)

    def resumed():
        """q_m, ..., q_{k-1} past the m kept vectors, rerun from the last two
        kept ones with the recorded alphas and betas; empty when m = k."""
        m = len(kept)  # at least 2 unless k = 1, where nothing is rerun
        q_prev, q = kept[m - 2], kept[m - 1]
        for i in range(m - 1, len(alphas) - 1):
            v = gram(q) - betas[i - 1] * q_prev
            v -= alphas[i] * q
            q_prev, q = q, v / betas[i]
            yield q

    y = _ritz_vector(alphas, betas[:-1], theta)
    x = sum(yj * qj for yj, qj in zip(y, itertools.chain(kept, resumed())))
    ax = forward(x)
    x_norm = np.linalg.norm(x)
    estimate = np.linalg.norm(ax) / x_norm
    residual = np.linalg.norm(adjoint(ax) - estimate**2 * x) / x_norm
    return float(estimate), len(alphas), float(residual)


def op_norm_estimate(a: FourierElement, sigma: Bicharacter, window) -> float:
    """Largest singular value of the window compression of b -> a * b.

    A dense SVD of ``left_mult_matrix``, which checks the window, or above
    the dense limit of 289 points the same check and then the Lanczos
    estimate, clamped into [||a||_2, ||a||_1]: the box covers the support, so
    ||A delta_0|| = ||a||_2 bounds the compression from below, and the triangle
    inequality bounds it by ||a||_1.  For one term both ends are |c|.
    """
    window = _as_window(window)
    if window.dim(a.context.rank) <= _DENSE_DIM_LIMIT:
        mat = left_mult_matrix(a, sigma, window)
        return float(np.linalg.svd(mat, compute_uv=False)[0])
    window = _checked_window(a, sigma, window)
    if not a.values.size:
        return 0.0
    if not np.isfinite(a.values).all():  # as the dense SVD fails on them
        raise np.linalg.LinAlgError("non-finite coefficients")
    moduli = np.abs(a.values)
    estimate = _lanczos_norm(a, sigma, window.radius)[0]
    return float(min(max(estimate, np.linalg.norm(moduli)), moduli.sum()))


def norm_convergence(
    a: FourierElement, sigma: Bicharacter, windows: Sequence
) -> list[tuple[int, float]]:
    """Estimates per window, asserted nondecreasing in the radius to a relative 1e-12."""
    rows = [(w.radius, op_norm_estimate(a, sigma, w)) for w in map(_as_window, windows)]
    rows.sort(key=lambda r: r[0])
    for (w1, e1), (w2, e2) in itertools.pairwise(rows):
        if e2 < e1 - 1e-12 * e1:
            raise MonotonicityError(
                f"estimate dropped from {e1} at W={w1} to {e2} at W={w2}"
            )
    return rows
