"""Operator-norm estimates for deformed left multiplication on coefficient windows.

The left-regular action of an element on square-summable coefficients is
compressed to the box of indices with max |p_j| <= W; a window is that int
radius W >= 1, read by ``operator.index`` (so 2.5 raises ``TypeError``).  The
largest singular value of the compression is a certified lower bound of the
deformed operator norm and is nondecreasing in W; no upper bounds are claimed
anywhere.  Every box takes one matrix-free Lanczos estimate: the Rayleigh
quotient ||A x|| / ||x|| of its Ritz vector x, a lower bound even unconverged,
with its basis kept within 2 MiB.  ``left_mult_matrix`` plus a dense SVD is the
oracle for every box.
"""

from __future__ import annotations

import itertools
import operator
from typing import Sequence

import numpy as np

from .cocycles import Bicharacter
from .deform import FourierElement

__all__ = [
    "MonotonicityError",
    "left_mult_matrix",
    "op_norm_estimate",
    "norm_convergence",
]

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


def _checked_window(a: FourierElement, sigma: Bicharacter, window) -> int:
    """The radius, read by ``operator.index`` and checked once for the matrix and
    the estimate: at least 1, lattice a, sigma on a's context, a box that covers
    a's support and holds at most 2**20 points."""
    w = operator.index(window)
    if w < 1:
        raise ValueError("window radius must be >= 1")
    ctx = a.context
    if ctx.is_finite:
        raise ValueError("window compressions are defined on lattice contexts")
    if sigma.context != ctx:
        raise ValueError("cocycle from a different context")
    if w < a.support_radius():
        raise ValueError(
            f"window radius {w} is smaller than the support radius {a.support_radius()}"
        )
    dim = (2 * w + 1) ** ctx.rank
    if dim > _WINDOW_DIM_LIMIT:
        raise ValueError(
            f"window radius {w} in rank {ctx.rank} spans a box of {dim} "
            f"points, above the limit of {_WINDOW_DIM_LIMIT}"
        )
    return w


def _window_grid(rank: int, w: int) -> np.ndarray:
    """All box points in lexicographic order, shape (dim, rank)."""
    return np.indices((2 * w + 1,) * rank).reshape(rank, -1).T - w


def _phase_on_grid(sigma: Bicharacter, p: np.ndarray, grid: np.ndarray) -> np.ndarray:
    return sigma.eval_many(np.broadcast_to(p, grid.shape), grid)


def left_mult_matrix(
    a: FourierElement, sigma: Bicharacter, window
) -> np.ndarray:
    """Dense matrix of b -> a * b compressed to the window box.

    Entry (p + r, r) holds a(p) sigma(p, r) whenever both r and p + r lie in
    the box; everything else is zero.
    """
    w = _checked_window(a, sigma, window)
    grid = _window_grid(a.context.rank, w)
    box = (2 * w + 1,) * a.context.rank
    cols = np.ravel_multi_index(tuple((grid + w).T), box)
    mat = np.zeros((len(grid), len(grid)), dtype=np.complex128)
    for pv, c in zip(a.coords, a.values):
        shifted = grid + pv
        mask = np.all(np.abs(shifted) <= w, axis=1)
        rows = np.ravel_multi_index(tuple((shifted[mask] + w).T), box)
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


def _top_ritz_value(alphas: list, betas: list, low: float, step: float) -> float:
    """Top eigenvalue theta >= ``low`` of T from above, by bisection on Sturm counts
    in a bracket grown up from ``low`` by ``step`` (at least 1e-13 low), four times
    longer after each failed count, up to 2 (max alpha + 2 max beta) (Gershgorin)."""
    cap = 2.0 * (max(alphas) + 2.0 * max(betas, default=0.0))
    pairs = [(alpha, beta * beta) for alpha, beta in zip(alphas[1:], betas)]
    step = max(step, 1e-13 * low)
    high = min(low + step, cap)
    while high < cap and not _below_spectrum(alphas[0], pairs, high):
        low, step = high, 4.0 * step
        high = min(low + step, cap)
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
    alphas, betas, theta, rise, checkpoint = [], [], 0.0, np.inf, 20
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
            # theta only grows with k (interlacing): bracket above the last one
            previous, theta = theta, _top_ritz_value(alphas, betas[:-1], theta, 4.0 * rise)
            rise = theta - previous
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

    The window is checked as for ``left_mult_matrix``; non-finite coefficients,
    or a non-finite estimate (from non-finite phases), raise ``LinAlgError``.
    Lanczos runs on a / 2**e, whose largest real or imaginary part lies in
    [1/2, 1): exact, and every square stays in range.
    The estimate is clamped into [||a||_2, ||a||_1]: the box covers the support,
    so ||A delta_0|| = ||a||_2 bounds it from below, and the triangle inequality
    by ||a||_1.  For one term both ends are |c|.
    """
    w = _checked_window(a, sigma, window)
    if not a.values.size:
        return 0.0
    if not np.isfinite(a.values).all():
        raise np.linalg.LinAlgError("non-finite coefficients")
    parts = a.values.view(np.float64)
    e = int(np.frexp(np.abs(parts).max())[1])
    values = np.ldexp(parts, -e).view(np.complex128)
    moduli = np.abs(values)
    scaled = FourierElement._wrap(a.context, a.coords, values)
    estimate = _lanczos_norm(scaled, sigma, w)[0]
    if not np.isfinite(estimate):
        raise np.linalg.LinAlgError("non-finite window estimate")
    return float(np.ldexp(min(max(estimate, np.linalg.norm(moduli)), moduli.sum()), e))


def norm_convergence(
    a: FourierElement, sigma: Bicharacter, windows: Sequence
) -> list[tuple[int, float]]:
    """Estimates per window, asserted nondecreasing in the radius to a relative 1e-12."""
    rows = [(operator.index(w), op_norm_estimate(a, sigma, w)) for w in windows]
    rows.sort(key=lambda r: r[0])
    for (w1, e1), (w2, e2) in itertools.pairwise(rows):
        if e2 < e1 - 1e-12 * e1:
            raise MonotonicityError(
                f"estimate dropped from {e1} at W={w1} to {e2} at W={w2}"
            )
    return rows
