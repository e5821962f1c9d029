"""Operator-norm estimates for deformed left multiplication on coefficient windows.

The left-regular action of an element on square-summable coefficients is
compressed to the box of indices with max |p_j| <= W.  The largest singular
value of the compression is a certified lower bound of the deformed operator
norm and is nondecreasing in W; no upper bounds are claimed anywhere.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cocycles import Bicharacter, SkewForm
from .deform import FourierElement, star

__all__ = [
    "Window",
    "PowerIterationDiverged",
    "MonotonicityError",
    "left_mult_matrix",
    "op_norm_estimate",
    "norm_convergence",
    "field_continuity_scan",
]

# Dense decomposition up to the 2-d W=16 box; the Gram power iteration beyond.
_DENSE_DIM_LIMIT = 1089
# Largest box estimated at all: W = 511 in rank 2.
_WINDOW_DIM_LIMIT = 2**20
_POWER_TOL = 1e-10
_POWER_MAX_ITER = 10_000


class PowerIterationDiverged(RuntimeError):
    """Raised when the Gram power iteration fails to converge."""


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
    window = _as_window(window)
    ctx = a.context
    if ctx.is_finite:
        raise ValueError("window compressions are defined on lattice contexts")
    if sigma.context != ctx:
        raise ValueError("cocycle from a different context")
    w = window.radius
    if w < a.support_radius():
        raise ValueError(
            f"window radius {w} is smaller than the support radius "
            f"{a.support_radius()}"
        )
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


def _power_iteration_norm(a: FourierElement, sigma: Bicharacter, w: int) -> float:
    """Largest singular value via power iteration on the Gram operator.

    The compression and its adjoint are applied implicitly (per support
    point, with clipping at the box boundary) so no dense matrix is built.
    """
    ctx = a.context
    rank = ctx.rank
    side = 2 * w + 1
    shape = (side,) * rank
    grid = _window_grid(rank, w)
    terms = []
    for pv, c in zip(a.coords, a.values):
        phase = _phase_on_grid(sigma, pv, grid).reshape(shape)
        src = tuple(
            slice(max(-int(s), 0), side + min(-int(s), 0)) for s in pv
        )
        dst = tuple(slice(max(int(s), 0), side + min(int(s), 0)) for s in pv)
        terms.append((c, phase, src, dst))

    def apply(x: np.ndarray) -> np.ndarray:
        out = np.zeros(shape, dtype=np.complex128)
        for c, phase, src, dst in terms:
            out[dst] += c * (phase * x)[src]
        return out

    def apply_adj(x: np.ndarray) -> np.ndarray:
        out = np.zeros(shape, dtype=np.complex128)
        for c, phase, src, dst in terms:
            out[src] += np.conj(c) * np.conj(phase[src]) * x[dst]
        return out

    rng = np.random.default_rng(20240229)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x /= np.linalg.norm(x)
    estimate = 0.0
    for _ in range(_POWER_MAX_ITER):
        y = apply_adj(apply(x))
        norm_y = float(np.linalg.norm(y))
        if norm_y == 0.0:
            return 0.0
        new_estimate = float(np.real(np.vdot(x, y)))
        x = y / norm_y
        if abs(new_estimate - estimate) <= _POWER_TOL * max(1.0, new_estimate):
            return float(np.sqrt(max(new_estimate, 0.0)))
        estimate = new_estimate
    raise PowerIterationDiverged(
        f"no convergence after {_POWER_MAX_ITER} iterations at window {w}"
    )


def op_norm_estimate(a: FourierElement, sigma: Bicharacter, window) -> float:
    """Largest singular value of the window compression of b -> a * b."""
    window = _as_window(window)
    if not a.values.size:
        return 0.0
    dim = window.dim(a.context.rank)
    if dim > _WINDOW_DIM_LIMIT:
        raise ValueError(
            f"window radius {window.radius} in rank {a.context.rank} spans a box of {dim} "
            f"points, above the limit of {_WINDOW_DIM_LIMIT}"
        )
    if dim <= _DENSE_DIM_LIMIT:
        mat = left_mult_matrix(a, sigma, window)
        return float(np.linalg.svd(mat, compute_uv=False)[0])
    if window.radius < a.support_radius():
        raise ValueError(
            f"window radius {window.radius} is smaller than the support radius "
            f"{a.support_radius()}"
        )
    return _power_iteration_norm(a, sigma, window.radius)


def norm_convergence(
    a: FourierElement, sigma: Bicharacter, windows: Sequence
) -> list[tuple[int, float]]:
    """Estimates per window, asserted nondecreasing in the radius."""
    rows = []
    for window in windows:
        window = _as_window(window)
        rows.append((window.radius, op_norm_estimate(a, sigma, window)))
    rows.sort(key=lambda r: r[0])
    for (w1, e1), (w2, e2) in itertools.pairwise(rows):
        if e2 < e1 - 1e-12:
            raise MonotonicityError(
                f"estimate dropped from {e1} at W={w1} to {e2} at W={w2}"
            )
    return rows


def field_continuity_scan(
    a: FourierElement,
    b: FourierElement,
    gamma: SkewForm,
    hbar_list: Sequence[float],
    window,
) -> tuple[list[tuple[float, float]], float]:
    """Window norm of a *_hbar b per hbar, plus the worst difference quotient.

    Evidence for continuity of the field in hbar, not a proof; the returned
    constant bounds adjacent jumps by C * delta-hbar on this sample.
    """
    window = _as_window(window)
    rows = []
    for hbar in hbar_list:
        sigma = Bicharacter.from_skew(a.context, gamma, hbar)
        rows.append((float(hbar), op_norm_estimate(star(a, b, sigma), sigma, window)))
    quotient = 0.0
    for (h1, e1), (h2, e2) in itertools.pairwise(rows):
        if h1 != h2:
            quotient = max(quotient, abs(e2 - e1) / abs(h2 - h1))
    return rows, quotient
