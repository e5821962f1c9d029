"""Exact finite-group model of a crossed product with deformed dual actions.

The coefficient algebra A is the commutative algebra of functions on the
(self-dual) finite group, with the group acting by coordinate translation;
on the Fourier side this is multiplication by characters.  A crossed-product
element is a full table v -> fiber, each fiber a function on the dual.  In
this model every construction below is a finite sum, so the averaging map I
can be checked exactly against the double-sum deformed product.

Translation by x multiplies the k-th Fourier coefficient of a fiber by
exp(2 pi i k.x / N), so the spectral projection is a 0/1 character mask
between FFTs along the fiber axes and the fixed-point dimension counts the
mask.  ``fixed_point_test`` evaluates the defining condition instead, one
translate at a time, so it checks the mask rather than restating it.

``DeformedActionData(sigma, e)`` derives T = sigma^1 o e^1 from its cocycles
and rejects a context with |V|^2 > 2**20, the entry count of every table here.

Measure constants: fiber convolution uses plain sums, and both I and the
matched double-sum product (``deform.rieffel_product_finite``) carry the
context's |V|^{-1/2}; the homomorphism property of I at invertible T
validates the triple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .abelian import FiniteVector, GroupContext, GroupPoint, pairing_many
from .checks import CheckReport
from .cocycles import Bicharacter, LinearMap, T_map, sigma_one
from .deform import rieffel_product_finite

__all__ = [
    "CrossedElement",
    "DeformedActionData",
    "lambda_element",
    "crossed_conv",
    "dual_action",
    "deformed_dual_action",
    "fixed_point_test",
    "spectral_project",
    "random_projected_pairs",
    "I_map",
    "verify_I_homomorphism",
    "twisted_crossed_dual",
    "lift_to_fixed_point",
    "fixed_point_dimension",
]

FIXED_POINT_TOL = 1e-10
# Largest crossed table, |V|^2 entries: the same cap as a window box.
_TABLE_SIZE_LIMIT = 2**20


class CrossedElement:
    """Map v -> (function on the dual group), stored as one shaped table.

    The first ``rank`` axes index v, the remaining ``rank`` axes the dual
    variable of the fiber at v.
    """

    __slots__ = ("context", "table")

    def __init__(self, context: GroupContext, table: np.ndarray) -> None:
        if not context.is_finite:
            raise ValueError("crossed elements require a finite context")
        shape = tuple(context.moduli) * 2
        arr = np.asarray(table, dtype=np.complex128)
        if arr.shape != shape:
            raise ValueError(f"table shape {arr.shape}, expected {shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("crossed table entries must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        self.context = context
        self.table = arr

    @classmethod
    def zero(cls, context: GroupContext) -> "CrossedElement":
        return cls(context, np.zeros(tuple(context.moduli) * 2, dtype=np.complex128))

    def fiber(self, v: GroupPoint) -> np.ndarray:
        return self.table[v.coords]

    def with_fiber(self, v: GroupPoint, values: np.ndarray) -> "CrossedElement":
        table = self.table.copy()
        table[v.coords] = values
        return CrossedElement(self.context, table)

    def __add__(self, other: "CrossedElement") -> "CrossedElement":
        self._check_same(other)
        return CrossedElement(self.context, self.table + other.table)

    def __sub__(self, other: "CrossedElement") -> "CrossedElement":
        self._check_same(other)
        return CrossedElement(self.context, self.table - other.table)

    def __mul__(self, scalar: complex) -> "CrossedElement":
        return CrossedElement(self.context, self.table * scalar)

    __rmul__ = __mul__

    def _check_same(self, other: "CrossedElement") -> None:
        if self.context != other.context:
            raise ValueError("crossed elements from different contexts")

    def linf_distance(self, other: "CrossedElement") -> float:
        self._check_same(other)
        return float(np.max(np.abs(self.table - other.table)))

    def __repr__(self) -> str:
        return f"CrossedElement({self.context.moduli})"


@dataclass(frozen=True)
class DeformedActionData:
    """Twist data for the deformed dual action: sigma, e and T = sigma^1 o e^1.

    A context with |V|^2 > 2**20 is rejected first; T is then derived
    through ``T_map``, which rejects lattice contexts, mismatched contexts and
    a degenerate e.
    """

    sigma: Bicharacter
    e: Bicharacter
    t: LinearMap = field(init=False)

    def __post_init__(self) -> None:
        size = self.context.size
        if size**2 > _TABLE_SIZE_LIMIT:
            raise ValueError(
                f"a crossed table over |V| = {size} points holds {size**2} entries, "
                f"above the limit of {_TABLE_SIZE_LIMIT}"
            )
        object.__setattr__(self, "t", T_map(self.sigma, self.e)[0])

    @classmethod
    def from_cocycles(cls, sigma: Bicharacter, e: Bicharacter) -> "DeformedActionData":
        return cls(sigma, e)

    @property
    def context(self) -> GroupContext:
        return self.sigma.context


def _points(ctx: GroupContext) -> np.ndarray:
    """All group points as int64 rows of shape (|V|, rank), in ``points()`` order."""
    return np.indices(ctx.moduli, dtype=np.int64).reshape(ctx.rank, -1).T


def _per_base(values: np.ndarray, ctx: GroupContext) -> np.ndarray:
    """One value per point v, shaped to scale the fiber at v of a crossed table."""
    return values.reshape(tuple(ctx.moduli) + (1,) * ctx.rank)


def lambda_element(v: GroupPoint) -> CrossedElement:
    """Group unitary: delta-supported at v with the unit fiber."""
    ctx = v.context
    table = np.zeros(tuple(ctx.moduli) * 2, dtype=np.complex128)
    table[v.coords] = np.ones(tuple(ctx.moduli), dtype=np.complex128)
    return CrossedElement(ctx, table)


def crossed_conv(a: CrossedElement, b: CrossedElement) -> CrossedElement:
    """(a * b)(v) = sum_u a(u) . alpha_u[b(v - u)]: the untwisted convolution."""
    return twisted_crossed_dual(a, b, Bicharacter.trivial(a.context))


def _dual(xi: GroupPoint, a: CrossedElement, shift) -> CrossedElement:
    """Fiber at v becomes pairing(v, xi) alpha_{-shift}[fiber(v)]."""
    ctx = a.context
    if xi.context != ctx:
        raise ValueError("character point from a different context")
    phases = pairing_many(ctx, _points(ctx), xi)
    shifted = np.roll(a.table, tuple(shift), axis=tuple(range(ctx.rank, 2 * ctx.rank)))
    return CrossedElement(ctx, _per_base(phases, ctx) * shifted)


def dual_action(xi: GroupPoint, a: CrossedElement) -> CrossedElement:
    """Multiply the fiber at v by pairing(v, xi); fixes exactly the v = 0 slice."""
    return _dual(xi, a, (0,) * a.context.rank)


def deformed_dual_action(
    data: DeformedActionData, xi: GroupPoint, a: CrossedElement
) -> CrossedElement:
    """Twisted dual action: fiber at v becomes pairing(v, xi) alpha_{sigma^1 xi}^{-1}[fiber]."""
    return _dual(xi, a, sigma_one(data.sigma).apply_vec(xi.vector()))


def fixed_point_test(
    a: CrossedElement, data: DeformedActionData, tol: float = FIXED_POINT_TOL
) -> CheckReport:
    """Spectral condition alpha_{Tu}[a(v)] = e(u, v) a(v) for all u, v."""
    ctx = a.context
    points, axes = _points(ctx), tuple(range(ctx.rank, 2 * ctx.rank))
    dev = 0.0
    for u in points:
        shifted = np.roll(a.table, tuple(-data.t.apply_vec(u)), axis=axes)
        phases = data.e.eval_many(np.broadcast_to(u, points.shape), points)
        residual = shifted - _per_base(phases, ctx) * a.table
        dev = float(np.maximum(dev, np.max(np.abs(residual))))
    return CheckReport(dev <= tol, dev)


def _spectral_mask(data: DeformedActionData) -> np.ndarray:
    """Boolean crossed table: True where character k of the fiber at v survives.

    Averaging conj(e(u, v)) alpha_{Tu} over u multiplies the k-th Fourier
    coefficient by |V|^{-1} sum_u exp(2 pi i u.(T^T k - E v) / N), which is
    1 if T^T k = E v (mod N) and 0 otherwise.
    """
    ctx = data.context
    n = ctx.uniform_modulus
    points = _points(ctx)
    t_k = (points @ data.t.matrix) % n
    e_v = (points @ data.e.matrix.T) % n
    mask = (e_v[:, None, :] == t_k[None, :, :]).all(axis=2)
    return mask.reshape(tuple(ctx.moduli) * 2)


def spectral_project(a: CrossedElement, data: DeformedActionData) -> CrossedElement:
    """Fiberwise character average onto the spectral subspaces; idempotent.

    fiber(v) -> |V|^{-1} sum_u conj(e(u, v)) alpha_{Tu}[fiber(v)], computed
    as the 0/1 spectral mask applied between an FFT and its inverse along
    the fiber axes.
    """
    axes = tuple(range(a.context.rank, 2 * a.context.rank))
    spectrum = np.fft.fftn(a.table, axes=axes) * _spectral_mask(data)
    return CrossedElement(a.context, np.fft.ifftn(spectrum, axes=axes))


def random_projected_pairs(
    data: DeformedActionData, rng: np.random.Generator, trials: int
) -> Iterator[tuple[CrossedElement, CrossedElement]]:
    """``trials`` pairs of projected crossed elements with standard normal tables.

    Each table draws its real part, then its imaginary part; the first
    element of a pair is drawn before the second.
    """
    ctx = data.context
    shape = tuple(ctx.moduli) * 2

    def draw() -> CrossedElement:
        table = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return spectral_project(CrossedElement(ctx, table), data)

    for _ in range(trials):
        yield draw(), draw()


def I_map(a: CrossedElement) -> FiniteVector:
    """Averaging map: the |V|^{-1/2}-weighted sum of the fibers."""
    ctx = a.context
    summed = a.table.reshape((ctx.size,) + tuple(ctx.moduli)).sum(axis=0)
    return FiniteVector(ctx, summed * ctx.norm_const)


def verify_I_homomorphism(
    a: CrossedElement, b: CrossedElement, data: DeformedActionData
) -> float:
    """Deviation of I(a * b) from the double-sum product of I(a) and I(b).

    Preconditions: both inputs pass the spectral fixed-point test and T is
    invertible; then the deviation is floating-point small.
    """
    if not data.t.is_invertible():
        raise ValueError("T is singular")
    for name, elem in (("a", a), ("b", b)):
        report = fixed_point_test(elem, data)
        if not report.ok:
            raise ValueError(
                f"{name} is not a fixed point (deviation {report.max_deviation:.3e})"
            )
    lhs = I_map(crossed_conv(a, b))
    rhs = rieffel_product_finite(I_map(a), I_map(b), data.e, data.t)
    return lhs.linf_distance(rhs)


def twisted_crossed_dual(
    a: CrossedElement, b: CrossedElement, sigma_hat: Bicharacter
) -> CrossedElement:
    """Cocycle-twisted convolution (a * b)(v) = sum_u sigma_hat(u-v, u) a(u) alpha_u[b(v-u)]."""
    a._check_same(b)
    ctx = a.context
    if sigma_hat.context != ctx:
        raise ValueError("cocycle from a different context")
    points = _points(ctx)
    moduli, shape = np.array(ctx.moduli), points.shape
    out = np.zeros_like(a.table)
    for u in points:
        fiber_a = a.table[tuple(u)]
        if not fiber_a.any():
            continue
        phases = sigma_hat.eval_many((u - points) % moduli, np.broadcast_to(u, shape))
        # slot v holds alpha_u[b(v - u)]
        shifted = np.roll(b.table, (*u, *-u), axis=tuple(range(2 * ctx.rank)))
        out += _per_base(phases, ctx) * fiber_a * shifted
    return CrossedElement(ctx, out)


def lift_to_fixed_point(x: FiniteVector, data: DeformedActionData) -> CrossedElement:
    """Right inverse of the averaging map on the fixed-point subalgebra.

    Lifts x as a constant fiber assignment, projects onto the spectral
    subspaces, and rescales by |V|^{1/2}; the scale is fixed by the round
    trip I(lift(x)) = x, which the tests pin down.  Together with the
    dimension count this realizes the fixed-point algebra as an exact copy
    of the coefficient algebra.
    """
    ctx = x.context
    if data.context != ctx:
        raise ValueError("vector and action data from different contexts")
    table = np.broadcast_to(x.values, tuple(ctx.moduli) * 2)
    constant = CrossedElement(ctx, np.array(table))
    return spectral_project(constant, data) * np.sqrt(ctx.size)


def fixed_point_dimension(data: DeformedActionData) -> int:
    """Exact dimension of the spectral fixed-point subspace.

    Each surviving character of the spectral mask spans one dimension, so
    this counts the solutions (v, k) of T^T k = E v (mod N); for invertible
    T every fiber contributes exactly one.
    """
    return int(_spectral_mask(data).sum())
