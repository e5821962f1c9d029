"""Exact finite-group model of a crossed product with deformed dual actions.

The coefficient algebra A is the commutative algebra of functions on the
(self-dual) finite group, with the group acting by coordinate translation;
on the Fourier side this is multiplication by characters.  A crossed-product
element is a full table v -> fiber, each fiber a function on the dual.  In
this model every construction below is a finite sum, so the averaging map I
can be checked exactly against the double-sum deformed product.

Measure constants: fiber convolution uses plain sums, and both I and the
matched double-sum product (``deform.rieffel_product_finite``) carry the
context's |V|^{-1/2}; the homomorphism property of I at invertible T
validates the triple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .abelian import FiniteVector, GroupContext, GroupPoint, pairing
from .checks import CheckReport
from .cocycles import Bicharacter, LinearMap, T_map, is_nondegenerate
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
    "I_map",
    "verify_I_homomorphism",
    "twisted_crossed_dual",
    "lift_to_fixed_point",
    "fixed_point_dimension",
]

FIXED_POINT_TOL = 1e-10


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
    """Twist data for the deformed dual action: sigma, e, T = sigma^1 o e^1, adjoint."""

    sigma: Bicharacter
    e: Bicharacter
    t: LinearMap
    t_adj: LinearMap

    @classmethod
    def from_cocycles(cls, sigma: Bicharacter, e: Bicharacter) -> "DeformedActionData":
        t, t_adj = T_map(sigma, e)
        data = cls(sigma, e, t, t_adj)
        data.validate()
        return data

    def validate(self) -> None:
        ctx = self.sigma.context
        if self.e.context != ctx:
            raise ValueError("sigma and e from different contexts")
        if not is_nondegenerate(self.e):
            raise ValueError("e is degenerate")
        n = ctx.uniform_modulus
        expected_t = (self.sigma.matrix.T @ self.e.matrix.T) % n
        if not np.array_equal(self.t.matrix, expected_t):
            raise ValueError("T is not the composition of the slot-one maps")
        lhs = (self.t_adj.matrix.T @ self.e.matrix) % n
        rhs = (self.e.matrix @ self.t.matrix) % n
        if not np.array_equal(lhs, rhs):
            raise ValueError("adjoint relation fails")

    @property
    def context(self) -> GroupContext:
        return self.sigma.context


def _alpha(fiber: np.ndarray, x: np.ndarray, rank: int) -> np.ndarray:
    """Translation action on a fiber: (alpha_x f)(xi) = f(xi + x)."""
    return np.roll(fiber, shift=tuple(-np.asarray(x)), axis=tuple(range(rank)))


def lambda_element(v: GroupPoint) -> CrossedElement:
    """Group unitary: delta-supported at v with the unit fiber."""
    ctx = v.context
    table = np.zeros(tuple(ctx.moduli) * 2, dtype=np.complex128)
    table[v.coords] = np.ones(tuple(ctx.moduli), dtype=np.complex128)
    return CrossedElement(ctx, table)


def crossed_conv(a: CrossedElement, b: CrossedElement) -> CrossedElement:
    """(a * b)(v) = sum_u a(u) . alpha_u[b(v - u)], fibers multiplied pointwise."""
    a._check_same(b)
    ctx = a.context
    rank = ctx.rank
    out = np.zeros_like(a.table)
    for u in ctx.points():
        uv = u.vector()
        fiber_a = a.fiber(u)
        if not fiber_a.any():
            continue
        for v in ctx.points():
            fiber_b = b.fiber(v - u)
            out[v.coords] += fiber_a * _alpha(fiber_b, uv, rank)
    return CrossedElement(ctx, out)


def dual_action(xi: GroupPoint, a: CrossedElement) -> CrossedElement:
    """Multiply the fiber at v by pairing(v, xi); fixes exactly the v = 0 slice."""
    ctx = a.context
    if xi.context != ctx:
        raise ValueError("character point from a different context")
    out = a.table.copy()
    for v in ctx.points():
        out[v.coords] = pairing(ctx, v, xi) * a.fiber(v)
    return CrossedElement(ctx, out)


def deformed_dual_action(
    data: DeformedActionData, xi: GroupPoint, a: CrossedElement
) -> CrossedElement:
    """Twisted dual action: fiber at v becomes pairing(v, xi) alpha_{sigma^1 xi}^{-1}[fiber]."""
    ctx = a.context
    if xi.context != ctx:
        raise ValueError("character point from a different context")
    n = ctx.uniform_modulus
    sigma1_xi = (data.sigma.matrix.T @ xi.vector()) % n
    rank = ctx.rank
    out = a.table.copy()
    for v in ctx.points():
        out[v.coords] = pairing(ctx, v, xi) * _alpha(
            a.fiber(v), -sigma1_xi, rank
        )
    return CrossedElement(ctx, out)


def fixed_point_test(
    a: CrossedElement, data: DeformedActionData, tol: float = FIXED_POINT_TOL
) -> CheckReport:
    """Spectral condition alpha_{Tu}[a(v)] = e(u, v) a(v) for all u, v."""
    ctx = a.context
    rank = ctx.rank
    dev = 0.0
    for v in ctx.points():
        fiber = a.fiber(v)
        for u in ctx.points():
            tu = data.t.apply_vec(u.vector())
            shifted = _alpha(fiber, tu, rank)
            dev = max(dev, float(np.max(np.abs(shifted - data.e(u, v) * fiber))))
    return CheckReport(dev <= tol, dev)


def spectral_project(a: CrossedElement, data: DeformedActionData) -> CrossedElement:
    """Fiberwise character average onto the spectral subspaces; idempotent.

    fiber(v) -> |V|^{-1} sum_u conj(e(u, v)) alpha_{Tu}[fiber(v)].  Averaging
    over the translation subgroup is exact and basis-free, and reindexing the
    sum shows the output satisfies the spectral condition identically.
    """
    ctx = a.context
    rank = ctx.rank
    size = ctx.size
    out = np.zeros_like(a.table)
    for v in ctx.points():
        fiber = a.fiber(v)
        acc = np.zeros_like(fiber)
        for u in ctx.points():
            tu = data.t.apply_vec(u.vector())
            acc += np.conj(data.e(u, v)) * _alpha(fiber, tu, rank)
        out[v.coords] = acc / size
    return CrossedElement(ctx, out)


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
    rank = ctx.rank
    out = np.zeros_like(a.table)
    for u in ctx.points():
        uv = u.vector()
        fiber_a = a.fiber(u)
        if not fiber_a.any():
            continue
        for v in ctx.points():
            phase = sigma_hat(u - v, u)
            out[v.coords] += phase * fiber_a * _alpha(b.fiber(v - u), uv, rank)
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

    Builds the fiberwise projector matrices and sums their ranks; for
    invertible T each fiber contributes one dimension.
    """
    ctx = data.context
    rank = ctx.rank
    size = ctx.size
    total = 0
    coords = [p for p in ctx.points()]
    index = {p.coords: i for i, p in enumerate(coords)}
    for v in coords:
        proj = np.zeros((size, size), dtype=np.complex128)
        for u in coords:
            tu = data.t.apply_vec(u.vector())
            weight = np.conj(data.e(u, v)) / size
            # alpha_{Tu} permutes dual points: basis delta_xi -> delta_{xi - Tu}.
            for xi in coords:
                shifted = index[(xi - ctx.point(tuple(tu))).coords]
                proj[shifted, index[xi.coords]] += weight
        total += int(np.linalg.matrix_rank(proj, tol=1e-8))
    return total
