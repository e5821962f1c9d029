"""Exact finite-group model of a crossed product with a deformed dual action.

The coefficient algebra A is the commutative algebra of functions on the
(self-dual) finite group, with the group acting by coordinate translation;
on the Fourier side this is multiplication by characters.  A crossed-product
element is a full table v -> fiber, each fiber a function on the dual.  In
this model every construction below is a finite sum, so the averaging map I
can be checked exactly against the double-sum deformed product.

Translation by x multiplies the k-th Fourier coefficient of a fiber by
exp(2 pi i k.x / N), so the spectral projection is a 0/1 character mask
between FFTs along the fiber axes and the fixed-point dimension counts the
mask.  ``fixed_point_test`` evaluates the defining condition instead, on
translates gathered by blocks of u, so it checks the mask rather than restating it.
Its e(u, v) and the convolution's sigma_hat(u - v, u) are read from one (|V|, |V|)
table of exact exponents, ``cocycles._exponent_table``, as are the double-sum product's.

``DeformedActionData(sigma, e)`` derives T = sigma^1 o e^1 from its cocycles
and rejects a context with |V|^2 > 2**20, the entry count of every table here.
The dual action is ``deformed_dual_action`` at the trivial sigma; a routine
given an element and the data rejects them unless their contexts agree.
Averaged over every xi in V, the deformed dual action is ``spectral_project``
(e is nondegenerate); ``kasprzak-equivalence`` checks the two against each other.

Measure constants: fiber convolution uses plain sums, and both I and the
matched double-sum product (``deform.rieffel_product_finite``) carry the
context's |V|^{-1/2}; the homomorphism property of I at invertible T
validates the triple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .abelian import FiniteVector, GroupContext, GroupPoint, _points, pairing_many
from .cocycles import Bicharacter, LinearMap, T_map, _exponent_table, sigma_one
from .deform import rieffel_product_finite
from .modarith import checked_array, matmul_mod

__all__ = [
    "CrossedElement",
    "DeformedActionData",
    "crossed_conv",
    "deformed_dual_action",
    "fixed_point_test",
    "spectral_project",
    "random_projected_pairs",
    "I_map",
    "verify_I_homomorphism",
    "twisted_crossed_dual",
    "fixed_point_dimension",
]

FIXED_POINT_TOL = 1e-10
# Largest crossed table, |V|^2 entries: the same cap as a window box.
_TABLE_SIZE_LIMIT = 2**20
# Most entries the translate kernels gather at once, one u at least: on finite-exact,
# 2**10 slows verify_I by 45%; 2**14 and up save 5-10% at 0.5-1 MB more peak RSS.
_GATHER_LIMIT = 2**12


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
        arr = checked_array(table, "crossed table", np.complex128)
        if arr.shape != shape:
            raise ValueError(f"table shape {arr.shape}, expected {shape}")
        self.context = context
        self.table = arr

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
        object.__setattr__(self, "t", T_map(self.sigma, self.e))

    @classmethod
    def from_cocycles(cls, sigma: Bicharacter, e: Bicharacter) -> "DeformedActionData":
        return cls(sigma, e)

    @property
    def context(self) -> GroupContext:
        return self.sigma.context


def _check_context(a: CrossedElement, data: DeformedActionData) -> None:
    if a.context != data.context:
        raise ValueError("crossed element and action data from different contexts")


def crossed_conv(a: CrossedElement, b: CrossedElement) -> CrossedElement:
    """(a * b)(v) = sum_u a(u) . alpha_u[b(v - u)]: the untwisted convolution."""
    return twisted_crossed_dual(a, b, Bicharacter.trivial(a.context))


def deformed_dual_action(
    data: DeformedActionData, xi: GroupPoint, a: CrossedElement
) -> CrossedElement:
    """Twisted dual action: fiber at v becomes <v, xi> alpha_{sigma^1 xi}^{-1}[fiber].

    At the trivial sigma the shift is zero: the plain dual action, which fixes
    exactly the v = 0 slice.
    """
    _check_context(a, data)
    ctx = a.context
    phases = pairing_many(ctx, _points(ctx), xi)
    shift = tuple(sigma_one(data.sigma).apply_vec(xi.vector()))
    shifted = np.roll(a.table, shift, axis=tuple(range(ctx.rank, 2 * ctx.rank)))
    return CrossedElement(ctx, phases.reshape(tuple(ctx.moduli) + (1,) * ctx.rank) * shifted)


def _translate_index(ctx: GroupContext, points: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Row i, column k holds the flat index of the point k + shifts[i]."""
    index = np.zeros((len(shifts), len(points)), dtype=np.intp)
    for axis, n in enumerate(ctx.moduli):  # row-major, one coordinate at a time
        index = index * n + np.add.outer(shifts[:, axis], points[:, axis]) % n
    return index


def fixed_point_test(a: CrossedElement, data: DeformedActionData) -> float:
    """Worst deviation from the spectral condition alpha_{Tu}[a(v)] = e(u, v) a(v) over
    all u, v (translates gathered by blocks of u); fixed points read below ``FIXED_POINT_TOL``."""
    _check_context(a, data)
    ctx, n = a.context, data.t.modulus
    points, size, table = _points(ctx), ctx.size, a.table.reshape(ctx.size, -1)
    # row u holds e(u, v) for every v, and k -> k + T u
    phases = np.exp(2j * np.pi * _exponent_table(data.e, points).astype(np.float64) / n)
    shifted = _translate_index(ctx, points, matmul_mod(points, data.t.matrix.T, n))
    dev, step = 0.0, max(1, _GATHER_LIMIT // size**2)
    for block in np.split(np.arange(size), range(step, size, step)):
        # [v, i, k] holds alpha_{T u_i}[a(v)](k) = a(v)(k + T u_i), less e(u_i, v) a(v)(k)
        residual = table.take(shifted[block], axis=1)
        residual -= phases[block].T[:, :, None] * table[:, None, :]
        dev = float(np.maximum(dev, np.max(np.abs(residual))))
    return dev


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
    _check_context(a, data)
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

    Preconditions: both inputs pass the spectral fixed-point test within
    ``FIXED_POINT_TOL`` and T is invertible; then the deviation is
    floating-point small.
    """
    if not data.t.is_invertible():
        raise ValueError("T is singular")
    for name, elem in (("a", a), ("b", b)):
        dev = fixed_point_test(elem, data)
        if not dev <= FIXED_POINT_TOL:
            raise ValueError(f"{name} is not a fixed point (deviation {dev:.3e})")
    lhs = I_map(crossed_conv(a, b))
    rhs = rieffel_product_finite(I_map(a), I_map(b), data.e, data.t)
    return lhs.linf_distance(rhs)


def twisted_crossed_dual(
    a: CrossedElement, b: CrossedElement, sigma_hat: Bicharacter
) -> CrossedElement:
    """Cocycle-twisted convolution (a * b)(v) = sum_u sigma_hat(u-v, u) a(u) alpha_u[b(v-u)].

    Terms gathered for blocks of u with a(u) != 0 add from zero in u order, as in a loop."""
    a._check_same(b)
    ctx = a.context
    if sigma_hat.context != ctx:
        raise ValueError("cocycle from a different context")
    points, size, n = _points(ctx), ctx.size, ctx.uniform_modulus
    # row u holds sigma_hat(u - v, u) for every v; each rebinding frees the table before it
    phases = _exponent_table(sigma_hat, points)
    phases = (phases.diagonal()[:, None] - phases.T) % n  # Q[u, u] - Q[v, u]
    phases = np.exp(2j * np.pi * phases.astype(np.float64) / n)
    fibers_a, fibers_b = a.table.reshape(size, size), b.table.reshape(size, size)
    shifted = _translate_index(ctx, points, points)  # row u holds k -> k + u
    live, step = np.flatnonzero(fibers_a.any(axis=1)), min(size, max(1, _GATHER_LIMIT // size**2))
    # reused by every block, as take fills an out in place only in a mode other than "raise"
    buf, terms = np.empty((2, step, size, size), dtype=np.complex128)
    out = np.zeros_like(fibers_a)
    for block in np.split(live, range(step, len(live), step)):
        n = len(block)
        # buf: b(w)(k + u_i) at row w * step + i; terms: its rows w = v - u_i (row -u_i of
        # shifted), alpha_{u_i}[b(v - u_i)](k) at [i, v, k]; buf: sigma_hat(u_i - v, u_i) a(u_i)(k)
        fibers_b.take(shifted[block], axis=1, out=buf.reshape(size, step, size)[:, :n], mode="wrap")
        rows = shifted[shifted[block].argmin(axis=1)] * step + np.arange(n)[:, None]
        buf.reshape(-1, size).take(rows, axis=0, out=terms[:n], mode="wrap")
        np.multiply(phases[block][:, :, None], fibers_a[block][:, None, :], out=buf[:n])
        np.multiply(buf[:n], terms[:n], out=terms[:n])
        for i in range(n):  # in u order, one term at a time
            out += terms[i]
    del buf, terms  # before the element copies out
    return CrossedElement(ctx, out.reshape(a.table.shape))


def fixed_point_dimension(data: DeformedActionData) -> int:
    """Exact dimension of the spectral fixed-point subspace.

    Each surviving character of the spectral mask spans one dimension, so
    this counts the solutions (v, k) of T^T k = E v (mod N); for invertible
    T every fiber contributes exactly one.
    """
    return int(_spectral_mask(data).sum())
