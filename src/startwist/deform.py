"""Star products on finitely supported Fourier coefficients.

Convention constants (the single place both live):

``HBAR`` scaling.  A skew form G with deformation scalar hbar twists the
convolution through the unimodular phase sigma_hbar(p, q) = exp(-i pi hbar
p.G q).  Written with a real exponent instead, the same family would not be
unimodular and the semiclassical limit below would miss by a constant; the
scaling here is equivalent to reparametrising that variant by hbar -> 4 pi
hbar.

``SEMICLASSICAL_SCALE`` = 1 / (4 pi).  With the phase convention above and
the bracket {a, b}(p) = -4 pi^2 sum_{p1+p2=p} a(p1) b(p2) G(p1, p2), the
defect norm || (a *_hbar b - a *_0 b) / (i hbar) - SCALE {a, b} || vanishes
linearly in hbar; for a single pair of deltas it equals
|(exp(-i pi hbar g) - 1) / (i hbar) + pi g| with g = G(p, q).

Products are exact finite sums; nothing inside the algebra is truncated.
Only coefficients that are exactly zero are dropped, so scaling an element by
any nonzero scalar keeps its support.
"""

from __future__ import annotations

import numbers
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .abelian import FiniteVector, GroupContext, GroupPoint, pairing_many
from .cocycles import Bicharacter, LinearMap, SkewForm, is_nondegenerate

__all__ = [
    "SEMICLASSICAL_SCALE",
    "FourierElement",
    "star",
    "involution",
    "poisson_bracket",
    "semiclassical_defect",
    "compose_cocycles",
    "iterated_star_check",
    "translate",
    "automorphism_check",
    "rieffel_product_finite",
]

SEMICLASSICAL_SCALE = 1.0 / (4.0 * np.pi)
# Lattice coordinates stay below this in magnitude, so the sum of two never
# overflows int64 and an out-of-range product is reported, not wrapped.
_COORD_LIMIT = 2**31
_RANGE_MESSAGE = "lattice coordinates must stay below 2**31 in magnitude"


class FourierElement:
    """Finitely supported map from a (dual) group into the complex numbers.

    Stored as two read-only arrays: ``coords``, the support points as int64
    rows of shape (k, rank), reduced mod the moduli in finite contexts and
    sorted lexicographically, and ``values``, their nonzero complex128
    coefficients.  ``coeffs`` is the same data as a read-only mapping from
    :class:`GroupPoint`, in the same order, built on first access.
    """

    __slots__ = ("context", "coords", "values", "_coeffs")

    def __init__(
        self, context: GroupContext, coeffs: Mapping[GroupPoint, complex]
    ) -> None:
        points = list(coeffs)
        if any(point.context != context for point in points):
            raise ValueError("support point from a different context")
        try:
            coords = np.array([point.coords for point in points], dtype=np.int64)
        except OverflowError:
            raise ValueError(_RANGE_MESSAGE) from None
        coords = coords.reshape(len(points), context.rank)
        values = np.array([complex(v) for v in coeffs.values()], dtype=np.complex128)
        self._assign(context, *_collect(context, coords, values))

    def _assign(
        self, context: GroupContext, coords: np.ndarray, values: np.ndarray
    ) -> None:
        """Set the fields from sorted distinct coords, dropping exact zeros."""
        if not values.all():
            keep = values != 0
            coords, values = coords[keep], values[keep]
        coords.flags.writeable = False
        values.flags.writeable = False
        self.context = context
        self.coords = coords
        self.values = values
        self._coeffs = None

    @classmethod
    def _wrap(
        cls, context: GroupContext, coords: np.ndarray, values: np.ndarray
    ) -> "FourierElement":
        out = cls.__new__(cls)
        out._assign(context, coords, values)
        return out

    @classmethod
    def from_arrays(cls, context: GroupContext, coords, values) -> "FourierElement":
        """Element from int coordinate rows of shape (k, rank) and k values.

        Values at repeated points are added in row order; finite coordinates
        are reduced mod the moduli.
        """
        coords = np.array(coords, dtype=np.int64)
        values = np.array(values, dtype=np.complex128)
        if values.ndim != 1 or coords.shape != (len(values), context.rank):
            raise ValueError(
                f"need coords of shape ({len(values)}, {context.rank}) for "
                f"{len(values)} values, got {coords.shape}"
            )
        return cls._wrap(context, *_collect(context, coords, values))

    @classmethod
    def zero(cls, context: GroupContext) -> "FourierElement":
        return cls(context, {})

    @classmethod
    def delta(cls, point: GroupPoint, value: complex = 1.0) -> "FourierElement":
        return cls(point.context, {point: value})

    @property
    def coeffs(self) -> Mapping[GroupPoint, complex]:
        if self._coeffs is None:
            ctx = self.context
            self._coeffs = MappingProxyType({
                GroupPoint(ctx, tuple(c)): v
                for c, v in zip(self.coords.tolist(), self.values.tolist())
            })
        return self._coeffs

    @property
    def support(self) -> list[GroupPoint]:
        return list(self.coeffs)

    def coeff(self, point: GroupPoint) -> complex:
        return self.coeffs.get(point, 0j)

    def support_radius(self) -> int:
        """Largest coordinate magnitude over the support (0 for the zero element)."""
        return int(np.abs(self.coords).max(initial=0))

    def _check_same(self, other: "FourierElement") -> None:
        if self.context != other.context:
            raise ValueError("elements from different contexts")

    def __add__(self, other: "FourierElement") -> "FourierElement":
        self._check_same(other)
        return FourierElement.from_arrays(
            self.context,
            np.concatenate([self.coords, other.coords]),
            np.concatenate([self.values, other.values]),
        )

    def __sub__(self, other: "FourierElement") -> "FourierElement":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "FourierElement":
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return FourierElement._wrap(
            self.context, self.coords, self.values * complex(scalar)
        )

    __rmul__ = __mul__

    def __truediv__(self, scalar: complex) -> "FourierElement":
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        if scalar == 0:
            raise ZeroDivisionError("division of an element by zero")
        return FourierElement._wrap(
            self.context, self.coords, self.values / complex(scalar)
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FourierElement)
            and self.context == other.context
            and np.array_equal(self.coords, other.coords)
            and np.array_equal(self.values, other.values)
        )

    def l1_norm(self) -> float:
        return float(np.abs(self.values).sum())

    def l1_distance(self, other: "FourierElement") -> float:
        return (self - other).l1_norm()

    def linf_distance(self, other: "FourierElement") -> float:
        return float(np.abs((self - other).values).max(initial=0.0))

    def __repr__(self) -> str:
        items = ", ".join(
            f"{tuple(c)}: {v}"
            for c, v in zip(self.coords.tolist(), self.values.tolist())
        )
        return f"FourierElement({{{items}}})"


def _collect(
    ctx: GroupContext, coords: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sum the values at each distinct point and sort the points lexicographically.

    ``bincount`` adds its weights in index order, so every output coefficient
    is accumulated in the order its terms appear in ``values``.
    """
    if ctx.is_finite:
        coords = coords % np.array(ctx.moduli)
    elif len(values) and not (
        -_COORD_LIMIT < coords.min() and coords.max() < _COORD_LIMIT
    ):
        raise ValueError(_RANGE_MESSAGE)
    if len(values) < 2:
        return coords, values
    order = np.lexsort(coords.T[::-1])
    coords = coords[order]
    starts = np.empty(len(order), dtype=bool)
    starts[0] = True
    np.any(coords[1:] != coords[:-1], axis=1, out=starts[1:])
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    n = int(inverse.max()) + 1
    summed = np.empty(n, dtype=np.complex128)
    summed.real = np.bincount(inverse, values.real, n)
    summed.imag = np.bincount(inverse, values.imag, n)
    return coords[starts], summed


def _convolve(
    a: FourierElement,
    b: FourierElement,
    weight: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> FourierElement:
    """sum_{p1+p2=p} a(p1) b(p2) weight(p1, p2), over every pair of support points."""
    a._check_same(b)
    i, j = np.divmod(np.arange(len(a.values) * len(b.values)), len(b.values))
    x, y = a.coords[i], b.coords[j]
    terms = a.values[i] * b.values[j] * weight(x, y)
    return FourierElement.from_arrays(a.context, x + y, terms)


def star(a: FourierElement, b: FourierElement, sigma: Bicharacter) -> FourierElement:
    """Twisted convolution (a * b)(p) = sum_{p1+p2=p} a(p1) b(p2) sigma(p1, p2)."""
    if sigma.context != a.context:
        raise ValueError("cocycle from a different context")
    return _convolve(a, b, sigma.eval_many)


def involution(a: FourierElement, sigma: Bicharacter) -> FourierElement:
    """a*(p) = sigma(p, p) conj(a(-p)); involutive for any unimodular cocycle."""
    if sigma.context != a.context:
        raise ValueError("cocycle from a different context")
    q = -a.coords
    values = sigma.eval_many(q, q) * np.conj(a.values)
    return FourierElement.from_arrays(a.context, q, values)


def poisson_bracket(
    a: FourierElement, b: FourierElement, gamma: SkewForm
) -> FourierElement:
    """{a, b}(p) = -4 pi^2 sum_{p1+p2=p} a(p1) b(p2) gamma(p1, p2); lattice only."""
    a._check_same(b)
    if a.context.is_finite:
        raise ValueError("the bracket is defined on lattice contexts only")
    if gamma.rank != a.context.rank:
        raise ValueError("skew form rank does not match context")
    factor = -4.0 * np.pi**2
    return _convolve(a, b, lambda x, y: factor * gamma.eval_many(x, y))


def semiclassical_defect(
    a: FourierElement,
    b: FourierElement,
    gamma: SkewForm,
    hbar: float,
    window,
) -> float:
    """Norm of (a *_hbar b - a *_0 b) / (i hbar) - SCALE {a, b} at a window.

    The norm is the operator-norm window estimate taken in the hbar-twisted
    representation.  Vanishes linearly in hbar; see the module docstring for
    the convention constants.
    """
    from . import norms

    if hbar == 0:
        raise ValueError("semiclassical defect needs hbar != 0")
    sigma_h = Bicharacter.from_skew(a.context, gamma, hbar)
    sigma_0 = Bicharacter.trivial(a.context)
    commutative = star(a, b, sigma_0)
    deformed = star(a, b, sigma_h)
    defect = (deformed - commutative) / (1j * hbar) - SEMICLASSICAL_SCALE * poisson_bracket(a, b, gamma)
    return norms.op_norm_estimate(defect, sigma_h, window)


def compose_cocycles(sigma1: Bicharacter, sigma2: Bicharacter) -> Bicharacter:
    """Pointwise product cocycle: exponent matrices add."""
    if sigma1.context != sigma2.context:
        raise ValueError("cocycles from different contexts")
    if sigma1.context.is_finite:
        return Bicharacter(sigma1.context, sigma1.matrix + sigma2.matrix)
    if sigma1.hbar != sigma2.hbar:
        raise ValueError("composing lattice cocycles with different hbar")
    return Bicharacter(sigma1.context, sigma1.matrix + sigma2.matrix, hbar=sigma1.hbar)


def iterated_star_check(
    a: FourierElement,
    b: FourierElement,
    sigma1: Bicharacter,
    sigma2: Bicharacter,
) -> float:
    """Deviation between the composed-cocycle product and the iterated twist.

    Twisting the sigma1-algebra a second time multiplies its structure
    constants by sigma2, so the iterated route is one convolution weighted by
    sigma2(p1, p2) * sigma1(p1, p2), each cocycle evaluated on its own.  It
    never forms the composed cocycle, so the check compares exponent addition
    against phase multiplication.
    """
    lhs = star(a, b, compose_cocycles(sigma1, sigma2))
    rhs = _convolve(
        a, b, lambda x, y: sigma2.eval_many(x, y) * sigma1.eval_many(x, y)
    )
    return lhs.linf_distance(rhs)


def translate(a: FourierElement, v) -> FourierElement:
    """Translation automorphism: coefficient at p is multiplied by pairing(p, v)."""
    return FourierElement._wrap(
        a.context, a.coords, a.values * pairing_many(a.context, a.coords, v)
    )


def automorphism_check(
    a: FourierElement, b: FourierElement, sigma: Bicharacter, v
) -> float:
    """Deviation of translate(a) * translate(b) from translate(a * b)."""
    lhs = star(translate(a, v), translate(b, v), sigma)
    rhs = translate(star(a, b, sigma), v)
    return lhs.linf_distance(rhs)


def rieffel_product_finite(
    a: FiniteVector, b: FiniteVector, e: Bicharacter, t: LinearMap
) -> FiniteVector:
    """Double-sum deformed product on functions over a finite group.

    (a . b)(v) = |V|^{-1/2} sum_{u,w} e(u, w) a(v - T u) b(v + w), i.e. the
    first factor is translated through the adjoint direction -T, which under
    the standing hypotheses (antisymmetric twist, symmetric e) is exactly the
    e-adjoint of T.  The measure weight |V|^{-1/2} is the context's
    ``norm_const``; it is the unique weight for which, with T = sigma^1 o e^1,
    the product intertwines exactly with the twisted convolution through the
    unitary Fourier transform *and* makes the fiber-averaging map of the
    crossed-product model multiplicative.  The matched convolution cocycle is
    the slot transpose of sigma; the two coincide whenever the exponent
    matrix is symmetric, which covers every verification context shipped
    here.  For the trivial twist (T = 0) the double sum collapses to
    |V|^{1/2} times the pointwise product.
    """
    ctx = a.context
    if b.context != ctx or e.context != ctx:
        raise ValueError("arguments from different contexts")
    if t.modulus != ctx.uniform_modulus or t.rank != ctx.rank:
        raise ValueError("translation map does not match the context")
    if not is_nondegenerate(e):
        raise ValueError("e is degenerate")
    coords = np.array([p.coords for p in ctx.points()])
    size, moduli = len(coords), np.array(ctx.moduli)

    def gather(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Row i, column v holds values(v + offsets[i])."""
        index = (coords[None, :, :] + offsets[:, None, :]) % moduli
        return values[tuple(np.moveaxis(index, -1, 0))]

    phases = e.eval_many(np.repeat(coords, size, axis=0), np.tile(coords, (size, 1)))
    b_shift = gather(b.values, coords)  # (w, v): b(v + w)
    a_shift = gather(a.values, -(coords @ t.matrix.T))  # (u, v): a(v - T u)
    out = (a_shift * (phases.reshape(size, size) @ b_shift)).sum(axis=0)
    return FiniteVector(ctx, out.reshape(tuple(ctx.moduli)) * ctx.norm_const)
