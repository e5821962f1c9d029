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

Every product runs through one kernel, ``_convolve``, which takes a batch of
operand pairs; ``star`` and the other public products are batches of one,
and ``_star_batch`` twists a whole batch, each member by its own cocycle or
all by one.  Batched distances subtract through one ``_collect`` call.
``_collect`` sorts stably by (member, point), starts each coefficient from
its first term and adds the rest in row order (a one-row batch skips the
sort), so a member's coefficients are bit for bit those of the member run
alone, and batching changes speed only.  The kernel sorts at most
``_TERM_BUDGET`` pair terms at once, which bounds its memory whatever the
batch.  Callers that check an identity keep its two sides in separate
batches: batching never merges two routes into one accumulation.  Every
element built from caller data takes one route, ``FourierElement._from_rows``,
of which the mapping constructor and ``from_arrays`` are batches of one: it
reads coordinates exactly (1.5 is refused, never truncated) and values as
numbers by ``modarith.read_numbers``, a coordinate out of range raises the
range error, and rows the library computed go straight to ``_collect``.
"""

from __future__ import annotations

import numbers
from itertools import accumulate
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .abelian import FiniteVector, GroupContext, GroupPoint, _point_pairs, _points, pairing_many
from .cocycles import Bicharacter, LinearMap, SkewForm, is_nondegenerate
from .modarith import read_numbers

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
    "rieffel_product_finite",
]

SEMICLASSICAL_SCALE = 1.0 / (4.0 * np.pi)
# Lattice coordinates stay below this in magnitude, so the sum of two never
# overflows int64 and an out-of-range product is reported, not wrapped.
_COORD_LIMIT = 2**31
_RANGE_MESSAGE = "lattice coordinates must stay below 2**31 in magnitude"
# Pair terms the kernel sorts at once.  A term of a rank-2 product holds about
# 240 bytes of index, coordinate, phase and sort arrays at the peak, so a
# chunk stays near half a megabyte whatever the batch.
_TERM_BUDGET = 2048


class FourierElement:
    """Finitely supported map from a (dual) group into the complex numbers.

    Stored as two read-only arrays: ``coords``, the support points as int64
    rows of shape (k, rank), reduced mod the moduli in finite contexts and
    sorted lexicographically, and ``values``, their nonzero complex128
    coefficients.  ``coeffs`` is the same data as a read-only mapping from
    :class:`GroupPoint`, in the same order, built anew on each access.  Built
    from caller data (a mapping, ``from_arrays`` or a batch), it takes
    ``_from_rows``: exact coordinates, numeric values, a named range error.
    """

    __slots__ = ("context", "coords", "values")

    def __init__(
        self, context: GroupContext, coeffs: Mapping[GroupPoint, complex]
    ) -> None:
        if any(point.context != context for point in coeffs):
            raise ValueError("support point from a different context")
        rows = [point.coords for point in coeffs]
        (built,) = self._from_rows(context, rows, list(coeffs.values()))
        self._assign(context, built.coords, built.values)

    def _assign(
        self, context: GroupContext, coords: np.ndarray, values: np.ndarray
    ) -> None:
        """Set the fields from sorted distinct coords, dropping exact zeros."""
        if np.count_nonzero(values) != len(values):
            keep = values != 0
            coords, values = coords[keep], values[keep]
        coords.flags.writeable = False
        values.flags.writeable = False
        self.context = context
        self.coords = coords
        self.values = values

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
        return cls._from_rows(context, coords, values)[0]

    @classmethod
    def _from_rows(
        cls, context: GroupContext, coords, values, counts=None
    ) -> list["FourierElement"]:
        """Elements from a batch of caller rows, through one ``_collect``.

        The first counts[0] rows make member 0, the next counts[1] member 1,
        and so on (without ``counts``, all rows make one member).  Members
        never merge, and each is bit for bit ``from_arrays`` of its own rows.
        Coordinates and values are read into fresh copies (see the module docstring).
        """
        try:
            coords = read_numbers(coords, "coordinates", np.int64)
        except OverflowError:
            limit = "coordinates must fit in int64" if context.is_finite else _RANGE_MESSAGE
            raise ValueError(limit) from None
        values = read_numbers(values, "coefficient values", np.complex128)
        if not coords.size:  # no rows, as from an empty mapping
            coords = coords.reshape(0, context.rank)
        if values.ndim != 1 or coords.shape != (len(values), context.rank):
            raise ValueError(
                f"need coords of shape ({len(values)}, {context.rank}) for "
                f"{len(values)} values, got {coords.shape}"
            )
        return _collect(context, coords, values, counts)

    @classmethod
    def delta(cls, point: GroupPoint, value: complex = 1.0) -> "FourierElement":
        return cls(point.context, {point: value})

    @property
    def coeffs(self) -> Mapping[GroupPoint, complex]:
        points = (GroupPoint(self.context, tuple(c)) for c in self.coords.tolist())
        return MappingProxyType(dict(zip(points, self.values.tolist())))

    def coeff(self, point: GroupPoint) -> complex:
        return self.coeffs.get(point, 0j)

    def support_radius(self) -> int:
        """Largest coordinate magnitude over the support (0 for the zero element)."""
        return int(np.abs(self.coords).max(initial=0))

    def __sub__(self, other: "FourierElement") -> "FourierElement":
        return _differences([(self, other)])[0]

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

    def linf_distance(self, other: "FourierElement") -> float:
        return _linf_distances([(self, other)])[0]

    def __repr__(self) -> str:
        items = ", ".join(
            f"{tuple(c)}: {v}"
            for c, v in zip(self.coords.tolist(), self.values.tolist())
        )
        return f"FourierElement({{{items}}})"


_Weight = Callable[[np.ndarray, np.ndarray], np.ndarray]
_Pairs = Sequence[tuple[FourierElement, FourierElement]]


def _collect(
    ctx: GroupContext, coords: np.ndarray, values: np.ndarray, counts=None
) -> list[FourierElement]:
    """Sum the values at each distinct point into one element per batch member.

    The first counts[0] rows belong to member 0, the next counts[1] to member
    1, and so on (without ``counts``, all rows are one member).  A stable sort
    by (member, coords) keeps each point's terms in row order and members
    apart.  Each coefficient starts from its point's first term, and the
    unbuffered ``np.add.at`` adds the rest in row order, so it is the
    left-to-right sum of its terms whatever the batch around it, and a lone
    term keeps its bits (a -0.0 part too).  A batch of at most one row is
    summed and sorted already, so it skips the sort, which one-row elements
    built in bulk would otherwise each pay for.
    """
    if ctx.is_finite:
        coords = coords % np.array(ctx.moduli)
    elif len(values) and not (
        -_COORD_LIMIT < coords.min() and coords.max() < _COORD_LIMIT
    ):
        raise ValueError(_RANGE_MESSAGE)
    if counts is None:
        counts = [len(values)]
    bounds = [0, *accumulate(counts)]
    if len(values) > 1:
        keys = np.column_stack((np.arange(len(counts)).repeat(counts), coords))
        order = np.lexsort(keys.T[::-1])
        keys, values = keys[order], values[order]
        starts = np.concatenate(([True], np.any(keys[1:] != keys[:-1], axis=1)))
        summed = values[starts]
        np.add.at(summed, np.cumsum(starts)[~starts] - 1, values[~starts])
        coords, values = keys[starts, 1:], summed
        bounds = [0, *accumulate(np.bincount(keys[starts, 0], minlength=len(counts)).tolist())]
    return [
        FourierElement._wrap(ctx, coords[lo:hi], values[lo:hi])
        for lo, hi in zip(bounds, bounds[1:])
    ]


def _batch_context(pairs: _Pairs) -> GroupContext | None:
    """The one context of every element in the pairs (None when there are none)."""
    ctx = pairs[0][0].context if pairs else None
    for a, b in pairs:
        if not (a.context is ctx is b.context or a.context == ctx == b.context):
            raise ValueError("elements from different contexts")
    return ctx


def _convolve(pairs: _Pairs, weight: _Weight | Sequence[_Weight]) -> list[FourierElement]:
    """sum_{p1+p2=p} a(p1) b(p2) weight(p1, p2) for every pair (a, b), as one batch.

    ``weight`` maps coordinate arrays (p1, p2) to one weight per row; it is
    one callable for the whole batch or a sequence of one per pair.  Members
    run in chunks of at most ``_TERM_BUDGET`` pair terms (a larger member runs
    alone), and every member's coefficients come out bit for bit as if it had
    run alone: its terms keep their i-major pair order and its phases are
    evaluated row by row.
    """
    ctx = _batch_context(pairs)
    shared = callable(weight)
    if not shared and len(weight) != len(pairs):
        raise ValueError(f"need one weight per pair, got {len(weight)} for {len(pairs)}")
    sizes = [len(a.values) * len(b.values) for a, b in pairs]
    out: list[FourierElement] = []
    start = 0
    while start < len(pairs):
        stop, total = start + 1, sizes[start]
        while stop < len(pairs) and total + sizes[stop] <= _TERM_BUDGET:
            total += sizes[stop]
            stop += 1
        chunk, counts = pairs[start:stop], sizes[start:stop]
        bounds = [0, *accumulate(counts)]
        n_b = [len(b.values) for _, b in chunk]
        operands = [a for a, _ in chunk] + [b for _, b in chunk]
        rows = [0, *accumulate(len(e.values) for e in operands)]
        coords = np.concatenate([e.coords for e in operands])
        values = np.concatenate([e.values for e in operands])
        # term k of member m is pair divmod(k - bounds[m], n_b[m]) of m; the
        # shifts move i and j to m's a and b rows in the concatenated operands
        shift, n_b_m, b_row = np.array([
            [nb * row - lo for nb, row, lo in zip(n_b, rows, bounds)],
            n_b,
            rows[len(chunk):-1],
        ]).repeat(counts, axis=1)
        i, j = np.divmod(np.arange(total) + shift, n_b_m)
        j += b_row
        x, y = coords[i], coords[j]
        if shared:
            w = weight(x, y)
        else:
            w = np.concatenate([
                fn(x[lo:hi], y[lo:hi])
                for fn, lo, hi in zip(weight[start:stop], bounds, bounds[1:])
            ])
        terms = values[i] * values[j] * w
        out += _collect(ctx, x + y, terms, counts)
        start = stop
    return out


def _differences(pairs: _Pairs) -> list[FourierElement]:
    """x + (-1) y for every pair (x, y), as one batch."""
    ctx = _batch_context(pairs)
    if not pairs:
        return []
    coords = np.concatenate([c for x, y in pairs for c in (x.coords, y.coords)])
    values = np.concatenate([v for x, y in pairs for v in (x.values, y.values * complex(-1.0))])
    counts = [len(x.values) + len(y.values) for x, y in pairs]
    return _collect(ctx, coords, values, counts)


def _l1_distances(pairs: _Pairs) -> list[float]:
    """||x - y||_1 for every pair (x, y), from one batched subtraction."""
    return [d.l1_norm() for d in _differences(pairs)]


def _linf_distances(pairs: _Pairs) -> list[float]:
    """max |x - y| for every pair (x, y) (0 where x = y), from one batched subtraction."""
    return [float(np.abs(d.values).max(initial=0.0)) for d in _differences(pairs)]


def _star_batch(
    pairs: _Pairs, sigma: Bicharacter | Sequence[Bicharacter]
) -> list[FourierElement]:
    """``star`` for every pair (a, b), as one batch.

    ``sigma`` is one cocycle for the whole batch or a sequence of one per
    pair; each member is twisted by its own cocycle's ``eval_many``.
    """
    shared = isinstance(sigma, Bicharacter)
    # a shared cocycle is checked against the first pair; the kernel checks
    # that every element shares that pair's context
    sigmas = [sigma] if shared else sigma
    if any(s.context != a.context for s, (a, _) in zip(sigmas, pairs)):
        raise ValueError("cocycle from a different context")
    return _convolve(pairs, sigma.eval_many if shared else [s.eval_many for s in sigmas])


def star(a: FourierElement, b: FourierElement, sigma: Bicharacter) -> FourierElement:
    """Twisted convolution (a * b)(p) = sum_{p1+p2=p} a(p1) b(p2) sigma(p1, p2)."""
    return _star_batch([(a, b)], sigma)[0]


def involution(a: FourierElement, sigma: Bicharacter) -> FourierElement:
    """a*(p) = sigma(p, p) conj(a(-p)); involutive for any unimodular cocycle."""
    if sigma.context != a.context:
        raise ValueError("cocycle from a different context")
    q = -a.coords
    return _collect(a.context, q, sigma.eval_many(q, q) * np.conj(a.values))[0]


def poisson_bracket(
    a: FourierElement, b: FourierElement, gamma: SkewForm
) -> FourierElement:
    """{a, b}(p) = -4 pi^2 sum_{p1+p2=p} a(p1) b(p2) gamma(p1, p2); lattice only."""
    if a.context.is_finite:
        raise ValueError("the bracket is defined on lattice contexts only")
    if gamma.rank != a.context.rank:
        raise ValueError("skew form rank does not match context")
    factor = -4.0 * np.pi**2
    return _convolve([(a, b)], lambda x, y: factor * gamma.eval_many(x, y))[0]


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
    """Pointwise product cocycle: exponent matrices add (hbar is None in finite mode)."""
    if sigma1.context != sigma2.context:
        raise ValueError("cocycles from different contexts")
    if sigma1.hbar != sigma2.hbar:
        raise ValueError("composing lattice cocycles with different hbar")
    return Bicharacter(sigma1.context, sigma1.matrix + sigma2.matrix, sigma1.hbar)


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
    (rhs,) = _convolve(
        [(a, b)], lambda x, y: sigma2.eval_many(x, y) * sigma1.eval_many(x, y)
    )
    return lhs.linf_distance(rhs)


def translate(a: FourierElement, v) -> FourierElement:
    """Translation automorphism: coefficient at p is multiplied by the pairing of p and v."""
    return FourierElement._wrap(
        a.context, a.coords, a.values * pairing_many(a.context, a.coords, v)
    )


def _automorphism_deviations(
    pairs: _Pairs, sigmas: Sequence[Bicharacter], vs: Sequence
) -> list[float]:
    """Deviation of translate(a) * translate(b) from translate(a * b), the
    twist and translation given per pair; each side's products in one batch."""
    lhs = _star_batch(
        [(translate(a, v), translate(b, v)) for (a, b), v in zip(pairs, vs)], sigmas
    )
    rhs = map(translate, _star_batch(pairs, sigmas), vs)
    return _linf_distances(list(zip(lhs, rhs)))


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
    coords = _points(ctx)
    size, moduli = len(coords), np.array(ctx.moduli)

    def gather(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Row i, column v holds values(v + offsets[i])."""
        index = (coords[None, :, :] + offsets[:, None, :]) % moduli
        return values[tuple(np.moveaxis(index, -1, 0))]

    phases = e.eval_many(*_point_pairs(coords))
    b_shift = gather(b.values, coords)  # (w, v): b(v + w)
    a_shift = gather(a.values, -(coords @ t.matrix.T))  # (u, v): a(v - T u)
    out = (a_shift * (phases.reshape(size, size) @ b_shift)).sum(axis=0)
    return FiniteVector(ctx, out.reshape(tuple(ctx.moduli)) * ctx.norm_const)
