"""Abelian group contexts, character pairings and exact unitary Fourier transforms.

Two kinds of context exist.  A lattice context models Z^n; its dual torus is
never discretized and enters only through character pairings, so the algebra
built on top of it carries no sampling error.  A finite context models a
product of cyclic groups Z/N_1 x ... x Z/N_n, which is self-dual and small
enough that every transform and every sum below is exact.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .modarith import checked_array, matmul_mod

__all__ = [
    "GroupContext",
    "GroupPoint",
    "FiniteVector",
    "pairing_many",
    "fourier",
]


@dataclass(frozen=True)
class GroupContext:
    """A lattice Z^rank (moduli is None) or a finite product of cyclic groups."""

    rank: int
    moduli: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "rank", operator.index(self.rank))
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.moduli is not None:
            moduli = tuple(operator.index(m) for m in self.moduli)
            object.__setattr__(self, "moduli", moduli)
            if len(moduli) != self.rank:
                raise ValueError(
                    f"need {self.rank} moduli, got {len(moduli)}"
                )
            if any(m < 2 for m in moduli):
                raise ValueError(f"moduli must all be >= 2, got {moduli}")

    @classmethod
    def lattice(cls, rank: int) -> "GroupContext":
        return cls(rank, None)

    @classmethod
    def finite(cls, moduli: int | Sequence[int]) -> "GroupContext":
        """Finite context; ``finite(5)`` is Z/5, ``finite([4, 4])`` is (Z/4)^2.

        One modulus is any value ``operator.index`` reads, ``np.int64(5)`` too."""
        try:
            moduli = (operator.index(moduli),)
        except TypeError:  # a sequence of moduli
            moduli = tuple(moduli)
        return cls(len(moduli), moduli)

    @property
    def is_finite(self) -> bool:
        return self.moduli is not None

    @property
    def size(self) -> int:
        """Number of group elements (finite mode only)."""
        if self.moduli is None:
            raise ValueError("lattice context has no finite size")
        return math.prod(self.moduli)

    @property
    def norm_const(self) -> float:
        """The measure constant |V|^(-1/2) making the Fourier transform unitary."""
        return self.size ** -0.5

    @property
    def uniform_modulus(self) -> int:
        """Common modulus N when all moduli agree (finite mode only)."""
        if self.moduli is None:
            raise ValueError("lattice context has no modulus")
        if len(set(self.moduli)) != 1:
            raise ValueError(f"moduli {self.moduli} are not uniform")
        return self.moduli[0]

    def point(self, *coords: int) -> "GroupPoint":
        if len(coords) == 1 and isinstance(coords[0], (tuple, list, np.ndarray)):
            coords = tuple(coords[0])
        return GroupPoint(self, tuple(coords))

    def points(self) -> Iterator["GroupPoint"]:
        """All group elements in lexicographic order (finite mode only)."""
        if self.moduli is None:
            raise ValueError("cannot enumerate a lattice context")
        for coords in _points(self).tolist():
            yield GroupPoint(self, tuple(coords))


@dataclass(frozen=True)
class GroupPoint:
    """Integer coordinate vector in a context; reduced mod moduli when finite."""

    context: GroupContext
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        coords = tuple(operator.index(c) for c in self.coords)
        if len(coords) != self.context.rank:
            raise ValueError(
                f"point of length {len(coords)} in rank-{self.context.rank} context"
            )
        if self.context.moduli is not None:
            coords = tuple(c % m for c, m in zip(coords, self.context.moduli))
        object.__setattr__(self, "coords", coords)

    def __add__(self, other: "GroupPoint") -> "GroupPoint":
        if self.context != other.context:
            raise ValueError("group points from different contexts")
        return GroupPoint(
            self.context, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def vector(self) -> np.ndarray:
        return np.array(self.coords, dtype=np.int64)


class FiniteVector:
    """A complex function on a finite context, stored as a shaped array.

    The values come in the context's shape, or as a flat vector of |V| values
    in ``GroupContext.points`` order; any other shape is refused.
    """

    __slots__ = ("context", "values")

    def __init__(self, context: GroupContext, values: np.ndarray | Sequence) -> None:
        if not context.is_finite:
            raise ValueError("FiniteVector requires a finite context")
        arr = checked_array(values, "FiniteVector", np.complex128)
        shape, flat = tuple(context.moduli), (context.size,)
        if arr.shape == flat:
            arr = arr.reshape(shape)  # a view, so read-only too
        elif arr.shape != shape:
            raise ValueError(f"FiniteVector shape {arr.shape} is neither {shape} nor flat {flat}")
        self.context = context
        self.values = arr

    def linf_distance(self, other: "FiniteVector") -> float:
        if self.context != other.context:
            raise ValueError("finite vectors from different contexts")
        return float(np.max(np.abs(self.values - other.values)))

    def __repr__(self) -> str:
        return f"FiniteVector({self.context.moduli}, {self.values!r})"


def pairing_many(ctx: GroupContext, coords, xi) -> np.ndarray:
    """Character pairing, a unit complex number biadditive in both slots, of
    every row u of an int coordinate array with one xi.  Finite mode pairs
    group points: exp(2 pi i sum u_j xi_j / N_j).  Lattice mode pairs with a
    torus point, a real vector t in [0, 1)^rank: exp(2 pi i sum u_j t_j).
    ``checked_array`` reads the rows exactly, as integers of shape (k, rank) (1.5
    is refused, never truncated), and a torus point as finite reals, never text.
    """
    coords = checked_array(coords, "coordinates", np.int64)
    if coords.ndim != 2 or coords.shape[1] != ctx.rank:
        raise ValueError(
            f"need coordinate rows of shape (k, {ctx.rank}), got {coords.shape}"
        )
    if ctx.is_finite:
        if not isinstance(xi, GroupPoint) or xi.context != ctx:
            raise ValueError("second argument does not belong to the context")
        # sum_j u_j xi_j / N_j is (sum_j u_j xi_j L / N_j mod L) / L for L the
        # lcm of the moduli; reducing exactly keeps the angle in [0, 1)
        period = math.lcm(*ctx.moduli)
        weights = np.array(
            [x * (period // m) for x, m in zip(xi.coords, ctx.moduli)], dtype=object
        )
        angle = matmul_mod(coords, weights, period).astype(np.float64) / period
    else:
        t = checked_array(xi, "torus point", np.float64)
        if t.shape != (ctx.rank,):
            raise ValueError(
                f"torus point of shape {t.shape} in rank-{ctx.rank} context"
            )
        angle = (coords * t).sum(axis=1)
    return np.exp(2j * np.pi * angle)


def fourier(f: FiniteVector) -> FiniteVector:
    """Unitary transform f_hat(v) = |V|^(-1/2) sum_xi <v, xi> f(xi).

    Applied twice it is the reflection f(v) -> f(-v), so applying it three
    more times inverts it.
    """
    size = f.context.size
    return FiniteVector(f.context, np.fft.ifftn(f.values) * math.sqrt(size))


def _points(ctx: GroupContext) -> np.ndarray:
    """All points of a finite context as int64 rows of shape (|V|, rank), in
    lexicographic order; ``GroupContext.points`` and the finite kernels read them."""
    return np.indices(ctx.moduli, dtype=np.int64).reshape(ctx.rank, -1).T
