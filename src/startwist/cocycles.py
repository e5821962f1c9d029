"""Bicharacters and 2-cocycles on dual groups.

Cocycles are kept in exponent (bicharacter) normal form throughout: a real
matrix with a deformation scalar in lattice mode, an integer matrix mod N in
finite mode.  Arbitrary phase tables appear only as counterexamples in tests.
Cohomology equivalence is decided on exponent matrices (symmetric difference),
not by searching for a trivializing phase.  The slot-one map, and with it
nondegeneracy and T, exists in finite mode only: a ``LinearMap`` is a square
matrix mod N.  Every stored matrix, and hbar, is read by ``modarith.read_numbers``.

The antisymmetric representative is produced by taking the matrix skew part.
On groups where halving is available the same class representative can be
written as a quotient of shifted cocycle values; the matrix realization used
here is the finite-support analogue and needs 2 invertible in finite mode.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .abelian import GroupContext, GroupPoint
from .modarith import checked_array, det_int, matmul_mod, read_numbers

__all__ = [
    "SkewForm",
    "Bicharacter",
    "LinearMap",
    "antisymmetrize",
    "cohomologous_check",
    "sigma_one",
    "is_nondegenerate",
    "T_map",
]


def _quadratic(xs, matrix: np.ndarray, ys) -> np.ndarray:
    """Row-wise x . M y for coordinate arrays of shape (k, rank).

    einsum, not ``xs @ M``: the BLAS product of one row and of many rows can
    differ in the last bit, while this sum is taken in the same order for
    every batch size.
    """
    return np.einsum("ki,ij,kj->k", xs, matrix, ys)


@dataclass(frozen=True, eq=False)
class SkewForm:
    """An exactly skew-symmetric matrix; the infinitesimal datum of a twist."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = checked_array(self.matrix, "skew form matrix", np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("skew form matrix must be square")
        if not np.array_equal(m.T, -m):
            raise ValueError("matrix is not exactly skew-symmetric")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def standard_symplectic(cls, half_rank: int = 1) -> "SkewForm":
        """The 2n x 2n block form [[0, I], [-I, 0]]."""
        n = half_rank
        j = np.zeros((2 * n, 2 * n))
        j[:n, n:] = np.eye(n)
        j[n:, :n] = -np.eye(n)
        return cls(j)

    @property
    def rank(self) -> int:
        return self.matrix.shape[0]

    def eval_many(self, ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on coordinate arrays of shape (k, rank)."""
        return _quadratic(ps, self.matrix, qs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SkewForm) and np.array_equal(self.matrix, other.matrix)


class Bicharacter:
    """Exponent-form bicharacter cocycle on the dual group of a context.

    Lattice mode: sigma(p, q) = exp(-i pi hbar p.A q) for a real matrix A.
    Finite mode: sigma(xi, eta) = exp(2 pi i xi.B eta / N) for an integer
    matrix B, with one uniform modulus N; each phase is computed from its
    exponent, taken exactly mod N, so no table of N-th roots is stored.
    Both are unimodular and exactly multiplicative in each slot, so the
    cocycle identity holds by construction.
    """

    __slots__ = ("context", "matrix", "hbar")

    def __init__(self, context: GroupContext, matrix, hbar: float | None = None) -> None:
        self.context = context
        if context.is_finite:
            if hbar is not None:
                raise ValueError("hbar applies to lattice mode only")
            m = read_numbers(matrix, "exponent matrix", np.int64) % context.uniform_modulus
            self.hbar = None
        else:
            if hbar is None:
                raise ValueError("lattice-mode bicharacter needs hbar")
            m = checked_array(matrix, "exponent matrix", np.float64)
            hbar = read_numbers(hbar, "hbar", np.float64)
            if hbar.ndim:
                raise ValueError(f"hbar must be one number, got shape {hbar.shape}")
            self.hbar = float(hbar)
            if not math.isfinite(self.hbar):
                raise ValueError(f"hbar must be finite, got {self.hbar}")
        if m.shape != (context.rank, context.rank):
            raise ValueError(
                f"exponent matrix shape {m.shape} does not match rank {context.rank}"
            )
        m.flags.writeable = False
        self.matrix = m

    @classmethod
    def trivial(cls, context: GroupContext) -> "Bicharacter":
        hbar = None if context.is_finite else 0.0
        return cls(context, np.zeros((context.rank, context.rank), dtype=np.int64), hbar)

    @classmethod
    def from_skew(
        cls, context: GroupContext, form: SkewForm, hbar: float
    ) -> "Bicharacter":
        if form.rank != context.rank:
            raise ValueError("skew form rank does not match context")
        return cls(context, form.matrix, hbar=hbar)

    def __call__(self, xi: GroupPoint, eta: GroupPoint) -> complex:
        if xi.context != self.context or eta.context != self.context:
            raise ValueError("arguments do not belong to the bicharacter's context")
        return complex(self.eval_many((xi.coords,), (eta.coords,))[0])

    def eval_many(self, xis: np.ndarray, etas: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on coordinate arrays of shape (k, rank).

        The scalar call goes through here too, so a phase never depends on
        whether it was evaluated alone or in a batch.
        """
        if self.hbar is None:
            n = self.context.uniform_modulus
            xb = matmul_mod(xis, self.matrix, n)
            quad = matmul_mod(xb[:, None, :], np.asarray(etas)[:, :, None], n)
            return np.exp(2j * np.pi * quad[:, 0, 0].astype(np.float64) / n)
        return np.exp(-1j * np.pi * self.hbar * _quadratic(xis, self.matrix, etas))

    @property
    def effective_exponent(self) -> np.ndarray:
        """The bilinear form actually appearing in the phase (hbar folded in)."""
        if self.context.is_finite:
            return self.matrix % self.context.uniform_modulus
        return self.hbar * self.matrix

    @property
    def is_antisymmetric(self) -> bool:
        if self.context.is_finite:
            n = self.context.uniform_modulus
            return bool(np.all((self.matrix + self.matrix.T) % n == 0))
        sym = self.effective_exponent + self.effective_exponent.T
        return bool(np.max(np.abs(sym), initial=0.0) == 0.0)

    def conjugate(self) -> "Bicharacter":
        """Pointwise complex conjugate cocycle (negated exponent)."""
        return Bicharacter(self.context, -self.matrix, self.hbar)

    def __repr__(self) -> str:
        mode = "finite" if self.context.is_finite else f"lattice, hbar={self.hbar}"
        return f"Bicharacter({mode}, matrix={self.matrix.tolist()})"


@dataclass(frozen=True, eq=False)
class LinearMap:
    """A square integer matrix over Z/modulus."""

    matrix: np.ndarray
    modulus: int

    def __post_init__(self) -> None:
        # no upper cap: T_map passes the moduli of Z/10**12 cocycles
        modulus = operator.index(self.modulus)
        if not modulus >= 1:
            raise ValueError(f"linear map modulus must be at least 1, got {modulus}")
        m = read_numbers(self.matrix, "linear map matrix", np.int64) % modulus
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
            raise ValueError("linear map matrix must be square, with at least one row")
        m.flags.writeable = False
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "matrix", m)

    @property
    def rank(self) -> int:
        return self.matrix.shape[0]

    def apply_vec(self, v: np.ndarray) -> np.ndarray:
        return matmul_mod(self.matrix, v, self.modulus)

    def is_invertible(self) -> bool:
        return math.gcd(det_int(self.matrix) % self.modulus, self.modulus) == 1

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LinearMap)
            and self.modulus == other.modulus
            and np.array_equal(self.matrix, other.matrix)
        )


def _exponent_table(sigma: Bicharacter, points: np.ndarray) -> np.ndarray:
    """Exponent u.B.v mod N of sigma(u, v) at row u, column v, exact and int64 (rank (N - 1)**2
    < 2**63, as N <= |V|); ``eval_many``'s expression makes these that call's phases, bitwise."""
    n = sigma.context.uniform_modulus
    return matmul_mod(matmul_mod(points, sigma.matrix, n), points.T, n)


def antisymmetrize(sigma: Bicharacter) -> Bicharacter:
    """Replace the exponent by its skew part; the canonical class representative."""
    ctx = sigma.context
    if ctx.is_finite:
        n = ctx.uniform_modulus
        try:
            inv2 = pow(2, -1, n)
        except ValueError:
            raise ValueError(
                f"antisymmetrization needs 2 invertible mod {n}"
            ) from None
        skew = ((sigma.matrix - sigma.matrix.T) * inv2) % n
        return Bicharacter(ctx, skew)
    skew = (sigma.matrix - sigma.matrix.T) / 2.0
    return Bicharacter(ctx, skew, hbar=sigma.hbar)


def cohomologous_check(sigma1: Bicharacter, sigma2: Bicharacter) -> bool:
    """True iff the difference of effective exponents is symmetric."""
    if sigma1.context != sigma2.context:
        raise ValueError("bicharacters from different contexts")
    diff = sigma1.effective_exponent - sigma2.effective_exponent
    if sigma1.context.is_finite:
        n = sigma1.context.uniform_modulus
        return bool(np.all((diff - diff.T) % n == 0))
    return bool(np.max(np.abs(diff - diff.T), initial=0.0) <= 1e-12)


def sigma_one(sigma: Bicharacter) -> LinearMap:
    """The slot-one map xi -> sigma^1_xi as a matrix on coordinates.

    sigma(xi, .) is a character of the dual group, the point B^T xi mod N.
    Finite mode only: on a lattice context sigma(p, .) is a point of the
    dual torus, which carries no nondegenerate bicharacter.
    """
    if not sigma.context.is_finite:
        raise ValueError("the slot-one map is defined on finite contexts only")
    return LinearMap(sigma.matrix.T, sigma.context.uniform_modulus)


def is_nondegenerate(sigma: Bicharacter) -> bool:
    """True iff the slot-one map is invertible mod N (finite mode only)."""
    return sigma_one(sigma).is_invertible()


def T_map(sigma: Bicharacter, e: Bicharacter) -> LinearMap:
    """Compose the slot-one maps: T = sigma^1 o e^1, the matrix B^T E^T mod N.

    Finite mode only, as ``sigma_one`` is, and e must be nondegenerate.  For
    antisymmetric sigma and symmetric e, -T is the e-adjoint of T,
    e(-T u, w) = e(u, T w), which is why the double-sum product translates
    its first factor by -T u.
    """
    if sigma.context != e.context:
        raise ValueError("bicharacters from different contexts")
    if not is_nondegenerate(e):
        raise ValueError("e is degenerate")
    n = sigma.context.uniform_modulus
    return LinearMap(matmul_mod(sigma.matrix.T, e.matrix.T, n), n)
