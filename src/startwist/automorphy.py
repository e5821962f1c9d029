"""Cocycle tables over a finite group acting on a finite set.

A three-argument unit-modulus table tau over (group, group, space) is checked
against the twisted cocycle identity, a two-argument factor table j-hat is
checked against the coboundary identity it should trivialize, and a solver
recovers j-hat from tau by exact linear algebra over Z/M on exponent tables.
The transform U(k): x -> j-hat(k, k^{-1} x) converts a valid factor into a
family satisfying the product identity used by the deformation machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modarith import check_modulus, checked_array, solve_mod_system

__all__ = [
    "GammaAction",
    "TauCocycle",
    "AutomorphyFactor",
    "tau_cocycle_check",
    "automorphy_check",
    "coboundary",
    "solve_automorphy",
    "u_transform",
    "u_cocycle_check",
]

_UNIT_TOL = 1e-9
_COCYCLE_TOL = 1e-9
# Validating a group reads tables of order**2 * max(order, points) entries;
# 2**21 of them (Z/128) take about 45 ms and 35 MB on one Xeon core.
_TABLE_LIMIT = 2**21
# Solving reads a dense system of rows times unknowns; 2**20 entries (Z/2 on
# 418 points, 1254 x 836) take about 1 s and 32 MB on one Xeon core.  Time also
# grows with the rank: Z/32 on itself, 1 081 344 entries, takes 2.7 s.
_SYSTEM_LIMIT = 2**20


@dataclass(frozen=True, eq=False)
class GammaAction:
    """A finite group (multiplication table) acting on a finite set.

    Elements are 0..order-1; ``mul[g, h]`` is the product, ``act[g, x]`` the
    image of x.  Group and action axioms are verified exhaustively on
    construction, so a group whose tables pass 2**21 entries is refused.
    """

    mul: np.ndarray
    act: np.ndarray

    def __post_init__(self) -> None:
        mul = checked_array(self.mul, "multiplication table", np.int64)
        act = checked_array(self.act, "action table", np.int64)
        if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
            raise ValueError("multiplication table must be square")
        order = mul.shape[0]
        if act.ndim != 2 or act.shape[0] != order:
            raise ValueError("action table must have one row per group element")
        entries = order**2 * max(order, act.shape[1])
        if entries > _TABLE_LIMIT:
            raise ValueError(
                f"group tables of order**2 * max(order, points) = {entries} entries, "
                f"above the limit of {_TABLE_LIMIT}"
            )
        if np.any((mul < 0) | (mul >= order)):
            raise ValueError("multiplication table leaves the group")
        if np.any((act < 0) | (act >= act.shape[1])):
            raise ValueError("action table leaves the point set")
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "act", act)
        object.__setattr__(self, "identity", self._find_identity())
        object.__setattr__(self, "inv", checked_array(self._find_inverses(), "inverses", np.int64))
        self._validate()

    def _find_identity(self) -> int:
        g = np.arange(self.order)
        two_sided = (self.mul == g).all(axis=1) & (self.mul.T == g).all(axis=1)
        if not two_sided.any():
            raise ValueError("multiplication table has no identity")
        return int(np.argmax(two_sided))

    def _find_inverses(self) -> np.ndarray:
        hits = self.mul == self.identity
        inv = np.argmax(hits, axis=1)
        bad = (hits.sum(axis=1) != 1) | ~hits[inv, np.arange(self.order)]
        if bad.any():
            raise ValueError(f"element {np.flatnonzero(bad)[0]} has no two-sided inverse")
        return inv

    def _validate(self) -> None:
        mul, act = self.mul, self.act
        # (gh)k = g(hk) and g.(h.x) = (gh).x, indexed [g, h, k] and [g, h, x]
        if not np.array_equal(mul[mul], mul[:, mul]):
            raise ValueError("multiplication table is not associative")
        if not np.array_equal(act[self.identity], np.arange(self.n_points)):
            raise ValueError("identity must act trivially")
        if not np.array_equal(act[:, act], act[mul]):
            raise ValueError("action is not compatible with products")

    @property
    def order(self) -> int:
        return self.mul.shape[0]

    @property
    def n_points(self) -> int:
        return self.act.shape[1]

    @classmethod
    def cyclic(cls, order: int, n_points: int = 1, act=None) -> "GammaAction":
        """Cyclic group Z/order; trivial action unless a table is given."""
        g = np.arange(order)
        mul = (g[:, None] + g[None, :]) % order
        if act is None:
            act = np.zeros((order, n_points), dtype=np.int64) + np.arange(n_points)
        return cls(mul, act)

    @classmethod
    def cyclic_translation(cls, order: int) -> "GammaAction":
        """Z/order acting on itself by translation."""
        g = np.arange(order)
        return cls.cyclic(order, order, (g[:, None] + g[None, :]) % order)


def _unit_table(values, what: str) -> np.ndarray:
    # a numeric table is checked before checked_array, so NaN and inf read as off the circle
    raw = np.asarray(values)
    table = raw if raw.dtype.kind in "biufc" else checked_array(raw, what, np.complex128)
    if not np.all(np.abs(np.abs(table) - 1.0) <= _UNIT_TOL):
        raise ValueError(f"{what} values must have modulus 1")
    return checked_array(table, what, np.complex128)


@dataclass(frozen=True, eq=False)
class TauCocycle:
    """Unit-modulus table tau(k1, k2, x)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = _unit_table(self.values, "tau")
        if values.ndim != 3 or values.shape[0] != values.shape[1]:
            raise ValueError("tau table must have shape (order, order, points)")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class AutomorphyFactor:
    """Unit-modulus table j-hat(k, x)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = _unit_table(self.values, "factor")
        if values.ndim != 2:
            raise ValueError("factor table must have shape (order, points)")
        object.__setattr__(self, "values", values)


def _check_shapes(action: GammaAction, tau: TauCocycle | None, jhat=None) -> None:
    if tau is not None and tau.values.shape != (
        action.order,
        action.order,
        action.n_points,
    ):
        raise ValueError("tau table does not match the action")
    if jhat is not None and jhat.values.shape != (action.order, action.n_points):
        raise ValueError("factor table does not match the action")


def tau_cocycle_check(action: GammaAction, tau: TauCocycle) -> float:
    """Worst deviation from the twisted cocycle identity over all triples and points.

    tau(k1 k2, k3, x) tau(k1, k2, k3 x) = tau(k1, k2 k3, x) tau(k2, k3, x),
    the k3-translate on the middle argument implementing the inverse action
    on base functions.
    """
    _check_shapes(action, tau)
    t = tau.values
    dev = 0.0
    for k1 in range(action.order):
        # indexed [k2, k3, x]
        lhs = t[action.mul[k1]] * t[k1][:, action.act]
        rhs = t[k1][action.mul] * t
        dev = float(np.maximum(dev, np.abs(lhs - rhs).max()))
    return dev


def automorphy_check(
    action: GammaAction,
    tau: TauCocycle,
    jhat: AutomorphyFactor,
) -> float:
    """Worst deviation from j(k1, k2 x) j(k2, x) = tau(k1, k2, x) j(k1 k2, x), exhaustively."""
    _check_shapes(action, tau, jhat)
    j = jhat.values
    # indexed [k1, k2, x]
    residual = j[:, action.act] * j - tau.values * j[action.mul]
    return float(np.max(np.abs(residual)))


def coboundary(action: GammaAction, jhat: AutomorphyFactor) -> TauCocycle:
    """The cocycle trivialized by j-hat: tau(k1,k2,x) = j(k1,k2 x) j(k2,x) / j(k1 k2,x)."""
    _check_shapes(action, None, jhat)
    j = jhat.values
    return TauCocycle(j[:, action.act] * j / j[action.mul])


def _roots_to_exponents(values: np.ndarray, m: int) -> np.ndarray:
    """Exponent table t with values = exp(2 pi i t / M), or raise."""
    angles = np.angle(values) * m / (2.0 * np.pi)
    exponents = np.round(angles).astype(np.int64) % m
    recon = np.exp(2j * np.pi * exponents / m)
    err = float(np.abs(recon - values).max())
    if not err <= 1e-9:
        raise ValueError(f"values are not {m}-th roots of unity (error {err:.3e})")
    return exponents


def solve_automorphy(
    action: GammaAction, tau: TauCocycle, modulus: int
) -> AutomorphyFactor | None:
    """Solve for a factor with values among the M-th roots of unity, or report none.

    Passing to exponents turns the coboundary identity into the linear system
    j(k1, k2 x) + j(k2, x) - j(k1 k2, x) = t(k1, k2, x) over Z/M, solved by
    ``solve_mod_system`` (needs M < 2**31) on the rows (s, k2, x), s in a
    generating set, and (e, e, x).  If tau is a cocycle, so is the defect d of
    this system.  Its identity at k1 = s turns d(s, .) = 0 into d(s k2, .) =
    d(k2, .), and at k1 = k2 = e reads d(e, k3)(x) = d(e, e)(k3 x); so d = 0 on
    every row.  A tau whose ``tau_cocycle_check`` deviation exceeds 1e-9 is
    rejected first, and a solution is checked on every row exactly.  No solution
    over Z/M gives None (the class may be solvable at a multiple of M).
    """
    check_modulus(modulus)
    order, n_points = action.order, action.n_points
    gens, reached = [], np.arange(order) == action.identity
    while not reached.all():  # each generator the least element the earlier ones miss
        gens.append(int(reached.argmin()))
        while not reached[action.mul[gens][:, reached]].all():
            reached[action.mul[gens][:, reached]] = True
    entries = (len(gens) * order + 1) * n_points * order * n_points
    if entries > _SYSTEM_LIMIT:
        raise ValueError(
            f"coboundary system of {entries} entries, above the limit of {_SYSTEM_LIMIT}"
        )
    dev = tau_cocycle_check(action, tau)
    if not dev <= _COCYCLE_TOL:
        raise ValueError(f"tau is not a cocycle (deviation {dev:.3e})")
    t = _roots_to_exponents(tau.values, modulus)
    k1 = np.append(np.repeat(np.array(gens, dtype=np.int64), order), action.identity)
    k2 = np.append(np.tile(np.arange(order), len(gens)), action.identity)
    unknown = np.arange(order * n_points).reshape(order, n_points)  # column of j(k, x)
    rows = np.arange(k1.size * n_points).reshape(k1.size, n_points)
    a = np.zeros((rows.size, unknown.size), dtype=np.int64)
    np.add.at(a, (rows, unknown[k1[:, None], action.act[k2]]), 1)  # j(k1, k2 x)
    np.add.at(a, (rows, unknown[k2]), 1)  # j(k2, x)
    np.add.at(a, (rows, unknown[action.mul[k1, k2]]), -1)  # j(k1 k2, x)
    solution = solve_mod_system(a, t[k1, k2].ravel(), modulus)
    if solution is None:
        return None
    j = np.array(solution, dtype=np.int64).reshape(order, n_points)
    if ((j[:, action.act] + j - j[action.mul] - t) % modulus).any():
        raise ValueError("the solution fails a coboundary equation; tau is not a cocycle mod M")
    return AutomorphyFactor(np.exp(2j * np.pi * j / modulus))


def u_transform(action: GammaAction, jhat: AutomorphyFactor) -> np.ndarray:
    """The family U(k): x -> j-hat(k, k^{-1} x), one row per group element."""
    _check_shapes(action, None, jhat)
    return np.take_along_axis(jhat.values, action.act[action.inv], axis=1)


def u_cocycle_check(
    action: GammaAction,
    tau: TauCocycle,
    u: np.ndarray,
) -> float:
    """Worst deviation from U(k1)(x) U(k2)(k1^{-1} x) = tau(k1, k2, (k1 k2)^{-1} x) U(k1 k2)(x).

    The tau argument is left-translated by k1 k2, matching the multiplier
    convention in which the group also moves the base argument of tau.
    """
    _check_shapes(action, tau)
    k1, k2 = np.ogrid[: action.order, : action.order]
    act_inv = action.act[action.inv]
    # indexed [k1, k2, x]
    lhs = u[:, None] * u[k2[..., None], act_inv[:, None]]
    rhs = tau.values[k1[..., None], k2[..., None], act_inv[action.mul]] * u[action.mul]
    return float(np.max(np.abs(lhs - rhs)))
