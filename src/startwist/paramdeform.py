"""Fibrewise deformation over a sampled base space.

A base grid samples an interval or a circle; a cocycle field assigns one skew
form per sample, and parametrised elements carry one Fourier-coefficient
fiber per sample over a shared lattice context.  All products act fiberwise,
so every identity of the single-fiber algebra holds per sample.

Monodromy convention for the non-principal models: the deck generator
identifies the fiber over 1 with the fiber over 0 through the dual action of
the symplectic matrix rho on coefficient indices, fiber(1)(p) =
fiber(0)(rho^{-T} p).  The transpose-inverse is forced by dualizing the rho
action on the torus; products of equivariant elements stay equivariant when
every form in the field is a scalar multiple of the standard symplectic form
(those are exactly the Sp-invariant skew forms).  Monodromy matrices act in
Python integers, so rho^T J rho and each relabelled coefficient are exact at
any entry size, and a coefficient moved beyond 2**31 raises the range error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .abelian import GroupContext
from .cocycles import Bicharacter, SkewForm
from . import deform
from .deform import FourierElement, translate
from .modarith import checked_array, read_numbers

__all__ = [
    "BaseGrid",
    "CocycleField",
    "ParamElement",
    "ScalarField",
    "MonodromyData",
    "param_star",
    "c0x_action",
    "linearity_check",
    "torus_action",
    "heisenberg_field",
    "heisenberg_phases",
    "monodromy_check",
    "monodromy_transport",
    "equivariant_test",
    "equivariant_product_closure",
]


@dataclass(frozen=True)
class BaseGrid:
    """Ordered samples of an interval (endpoints allowed) or a circle (0 ~ 1)."""

    topology: str
    samples: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.topology not in ("interval", "circle"):
            raise ValueError(f"unknown topology {self.topology!r}")
        samples = tuple(read_numbers(self.samples, "samples", np.float64).tolist())
        object.__setattr__(self, "samples", samples)
        if not samples:
            raise ValueError("grid needs at least one sample")
        if any(not 0.0 <= s <= 1.0 for s in samples):
            raise ValueError("samples must lie in [0, 1]")
        if any(b <= a for a, b in zip(samples, samples[1:])):
            raise ValueError("samples must be strictly increasing")
        if self.topology == "circle" and samples[-1] == 1.0:
            raise ValueError("circle grids identify 0 ~ 1; do not store both")

    @classmethod
    def interval(cls, n_samples: int) -> "BaseGrid":
        if n_samples < 2:
            raise ValueError("interval grid needs at least two samples")
        return cls("interval", tuple(k / (n_samples - 1) for k in range(n_samples)))

    @classmethod
    def circle(cls, n_samples: int) -> "BaseGrid":
        if n_samples < 1:
            raise ValueError("circle grid needs at least one sample")
        return cls("circle", tuple(k / n_samples for k in range(n_samples)))

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True, eq=False)
class CocycleField:
    """One skew form per base sample plus the shared deformation scalar; the
    fibre cocycles over the lattice, one per sample, are derived once."""

    grid: BaseGrid
    forms: tuple[SkewForm, ...]
    hbar: float
    bicharacters: tuple[Bicharacter, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        forms = tuple(self.forms)
        object.__setattr__(self, "forms", forms)
        if len(forms) != len(self.grid):
            raise ValueError("need exactly one form per grid sample")
        ranks = {f.rank for f in forms}
        if len(ranks) != 1:
            raise ValueError("all forms must share one rank")
        ctx = GroupContext.lattice(forms[0].rank)
        cocycles = tuple(Bicharacter.from_skew(ctx, form, self.hbar) for form in forms)
        object.__setattr__(self, "bicharacters", cocycles)

    @classmethod
    def constant(cls, grid: BaseGrid, form: SkewForm, hbar: float) -> "CocycleField":
        return cls(grid, (form,) * len(grid), hbar)

    @property
    def rank(self) -> int:
        return self.forms[0].rank


@dataclass(frozen=True, eq=False)
class ParamElement:
    """One Fourier element per base sample, all over one lattice context."""

    grid: BaseGrid
    fibers: tuple[FourierElement, ...]

    def __post_init__(self) -> None:
        fibers = tuple(self.fibers)
        object.__setattr__(self, "fibers", fibers)
        if len(fibers) != len(self.grid):
            raise ValueError("need exactly one fiber per grid sample")
        ctxs = {f.context for f in fibers}
        if len(ctxs) != 1:
            raise ValueError("all fibers must share one context")
        if next(iter(ctxs)).is_finite:
            raise ValueError("parametrised elements live over lattice contexts")

    @classmethod
    def constant(cls, grid: BaseGrid, fiber: FourierElement) -> "ParamElement":
        return cls(grid, (fiber,) * len(grid))

    @property
    def context(self) -> GroupContext:
        return self.fibers[0].context

    def linf_distance(self, other: "ParamElement") -> float:
        if self.grid != other.grid:
            raise ValueError("elements on different grids")
        return float(np.max(deform._linf_distances(list(zip(self.fibers, other.fibers)))))


@dataclass(frozen=True, eq=False)
class ScalarField:
    """One complex value per base sample."""

    grid: BaseGrid
    values: tuple[complex, ...]

    def __post_init__(self) -> None:
        values = read_numbers(self.values, "scalar field values", np.complex128)
        if values.shape != (len(self.grid),):
            raise ValueError("need exactly one value per grid sample")
        object.__setattr__(self, "values", tuple(values.tolist()))


@dataclass(frozen=True, eq=False)
class MonodromyData:
    """Integer candidate monodromy matrix for a non-principal torus model."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = checked_array(self.matrix, "monodromy matrix", np.int64)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 != 0:
            raise ValueError("monodromy matrix must be square of even size")
        object.__setattr__(self, "matrix", m)

    @property
    def rank(self) -> int:
        return self.matrix.shape[0]


def _check_grids(*grids: BaseGrid) -> None:
    if any(g != grids[0] for g in grids[1:]):
        raise ValueError("grid mismatch")


def param_star(a: ParamElement, b: ParamElement, field: CocycleField) -> ParamElement:
    """Fiberwise star product with the form sampled at each base point, one batch."""
    _check_grids(a.grid, b.grid, field.grid)
    ctx = a.context
    if b.context != ctx or field.rank != ctx.rank:
        raise ValueError("context mismatch")
    fibers = deform._star_batch(list(zip(a.fibers, b.fibers)), field.bicharacters)
    return ParamElement(a.grid, fibers)


def c0x_action(f: ScalarField, a: ParamElement) -> ParamElement:
    """Central action of base functions: samplewise scaling of the fibers."""
    _check_grids(f.grid, a.grid)
    return ParamElement(
        a.grid, tuple(v * fiber for v, fiber in zip(f.values, a.fibers))
    )


def linearity_check(
    f: ScalarField, a: ParamElement, b: ParamElement, field: CocycleField
) -> float:
    """Worst deviation among F.(a.b), (F.a).b and a.(F.b)."""
    scaled_product = c0x_action(f, param_star(a, b, field))
    left = param_star(c0x_action(f, a), b, field)
    right = param_star(a, c0x_action(f, b), field)
    pairs = ((scaled_product, left), (scaled_product, right), (left, right))
    return float(np.max([x.linf_distance(y) for x, y in pairs]))


def torus_action(t, a: ParamElement) -> ParamElement:
    """Fibrewise torus translation: coefficient at p gains the phase of p . t."""
    return ParamElement(a.grid, tuple(translate(fiber, t) for fiber in a.fibers))


def heisenberg_field(hbar: float, grid: BaseGrid) -> CocycleField:
    """The circle family of twists y . J at deformation scalar hbar.

    Rank-2 fibers; the commutator phase of the two coordinate deltas at base
    point y is exp(-2 pi i hbar y), so the fiber at rational y is a rational
    noncommutative 2-torus.
    """
    if grid.topology != "circle":
        raise ValueError("the family lives over a circle")
    j = SkewForm.standard_symplectic(1)
    forms = tuple(SkewForm(y * j.matrix) for y in grid.samples)
    return CocycleField(grid, forms, hbar)


def heisenberg_phases(hbar: float, grid: BaseGrid) -> list[complex]:
    """Commutation phase of u = delta(1, 0) and v = delta(0, 1) per circle sample.

    Each entry is the coefficient of delta(1, 1) in u * v divided by its
    coefficient in v * u, both taken in the Heisenberg field; at sample y it
    is exp(-2 pi i hbar y).
    """
    field = heisenberg_field(hbar, grid)
    ctx = GroupContext.lattice(2)
    u = ParamElement.constant(grid, FourierElement.delta(ctx.point(1, 0)))
    v = ParamElement.constant(grid, FourierElement.delta(ctx.point(0, 1)))
    top = ctx.point(1, 1)
    return [
        uv.coeff(top) / vu.coeff(top)
        for uv, vu in zip(
            param_star(u, v, field).fibers, param_star(v, u, field).fibers
        )
    ]


def monodromy_check(rho: MonodromyData) -> bool:
    """True iff rho^T J rho = J exactly, in Python integers."""
    m = rho.matrix.astype(object)
    j = SkewForm.standard_symplectic(rho.rank // 2).matrix.astype(np.int64)
    return bool(np.array_equal(m.T @ j @ m, j))


def monodromy_transport(a: FourierElement, rho: MonodromyData) -> FourierElement:
    """Relabel coefficients through the dual action: out(p) = a(rho^{-T} p).

    rho must be symplectic and of the context's rank; ``_collect`` refuses a
    coefficient moved beyond 2**31 by name."""
    if not monodromy_check(rho):
        raise ValueError("matrix is not symplectic")
    if rho.rank != a.context.rank:
        raise ValueError("monodromy rank does not match the context")
    # row form of p -> rho^T p, in Python integers
    return deform._collect(a.context, a.coords @ rho.matrix.astype(object), a.values)[0]


def equivariant_test(a: ParamElement, rho: MonodromyData) -> float:
    """Deviation of fiber(1) from ``monodromy_transport`` of fiber(0) over the supports.

    The grid must sample one fundamental domain [0, 1] with both endpoints
    present; rho must be symplectic.
    """
    grid = a.grid
    if grid.topology != "interval" or grid.samples[0] != 0.0 or grid.samples[-1] != 1.0:
        raise ValueError("grid must sample [0, 1] with both endpoints")
    return monodromy_transport(a.fibers[0], rho).linf_distance(a.fibers[-1])


def _is_symplectic_multiple(form: SkewForm) -> bool:
    n = form.rank // 2
    j = SkewForm.standard_symplectic(n).matrix
    scale = form.matrix[0, n]
    return bool(np.array_equal(form.matrix, scale * j))


def equivariant_product_closure(
    a: ParamElement,
    b: ParamElement,
    rho: MonodromyData,
    field: CocycleField,
) -> float:
    """Deviation of the fiberwise product from equivariance under rho.

    Requires equivariant inputs and, unless rho is the identity, a field of
    scalar multiples of the standard symplectic form with matching endpoint
    forms; those are preserved by the dual symplectic action, which is what
    closes the product.  A negative control on any other field calls
    ``equivariant_test(param_star(a, b, field), rho)`` directly.
    """
    for name, elem in (("a", a), ("b", b)):
        if equivariant_test(elem, rho) > 1e-12:
            raise ValueError(f"{name} is not equivariant")
    if not np.array_equal(rho.matrix, np.eye(rho.rank, dtype=np.int64)):
        if not all(_is_symplectic_multiple(f) for f in field.forms):
            raise ValueError(
                "closure requires forms that are scalar multiples of the "
                "standard symplectic form"
            )
        if field.forms[0] != field.forms[-1]:
            raise ValueError("closure requires matching endpoint forms")
    return equivariant_test(param_star(a, b, field), rho)

