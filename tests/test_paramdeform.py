from fractions import Fraction

import numpy as np
import pytest

from startwist.abelian import GroupContext
from startwist.cocycles import Bicharacter, SkewForm
from startwist.deform import FourierElement, star
from startwist.paramdeform import (
    BaseGrid,
    CocycleField,
    MonodromyData,
    ParamElement,
    ScalarField,
    c0x_action,
    equivariant_product_closure,
    equivariant_test,
    heisenberg_field,
    heisenberg_phases,
    linearity_check,
    monodromy_check,
    monodromy_transport,
    param_star,
    torus_action,
)

LATTICE2 = GroupContext.lattice(2)
J = SkewForm.standard_symplectic(1)
SHEAR = MonodromyData([[1, 1], [0, 1]])


def random_element(ctx, rng, max_support=5, box=2):
    n = int(rng.integers(1, max_support + 1))
    coeffs = {}
    while len(coeffs) < n:
        p = ctx.point(tuple(rng.integers(-box, box + 1, size=ctx.rank)))
        coeffs[p] = complex(rng.standard_normal(), rng.standard_normal())
    return FourierElement(ctx, coeffs)


def random_param(grid, ctx, rng):
    return ParamElement(grid, tuple(random_element(ctx, rng) for _ in grid.samples))


def equivariant(base, grid, rho):
    fibers = [base] + [base] * (len(grid) - 2) + [monodromy_transport(base, rho)]
    return ParamElement(grid, tuple(fibers))


class TestBaseGrid:
    def test_interval_endpoints(self):
        grid = BaseGrid.interval(5)
        assert grid.samples[0] == 0.0 and grid.samples[-1] == 1.0

    def test_circle_excludes_duplicate_endpoint(self):
        grid = BaseGrid.circle(4)
        assert grid.samples == (0.0, 0.25, 0.5, 0.75)
        with pytest.raises(ValueError):
            BaseGrid("circle", (0.0, 0.5, 1.0))

    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            BaseGrid("interval", (0.0, 0.5, 0.5))

    def test_range_validation(self):
        with pytest.raises(ValueError):
            BaseGrid("interval", (-0.1, 0.5))


class TestParamStar:
    def test_constant_field_reduces_to_single_fiber(self):
        rng = np.random.default_rng(0)
        grid = BaseGrid.interval(4)
        field = CocycleField.constant(grid, J, 0.6)
        a, b = random_param(grid, LATTICE2, rng), random_param(grid, LATTICE2, rng)
        out = param_star(a, b, field)
        sigma = Bicharacter.from_skew(LATTICE2, J, 0.6)
        for i in range(len(grid)):
            assert out.fibers[i].l1_distance(star(a.fibers[i], b.fibers[i], sigma)) == 0.0

    def test_zero_field_is_fiberwise_convolution(self):
        rng = np.random.default_rng(1)
        grid = BaseGrid.interval(3)
        field = CocycleField.constant(grid, SkewForm(np.zeros((2, 2))), 1.0)
        a, b = random_param(grid, LATTICE2, rng), random_param(grid, LATTICE2, rng)
        out = param_star(a, b, field)
        triv = Bicharacter.trivial(LATTICE2)
        for i in range(len(grid)):
            assert out.fibers[i] == star(a.fibers[i], b.fibers[i], triv)

    def test_fiberwise_associativity(self):
        rng = np.random.default_rng(2)
        grid = BaseGrid.circle(6)
        field = heisenberg_field(1.0, grid)
        a, b, c = (random_param(grid, LATTICE2, rng) for _ in range(3))
        lhs = param_star(param_star(a, b, field), c, field)
        rhs = param_star(a, param_star(b, c, field), field)
        assert lhs.linf_distance(rhs) <= 1e-10

    def test_grid_mismatch(self):
        rng = np.random.default_rng(3)
        g1, g2 = BaseGrid.interval(3), BaseGrid.interval(4)
        field = CocycleField.constant(g1, J, 1.0)
        with pytest.raises(ValueError):
            param_star(
                random_param(g1, LATTICE2, rng), random_param(g2, LATTICE2, rng), field
            )

    def test_iterated_field_deformation_is_exponent_sum(self):
        rng = np.random.default_rng(4)
        grid = BaseGrid.interval(4)
        f1 = CocycleField(grid, tuple(SkewForm(float(rng.uniform(-1, 1)) * J.matrix) for _ in grid.samples), 0.8)
        f2 = CocycleField(grid, tuple(SkewForm(float(rng.uniform(-1, 1)) * J.matrix) for _ in grid.samples), 0.8)
        summed = CocycleField(
            grid,
            tuple(SkewForm(a.matrix + b.matrix) for a, b in zip(f1.forms, f2.forms)),
            0.8,
        )
        a, b = random_param(grid, LATTICE2, rng), random_param(grid, LATTICE2, rng)
        direct = param_star(a, b, summed)
        iterated = ParamElement(
            grid,
            tuple(
                _iterated_fiber(a.fibers[i], b.fibers[i], f1, f2, i)
                for i in range(len(grid))
            ),
        )
        assert direct.linf_distance(iterated) <= 1e-12


def _iterated_fiber(fa, fb, f1, f2, i):
    ctx = fa.context
    s1 = f1.bicharacter_at(i, ctx)
    s2 = f2.bicharacter_at(i, ctx)
    out = FourierElement.zero(ctx)
    for p1, c1 in fa.coeffs.items():
        for p2, c2 in fb.coeffs.items():
            out = out + (c1 * c2 * s2(p1, p2)) * star(
                FourierElement.delta(p1), FourierElement.delta(p2), s1
            )
    return out


class TestC0XAction:
    def test_unit_field_is_identity(self):
        rng = np.random.default_rng(5)
        grid = BaseGrid.interval(4)
        a = random_param(grid, LATTICE2, rng)
        assert c0x_action(ScalarField.constant(grid), a).linf_distance(a) == 0.0

    def test_point_supported_field_kills_other_fibers(self):
        rng = np.random.default_rng(6)
        grid = BaseGrid.interval(4)
        values = [0.0] * len(grid)
        values[2] = 1.0 + 0.5j
        a = random_param(grid, LATTICE2, rng)
        out = c0x_action(ScalarField(grid, tuple(values)), a)
        for i in range(len(grid)):
            if i != 2:
                assert not out.fibers[i].coeffs

    def test_central_linearity(self):
        rng = np.random.default_rng(7)
        grid = BaseGrid.interval(5)
        worst = 0.0
        for _ in range(50):
            field = CocycleField(
                grid,
                tuple(SkewForm(float(rng.uniform(-2, 2)) * J.matrix) for _ in grid.samples),
                float(rng.uniform(0.1, 1.2)),
            )
            f = ScalarField(grid, tuple(complex(rng.standard_normal(), rng.standard_normal()) for _ in grid.samples))
            a, b = random_param(grid, LATTICE2, rng), random_param(grid, LATTICE2, rng)
            worst = max(worst, linearity_check(f, a, b, field))
        assert worst <= 1e-12


class TestTorusAction:
    def test_zero_is_identity(self):
        rng = np.random.default_rng(8)
        grid = BaseGrid.circle(4)
        a = random_param(grid, LATTICE2, rng)
        assert torus_action([0.0, 0.0], a).linf_distance(a) == 0.0

    def test_equivariance_with_product(self):
        rng = np.random.default_rng(9)
        grid = BaseGrid.circle(5)
        field = heisenberg_field(0.7, grid)
        a, b = random_param(grid, LATTICE2, rng), random_param(grid, LATTICE2, rng)
        t = rng.random(2)
        lhs = torus_action(t, param_star(a, b, field))
        rhs = param_star(torus_action(t, a), torus_action(t, b), field)
        assert lhs.linf_distance(rhs) <= 1e-12

    def test_single_frequency_grading(self):
        grid = BaseGrid.circle(3)
        p = LATTICE2.point(2, -1)
        a = ParamElement.constant(grid, FourierElement.delta(p))
        t = [0.3, 0.45]
        out = torus_action(t, a)
        character = np.exp(2j * np.pi * (2 * 0.3 - 0.45))
        for fiber in out.fibers:
            assert fiber.coeff(p) == pytest.approx(character)


class TestHeisenbergField:
    def test_fiber_at_zero_commutative(self):
        grid = BaseGrid.circle(8)
        field = heisenberg_field(1.0, grid)
        assert np.all(field.forms[0].matrix == 0.0)

    def test_half_sample_phase(self):
        grid = BaseGrid.circle(8)
        field = heisenberg_field(1.0, grid)
        ctx = LATTICE2
        i = grid.samples.index(0.5)
        sigma = field.bicharacter_at(i, ctx)
        u, v = ctx.point(1, 0), ctx.point(0, 1)
        phase = sigma(u, v) / sigma(v, u)
        assert phase == pytest.approx(-1.0)

    def test_commutation_phase_all_samples(self):
        grid = BaseGrid.circle(32)
        ctx = LATTICE2
        for hbar in (0.5, 1.0):
            field = heisenberg_field(hbar, grid)
            u = ParamElement.constant(grid, FourierElement.delta(ctx.point(1, 0)))
            v = ParamElement.constant(grid, FourierElement.delta(ctx.point(0, 1)))
            uv = param_star(u, v, field)
            vu = param_star(v, u, field)
            phases = []
            for i, y in enumerate(grid.samples):
                phase = uv.fibers[i].coeff(ctx.point(1, 1)) / vu.fibers[i].coeff(ctx.point(1, 1))
                assert abs(phase - np.exp(-2j * np.pi * hbar * y)) <= 1e-12
                phases.append(phase)
            assert heisenberg_phases(hbar, grid) == phases

    def test_rational_samples_give_roots_of_unity(self):
        grid = BaseGrid.circle(32)
        field = heisenberg_field(1.0, grid)
        ctx = LATTICE2
        u = ParamElement.constant(grid, FourierElement.delta(ctx.point(1, 0)))
        v = ParamElement.constant(grid, FourierElement.delta(ctx.point(0, 1)))
        uv, vu = param_star(u, v, field), param_star(v, u, field)
        for i, y in enumerate(grid.samples):
            frac = Fraction(y)  # dyadic samples are exact
            q = frac.denominator
            assert (q * frac).denominator == 1
            phase = uv.fibers[i].coeff(ctx.point(1, 1)) / vu.fibers[i].coeff(ctx.point(1, 1))
            assert abs(phase**q - 1.0) <= 1e-12

    def test_requires_circle(self):
        with pytest.raises(ValueError):
            heisenberg_field(1.0, BaseGrid.interval(4))


class TestMonodromy:
    def test_identity_accepts_everything(self):
        rho = MonodromyData(np.eye(2, dtype=int))
        assert monodromy_check(rho)
        rng = np.random.default_rng(10)
        grid = BaseGrid.interval(3)
        a = random_param(grid, LATTICE2, rng)
        periodic = ParamElement(grid, (a.fibers[0],) * 3)
        assert equivariant_test(periodic, rho) == 0.0

    def test_shear_is_symplectic(self):
        assert monodromy_check(SHEAR)

    def test_diag_2_1_rejected(self):
        assert not monodromy_check(MonodromyData([[2, 0], [0, 1]]))

    def test_equivariant_test_detects_mismatch(self):
        rng = np.random.default_rng(11)
        grid = BaseGrid.interval(3)
        base = random_element(LATTICE2, rng)
        good = equivariant(base, grid, SHEAR)
        assert equivariant_test(good, SHEAR) == 0.0
        bad = ParamElement(grid, (base, base, base + FourierElement.delta(LATTICE2.point(5, 5))))
        assert equivariant_test(bad, SHEAR) > 0.5

    def test_non_symplectic_rejected_by_test(self):
        rng = np.random.default_rng(12)
        grid = BaseGrid.interval(3)
        a = random_param(grid, LATTICE2, rng)
        with pytest.raises(ValueError):
            equivariant_test(a, MonodromyData([[2, 0], [0, 1]]))

    def test_needs_full_fundamental_domain(self):
        rng = np.random.default_rng(13)
        grid = BaseGrid.circle(4)
        a = random_param(grid, LATTICE2, rng)
        with pytest.raises(ValueError):
            equivariant_test(a, SHEAR)


class TestEquivariantClosure:
    def test_identity_monodromy_reduces_to_periodicity(self):
        rng = np.random.default_rng(14)
        grid = BaseGrid.interval(4)
        rho = MonodromyData(np.eye(2, dtype=int))
        base = random_element(LATTICE2, rng)
        a = equivariant(base, grid, rho)
        b = equivariant(random_element(LATTICE2, rng), grid, rho)
        field = CocycleField.constant(grid, SkewForm(0.4 * J.matrix), 0.9)
        assert equivariant_product_closure(a, b, rho, field) <= 1e-12

    def test_shear_with_symplectic_multiples(self):
        rng = np.random.default_rng(15)
        grid = BaseGrid.interval(4)
        # periodic multiple of the symplectic form, varying inside the domain
        scales = [0.3, 0.7, 1.1, 0.3]
        field = CocycleField(
            grid, tuple(SkewForm(s * J.matrix) for s in scales), 0.5
        )
        worst = 0.0
        for _ in range(10):
            a = equivariant(random_element(LATTICE2, rng), grid, SHEAR)
            b = equivariant(random_element(LATTICE2, rng), grid, SHEAR)
            worst = max(worst, equivariant_product_closure(a, b, SHEAR, field))
        assert worst <= 1e-12

    def test_non_invariant_field_rejected_then_measured(self):
        grid = BaseGrid.interval(3)
        ctx4 = GroupContext.lattice(4)
        rho4 = MonodromyData(
            [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, -1, 1]]
        )
        assert monodromy_check(rho4)
        k_form = np.zeros((4, 4))
        k_form[0, 2] = 1.0
        k_form[2, 0] = -1.0
        field = CocycleField.constant(grid, SkewForm(k_form), 0.5)
        a = equivariant(
            FourierElement(
                ctx4,
                {ctx4.point(1, 0, 0, 0): 1.0, ctx4.point(0, 0, 0, 1): 0.7},
            ),
            grid,
            rho4,
        )
        b = equivariant(
            FourierElement(
                ctx4,
                {ctx4.point(0, 0, 0, 1): 1.0, ctx4.point(1, 0, 0, 0): 0.3},
            ),
            grid,
            rho4,
        )
        with pytest.raises(ValueError):
            equivariant_product_closure(a, b, rho4, field)
        deviation = equivariant_product_closure(a, b, rho4, field, check_field=False)
        assert deviation > 1e-3

    def test_non_equivariant_inputs_rejected(self):
        rng = np.random.default_rng(16)
        grid = BaseGrid.interval(3)
        field = CocycleField.constant(grid, SkewForm(0.2 * J.matrix), 1.0)
        a = random_param(grid, LATTICE2, rng)
        with pytest.raises(ValueError):
            equivariant_product_closure(a, a, SHEAR, field)

