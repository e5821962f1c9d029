import dataclasses
import time

import numpy as np
import pytest

from startwist.abelian import FiniteVector, GroupContext
from startwist.cocycles import Bicharacter, LinearMap, T_map
from startwist.crossed import (
    CrossedElement,
    DeformedActionData,
    I_map,
    crossed_conv,
    deformed_dual_action,
    dual_action,
    fixed_point_dimension,
    fixed_point_test,
    lambda_element,
    lift_to_fixed_point,
    spectral_project,
    twisted_crossed_dual,
    verify_I_homomorphism,
)

Z5 = GroupContext.finite(5)
Z7 = GroupContext.finite(7)
Z3 = GroupContext.finite(3)


def data_for(ctx, b_val, e_val=1):
    return DeformedActionData.from_cocycles(
        Bicharacter(ctx, [[b_val]]), Bicharacter(ctx, [[e_val]])
    )


def random_crossed(ctx, rng):
    shape = tuple(ctx.moduli) * 2
    return CrossedElement(ctx, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


class TestCrossedConv:
    def test_lambda_zero_is_two_sided_unit(self):
        rng = np.random.default_rng(0)
        a = random_crossed(Z5, rng)
        unit = lambda_element(Z5.zero())
        assert crossed_conv(unit, a).linf_distance(a) <= 1e-14
        assert crossed_conv(a, unit).linf_distance(a) <= 1e-14

    def test_lambda_group_law(self):
        for u in Z5.points():
            for w in Z5.points():
                got = crossed_conv(lambda_element(u), lambda_element(w))
                assert got.linf_distance(lambda_element(u + w)) == 0.0

    def test_associativity_random(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a, b, c = (random_crossed(Z5, rng) for _ in range(3))
            lhs = crossed_conv(crossed_conv(a, b), c)
            rhs = crossed_conv(a, crossed_conv(b, c))
            assert lhs.linf_distance(rhs) <= 1e-12

    def test_context_mismatch(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            crossed_conv(random_crossed(Z5, rng), random_crossed(Z7, rng))


class TestDualAction:
    def test_trivial_character_is_identity(self):
        rng = np.random.default_rng(3)
        a = random_crossed(Z5, rng)
        assert dual_action(Z5.zero(), a).linf_distance(a) == 0.0

    def test_fixes_zero_supported_elements(self):
        rng = np.random.default_rng(4)
        table = np.zeros((5, 5), dtype=np.complex128)
        table[0] = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        a = CrossedElement(Z5, table)
        for xi in Z5.points():
            assert dual_action(xi, a).linf_distance(a) <= 1e-15

    def test_lambda_is_eigenvector(self):
        from startwist.abelian import pairing

        for v in Z5.points():
            for xi in Z5.points():
                got = dual_action(xi, lambda_element(v))
                expected = pairing(Z5, v, xi) * lambda_element(v)
                assert got.linf_distance(expected) <= 1e-15

    def test_only_zero_support_is_fixed(self):
        # an element with any fiber off v = 0 moves under some character
        rng = np.random.default_rng(5)
        a = random_crossed(Z5, rng)
        moved = max(
            dual_action(xi, a).linf_distance(a) for xi in Z5.points()
        )
        assert moved > 0.1


class TestDeformedActionData:
    def test_t_is_derived_from_the_cocycles(self):
        sigma, e = Bicharacter(Z5, [[2]]), Bicharacter(Z5, [[3]])
        data = DeformedActionData(sigma, e)
        assert [f.name for f in dataclasses.fields(data)] == ["sigma", "e", "t"]
        assert data.t == T_map(sigma, e)[0]
        assert DeformedActionData.from_cocycles(sigma, e).t == data.t
        # sigma and e give T = 1 here; a stored T = 2 cannot be passed in
        with pytest.raises(TypeError):
            DeformedActionData(
                Bicharacter(Z5, [[1]]), e, LinearMap([[2]], 5), LinearMap([[3]], 5)
            )

    @pytest.mark.parametrize(
        "sigma, e",
        [
            (Bicharacter.trivial(GroupContext.lattice(1)), Bicharacter(Z5, [[1]])),
            (Bicharacter(Z7, [[1]]), Bicharacter(Z5, [[1]])),
            (Bicharacter(Z5, [[1]]), Bicharacter(Z5, [[0]])),
        ],
        ids=["lattice", "mismatched-contexts", "degenerate-e"],
    )
    def test_rejected_cocycles(self, sigma, e):
        with pytest.raises(ValueError):
            DeformedActionData(sigma, e)

    def test_table_size_bound(self):
        ctx = GroupContext.finite(1024)  # |V|^2 = 2**20 is still accepted
        DeformedActionData(Bicharacter(ctx, [[1]]), Bicharacter(ctx, [[1]]))
        start = time.perf_counter()
        for moduli in (1025, 100_003, [1025, 1025]):
            ctx = GroupContext.finite(moduli)
            e = Bicharacter(ctx, np.eye(ctx.rank, dtype=np.int64))
            with pytest.raises(ValueError, match=r"\|V\| = \d+ .* limit of 1048576"):
                DeformedActionData(e, e)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_table_rejected(self, bad):
        table = np.zeros((5, 5), dtype=np.complex128)
        table[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            CrossedElement(Z5, table)


class TestDeformedDualAction:
    def test_trivial_cocycle_reduces_to_dual_action(self):
        rng = np.random.default_rng(6)
        data = DeformedActionData.from_cocycles(
            Bicharacter.trivial(Z5), Bicharacter(Z5, [[1]])
        )
        a = random_crossed(Z5, rng)
        for xi in Z5.points():
            lhs = deformed_dual_action(data, xi, a)
            rhs = dual_action(xi, a)
            assert lhs.linf_distance(rhs) == 0.0

    def test_lambda_still_eigenvector(self):
        from startwist.abelian import pairing

        data = data_for(Z5, 2)
        for v in Z5.points():
            for xi in Z5.points():
                got = deformed_dual_action(data, xi, lambda_element(v))
                expected = pairing(Z5, v, xi) * lambda_element(v)
                assert got.linf_distance(expected) <= 1e-15

    def test_group_law_exhaustive_small(self):
        # |V| <= 9: exhaustive composition law
        rng = np.random.default_rng(7)
        data = data_for(Z3, 1)
        a = random_crossed(Z3, rng)
        for xi in Z3.points():
            for eta in Z3.points():
                lhs = deformed_dual_action(data, xi, deformed_dual_action(data, eta, a))
                rhs = deformed_dual_action(data, xi + eta, a)
                assert lhs.linf_distance(rhs) <= 1e-12

    def test_group_law_random_z5(self):
        rng = np.random.default_rng(8)
        data = data_for(Z5, 1)
        for _ in range(5):
            a = random_crossed(Z5, rng)
            xi = Z5.point(int(rng.integers(5)))
            eta = Z5.point(int(rng.integers(5)))
            lhs = deformed_dual_action(data, xi, deformed_dual_action(data, eta, a))
            rhs = deformed_dual_action(data, xi + eta, a)
            assert lhs.linf_distance(rhs) <= 1e-12


class TestFixedPoints:
    def test_zero_is_fixed(self):
        data = data_for(Z5, 1)
        ok, dev = fixed_point_test(CrossedElement.zero(Z5), data)
        assert ok and dev == 0.0

    def test_projection_lands_in_subspace(self):
        rng = np.random.default_rng(9)
        data = data_for(Z5, 1)
        proj = spectral_project(random_crossed(Z5, rng), data)
        ok, dev = fixed_point_test(proj, data)
        assert ok and dev <= 1e-12

    def test_generic_element_not_fixed(self):
        rng = np.random.default_rng(10)
        data = data_for(Z5, 1)
        ok, dev = fixed_point_test(random_crossed(Z5, rng), data)
        assert not ok and dev > 0.1

    def test_fixed_point_equals_action_invariance(self):
        # the spectral condition holds iff the deformed action fixes the element
        rng = np.random.default_rng(11)
        data = data_for(Z5, 2)
        for candidate in (
            spectral_project(random_crossed(Z5, rng), data),
            random_crossed(Z5, rng),
        ):
            spectral_ok, _ = fixed_point_test(candidate, data)
            invariant = all(
                deformed_dual_action(data, xi, candidate).linf_distance(candidate)
                <= 1e-10
                for xi in Z5.points()
            )
            assert spectral_ok == invariant

    def test_projection_idempotent(self):
        rng = np.random.default_rng(12)
        data = data_for(Z7, 3)
        a = random_crossed(Z7, rng)
        once = spectral_project(a, data)
        twice = spectral_project(once, data)
        assert once.linf_distance(twice) <= 1e-12

    def test_projection_commutes_with_action(self):
        rng = np.random.default_rng(13)
        data = data_for(Z5, 1)
        a = random_crossed(Z5, rng)
        for xi in Z5.points():
            lhs = spectral_project(deformed_dual_action(data, xi, a), data)
            rhs = deformed_dual_action(data, xi, spectral_project(a, data))
            assert lhs.linf_distance(rhs) <= 1e-12

    def test_projected_products_stay_fixed(self):
        rng = np.random.default_rng(14)
        data = data_for(Z5, 1)
        a = spectral_project(random_crossed(Z5, rng), data)
        b = spectral_project(random_crossed(Z5, rng), data)
        ok, dev = fixed_point_test(crossed_conv(a, b), data)
        assert ok and dev <= 1e-12

    def test_dimension_count(self):
        for ctx, b_val in ((Z5, 1), (Z5, 2), (Z7, 3)):
            data = data_for(ctx, b_val)
            assert fixed_point_dimension(data) == ctx.size


class TestIMap:
    def test_lambda_zero_maps_to_scaled_unit_fiber(self):
        out = I_map(lambda_element(Z5.zero()))
        expected = FiniteVector.constant(Z5, Z5.norm_const)
        assert out.linf_distance(expected) == 0.0

    def test_single_fiber_support(self):
        rng = np.random.default_rng(15)
        fiber = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        table = np.zeros((5, 5), dtype=np.complex128)
        table[2] = fiber
        out = I_map(CrossedElement(Z5, table))
        assert np.allclose(out.values, Z5.norm_const * fiber)

    def test_linearity(self):
        rng = np.random.default_rng(16)
        a, b = random_crossed(Z5, rng), random_crossed(Z5, rng)
        lhs = I_map(a) + 2j * I_map(b)
        rhs = I_map(a + 2j * b)
        assert lhs.linf_distance(rhs) <= 1e-13


class TestIHomomorphism:
    def test_zero_inputs(self):
        data = data_for(Z5, 1)
        zero = CrossedElement.zero(Z5)
        assert verify_I_homomorphism(zero, zero, data) == 0.0

    @pytest.mark.parametrize("ctx,b_val", [(Z5, 1), (Z7, 3)])
    def test_fifty_random_projected_pairs(self, ctx, b_val):
        rng = np.random.default_rng(17)
        data = data_for(ctx, b_val)
        worst = 0.0
        for _ in range(50):
            a = spectral_project(random_crossed(ctx, rng), data)
            b = spectral_project(random_crossed(ctx, rng), data)
            worst = max(worst, verify_I_homomorphism(a, b, data))
        assert worst <= 1e-10

    def test_unprojected_input_rejected(self):
        rng = np.random.default_rng(18)
        data = data_for(Z5, 1)
        with pytest.raises(ValueError):
            verify_I_homomorphism(
                random_crossed(Z5, rng), random_crossed(Z5, rng), data
            )

    def test_singular_t_rejected(self):
        rng = np.random.default_rng(19)
        sigma = Bicharacter.trivial(Z5)
        e = Bicharacter(Z5, [[1]])
        data = DeformedActionData(sigma, e)
        zero = CrossedElement.zero(Z5)
        with pytest.raises(ValueError):
            verify_I_homomorphism(zero, zero, data)


class TestUndeformedPicture:
    def test_zero_supported_subalgebra_exhaustive_z5(self):
        # with the trivial twist the fixed elements are exactly the v = 0 slice,
        # and the fiber-at-zero bijection turns convolution into the pointwise
        # product; the averaging map is that bijection times the measure constant
        rng = np.random.default_rng(20)
        triv = DeformedActionData.from_cocycles(
            Bicharacter.trivial(Z5), Bicharacter(Z5, [[1]])
        )
        proj = spectral_project(random_crossed(Z5, rng), triv)
        assert all(
            np.max(np.abs(proj.fiber(v))) <= 1e-15
            for v in Z5.points()
            if v != Z5.zero()
        )
        for _ in range(5):
            a = spectral_project(random_crossed(Z5, rng), triv)
            b = spectral_project(random_crossed(Z5, rng), triv)
            product = crossed_conv(a, b)
            assert np.allclose(
                product.fiber(Z5.zero()), a.fiber(Z5.zero()) * b.fiber(Z5.zero())
            )
            assert np.allclose(
                I_map(product).values,
                Z5.norm_const * a.fiber(Z5.zero()) * b.fiber(Z5.zero()),
            )


class TestLift:
    @pytest.mark.parametrize("ctx,b_val", [(Z5, 1), (Z7, 3)])
    def test_round_trip_through_averaging(self, ctx, b_val):
        rng = np.random.default_rng(23)
        data = data_for(ctx, b_val)
        for _ in range(10):
            x = FiniteVector(
                ctx,
                rng.standard_normal(tuple(ctx.moduli))
                + 1j * rng.standard_normal(tuple(ctx.moduli)),
            )
            lifted = lift_to_fixed_point(x, data)
            ok, dev = fixed_point_test(lifted, data)
            assert ok and dev <= 1e-12
            assert I_map(lifted).linf_distance(x) <= 1e-12

    def test_lift_of_average_recovers_fixed_points(self):
        rng = np.random.default_rng(24)
        data = data_for(Z5, 2)
        a = spectral_project(random_crossed(Z5, rng), data)
        recovered = lift_to_fixed_point(I_map(a), data)
        assert recovered.linf_distance(a) <= 1e-12


class TestTwistedCrossedDual:
    def test_trivial_cocycle_reduces_to_conv(self):
        rng = np.random.default_rng(21)
        a, b = random_crossed(Z5, rng), random_crossed(Z5, rng)
        lhs = twisted_crossed_dual(a, b, Bicharacter.trivial(Z5))
        assert lhs.linf_distance(crossed_conv(a, b)) == 0.0

    def test_lambda_phase(self):
        sigma_hat = Bicharacter(Z5, [[2]])
        for u in Z5.points():
            for w in Z5.points():
                got = twisted_crossed_dual(
                    lambda_element(u), lambda_element(w), sigma_hat
                )
                expected = sigma_hat(-w, u) * lambda_element(u + w)
                assert got.linf_distance(expected) <= 1e-14

    def test_associativity(self):
        rng = np.random.default_rng(22)
        sigma_hat = Bicharacter(Z5, [[3]])
        for _ in range(5):
            a, b, c = (random_crossed(Z5, rng) for _ in range(3))
            lhs = twisted_crossed_dual(twisted_crossed_dual(a, b, sigma_hat), c, sigma_hat)
            rhs = twisted_crossed_dual(a, twisted_crossed_dual(b, c, sigma_hat), sigma_hat)
            assert lhs.linf_distance(rhs) <= 1e-12


# ----------------------------------------------------------------------
# the fiber-by-fiber loops the array kernels replaced, kept as oracles


def _alpha(fiber, x, rank):
    return np.roll(fiber, shift=tuple(-np.asarray(x)), axis=tuple(range(rank)))


def reference_project(a, data):
    """|V|^{-1} sum_u conj(e(u, v)) alpha_{Tu}[fiber(v)], one (u, v) pair at a time."""
    ctx = a.context
    out = np.zeros_like(a.table)
    for v in ctx.points():
        acc = np.zeros_like(a.fiber(v))
        for u in ctx.points():
            tu = data.t.apply_vec(u.vector())
            acc += np.conj(data.e(u, v)) * _alpha(a.fiber(v), tu, ctx.rank)
        out[v.coords] = acc / ctx.size
    return out


def reference_dimension(data):
    """Sum of the ranks of the fiberwise projector matrices."""
    ctx = data.context
    points = list(ctx.points())
    index = {p.coords: i for i, p in enumerate(points)}
    total = 0
    for v in points:
        proj = np.zeros((ctx.size, ctx.size), dtype=np.complex128)
        for u in points:
            tu = ctx.point(tuple(data.t.apply_vec(u.vector())))
            weight = np.conj(data.e(u, v)) / ctx.size
            # alpha_{Tu} sends the basis function at xi to the one at xi - Tu
            for xi in points:
                proj[index[(xi - tu).coords], index[xi.coords]] += weight
        total += int(np.linalg.matrix_rank(proj, tol=1e-8))
    return total


def reference_twisted(a, b, sigma_hat):
    """sum_u sigma_hat(u - v, u) a(u) alpha_u[b(v - u)], one (u, v) pair at a time."""
    ctx = a.context
    out = np.zeros_like(a.table)
    for u in ctx.points():
        fiber_a = a.fiber(u)
        if not fiber_a.any():
            continue
        for v in ctx.points():
            shifted = _alpha(b.fiber(v - u), u.vector(), ctx.rank)
            out[v.coords] += sigma_hat(u - v, u) * fiber_a * shifted
    return out


def reference_conv(a, b):
    ctx = a.context
    out = np.zeros_like(a.table)
    for u in ctx.points():
        for v in ctx.points():
            out[v.coords] += a.fiber(u) * _alpha(b.fiber(v - u), u.vector(), ctx.rank)
    return out


def finite_data(moduli, sigma, e):
    ctx = GroupContext.finite(moduli)
    return DeformedActionData.from_cocycles(Bicharacter(ctx, sigma), Bicharacter(ctx, e))


def singular_data(moduli, sigma):
    ctx = GroupContext.finite(moduli)
    s = Bicharacter(ctx, sigma)
    e = Bicharacter(ctx, np.eye(ctx.rank, dtype=np.int64))
    return DeformedActionData(s, e)


REFERENCE_CASES = {
    "Z5": lambda: finite_data(5, [[1]], [[1]]),
    "Z7": lambda: finite_data(7, [[3]], [[1]]),
    "Z17": lambda: finite_data(17, [[5]], [[1]]),
    "Z31": lambda: finite_data(31, [[7]], [[1]]),
    "Z5xZ5-S1": lambda: finite_data([5, 5], [[2, 1], [0, 3]], np.eye(2, dtype=int)),
    "Z5xZ5-S2": lambda: finite_data([5, 5], [[1, 2], [4, 0]], np.eye(2, dtype=int)),
    "Z5-singular": lambda: singular_data(5, [[0]]),
    "Z4xZ4-singular": lambda: singular_data([4, 4], [[2, 0], [0, 0]]),
    "Z5-e3": lambda: finite_data(5, [[2]], [[3]]),
    # a non-symmetric e tells E v from E^T v in the mask
    "Z5xZ5-e-skewed": lambda: finite_data([5, 5], [[2, 1], [0, 3]], [[1, 1], [0, 1]]),
}


class TestKernelsAgainstReference:
    @pytest.fixture(params=list(REFERENCE_CASES), ids=list(REFERENCE_CASES))
    def data(self, request):
        return REFERENCE_CASES[request.param]()

    def test_dimension(self, data):
        assert fixed_point_dimension(data) == reference_dimension(data)

    def test_projection(self, data):
        rng = np.random.default_rng(30)
        for _ in range(3):
            a = random_crossed(data.context, rng)
            got = spectral_project(a, data).table
            bound = 1e-13 * np.max(np.abs(a.table))
            assert np.max(np.abs(got - reference_project(a, data))) <= bound

    def test_projection_is_fixed_and_idempotent(self, data):
        rng = np.random.default_rng(31)
        once = spectral_project(random_crossed(data.context, rng), data)
        assert fixed_point_test(once, data).ok
        assert spectral_project(once, data).linf_distance(once) <= 1e-13

    def test_convolutions_bitwise(self, data):
        rng = np.random.default_rng(32)
        ctx = data.context
        a, b = random_crossed(ctx, rng), random_crossed(ctx, rng)
        # a zero fiber exercises the skipped terms
        a = a.with_fiber(ctx.point((1,) * ctx.rank), np.zeros(tuple(ctx.moduli)))
        for sigma_hat in (data.sigma, data.e, Bicharacter.trivial(ctx)):
            got = twisted_crossed_dual(a, b, sigma_hat).table
            assert np.array_equal(got, reference_twisted(a, b, sigma_hat))
        assert np.array_equal(crossed_conv(a, b).table, reference_conv(a, b))
