from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from startwist.abelian import (
    FiniteVector,
    GroupContext,
    fourier,
    pairing_many,
)

CONTEXTS = [
    GroupContext.finite(5),
    GroupContext.finite(7),
    GroupContext.finite([4, 4]),
]


def random_vector(ctx, rng):
    shape = tuple(ctx.moduli)
    return FiniteVector(ctx, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


class TestContext:
    def test_rank_validation(self):
        with pytest.raises(ValueError):
            GroupContext.lattice(0)

    def test_moduli_validation(self):
        with pytest.raises(ValueError):
            GroupContext.finite([1])
        with pytest.raises(ValueError):
            GroupContext(2, (3,))

    def test_size_and_norm_const(self):
        ctx = GroupContext.finite([4, 4])
        assert ctx.size == 16
        assert ctx.norm_const == 0.25

    def test_lattice_has_no_size(self):
        with pytest.raises(ValueError):
            GroupContext.lattice(2).size

    def test_non_integers_rejected_not_truncated(self):
        with pytest.raises(TypeError):
            GroupContext.lattice(2).point(1.5, -0.9)
        with pytest.raises(TypeError):
            GroupContext.finite([2.7])
        with pytest.raises(TypeError):
            GroupContext.lattice(1.5)

    def test_numpy_integers_accepted(self):
        ctx = GroupContext.finite(np.array([3, 4]))
        assert ctx == GroupContext.finite([3, 4])
        assert ctx.moduli == (3, 4) and type(ctx.moduli[0]) is int
        p = ctx.point(np.int64(5), np.int32(-1))
        assert p.coords == (2, 3) and type(p.coords[0]) is int
        assert GroupContext.lattice(2).point(np.arange(2)).coords == (0, 1)

    def test_numpy_integer_modulus(self):
        # one modulus is any value operator.index reads
        ctx = GroupContext.finite(np.int64(5))
        assert ctx == GroupContext.finite(5) and type(ctx.moduli[0]) is int

    def test_point_reduction(self):
        ctx = GroupContext.finite(5)
        assert ctx.point(7).coords == (2,)
        assert ctx.point(-2).coords == (3,)

    def test_point_length_mismatch(self):
        with pytest.raises(ValueError):
            GroupContext.lattice(2).point(1)

    def test_cross_context_arithmetic_rejected(self):
        with pytest.raises(ValueError):
            GroupContext.finite(5).point(1) + GroupContext.finite(7).point(1)


def pairing(ctx, u, xi):
    """The pairing of one point with xi, through ``pairing_many``."""
    return complex(pairing_many(ctx, [u.coords], xi)[0])


class TestPairing:
    def test_z4_generator(self):
        ctx = GroupContext.finite(4)
        assert pairing(ctx, ctx.point(1), ctx.point(1)) == pytest.approx(1j)

    def test_identity_pairs_trivially(self):
        for ctx in CONTEXTS:
            zero = ctx.point((0,) * ctx.rank)
            for xi in ctx.points():
                assert pairing(ctx, zero, xi) == pytest.approx(1.0)

    def test_z5_example(self):
        ctx = GroupContext.finite(5)
        expected = np.exp(12j * np.pi / 5)
        assert pairing(ctx, ctx.point(2), ctx.point(3)) == pytest.approx(expected)

    def test_lattice_torus_pairing(self):
        ctx = GroupContext.lattice(2)
        values = pairing_many(ctx, [[2, -1], [1, 0], [0, 0]], [0.25, 0.5])
        assert values == pytest.approx([1.0, 1j, 1.0])

    def test_biadditivity_exhaustive_z5(self):
        # every row u + v against the product of rows u and v, for each xi
        ctx = GroupContext.finite(5)
        us, vs = np.divmod(np.arange(25), 5)
        for xi in ctx.points():
            lhs = pairing_many(ctx, (us + vs)[:, None] % 5, xi)
            rhs = pairing_many(ctx, us[:, None], xi) * pairing_many(ctx, vs[:, None], xi)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8))
    def test_biadditivity_z4_squared(self, a, b, c, d):
        ctx = GroupContext.finite([4, 4])
        u, v = ctx.point(a, b), ctx.point(c, d)
        xi = ctx.point(3, 1)
        assert abs(
            pairing(ctx, u + v, xi) - pairing(ctx, u, xi) * pairing(ctx, v, xi)
        ) <= 1e-12

    @pytest.mark.parametrize("n", [10**8 + 7, 3 * 10**9 + 19, 10**12])
    def test_exact_at_large_modulus(self, n):
        # (N - 1)^2 loses bits in a float from 10**8 on and wraps int64 past 3.04e9
        ctx = GroupContext.finite(n)
        top = ctx.point(n - 1)
        expected = np.exp(2j * np.pi * (((n - 1) ** 2) % n) / n)
        assert abs(pairing(ctx, top, top) - expected) <= 1e-15

    def test_exact_at_mixed_large_moduli(self):
        moduli = (10**12, 10**12 - 1, 3)
        ctx = GroupContext.finite(moduli)
        u = ctx.point(tuple(m - 1 for m in moduli))
        angle = Fraction(0)
        for c, m in zip(u.coords, moduli):
            angle += Fraction(c * c % m, m)
        expected = np.exp(2j * np.pi * float(angle % 1))
        assert abs(pairing(ctx, u, u) - expected) <= 1e-15

    def test_dimension_mismatch(self):
        ctx = GroupContext.lattice(2)
        with pytest.raises(ValueError, match="torus point"):
            pairing_many(ctx, [[1, 0]], [0.5])

    @pytest.mark.parametrize(
        "ctx, rows, xi, message",
        [
            (GroupContext.finite(5), [[1.5]], 1, "coordinates must hold integers"),
            (GroupContext.lattice(1), [[0.5]], [0.5], "coordinates must hold integers"),
            (GroupContext.lattice(1), [[1, 2]], [0.5],
             "need coordinate rows of shape (k, 1), got (1, 2)"),
            (GroupContext.lattice(2), [1, 2], [0.5, 0.5],
             "need coordinate rows of shape (k, 2), got (2,)"),
        ],
        ids=["Z5:1.5", "Z:0.5", "Z:two-columns", "Z2:one-row-flat"],
    )
    def test_rows_read_exactly(self, ctx, rows, xi, message):
        # neither truncated (1.5 would pair as 1) nor broadcast against xi
        if ctx.is_finite:
            xi = ctx.point(xi)
        with pytest.raises(ValueError) as err:
            pairing_many(ctx, rows, xi)
        assert str(err.value) == message

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_non_finite_torus_point_rejected(self, entry):
        # a NaN would pair as nan+nanj, and an inf warn inside the multiply
        with pytest.raises(ValueError, match="^torus point entries must be finite$"):
            pairing_many(GroupContext.lattice(2), [[1, 0]], [0.5, entry])

    def test_wrong_context_rejected(self):
        # coordinate rows carry no context; the second argument must belong to ctx
        ctx5 = GroupContext.finite(5)
        ctx7 = GroupContext.finite(7)
        for xi in (ctx7.point(1), [0.5]):
            with pytest.raises(ValueError, match="second argument"):
                pairing_many(ctx5, [[1]], xi)


class TestFiniteVector:
    def test_flat_values_in_points_order(self):
        ctx = GroupContext.finite([5, 5])
        f = FiniteVector(ctx, np.arange(25))
        assert f.values.shape == (5, 5)
        assert [f.values[p.coords] for p in ctx.points()] == list(range(25))

    @pytest.mark.parametrize(
        "moduli, shape",
        [(25, (5, 5)), (25, (1, 25)), ([5, 5], (1, 25)), ([5, 5], (24,)), ([5, 5], (5, 5, 1))],
    )
    def test_other_shapes_refused(self, moduli, shape):
        # a table of |V| entries in another shape is not reshaped
        ctx = GroupContext.finite(moduli)
        message = r"^FiniteVector shape \(.*\) is neither \(.*\) nor flat \(\d+,\)$"
        with pytest.raises(ValueError, match=message):
            FiniteVector(ctx, np.zeros(shape))


class TestFourier:
    def test_delta_at_identity_becomes_constant(self):
        for ctx in CONTEXTS:
            f = FiniteVector(ctx, np.eye(1, ctx.size)[0])  # delta at the zero point
            f_hat = fourier(f)
            assert np.allclose(f_hat.values, ctx.norm_const)

    def test_parseval_isometry_200_random(self):
        rng = np.random.default_rng(7)
        for ctx in CONTEXTS:
            for _ in range(200):
                f = random_vector(ctx, rng)
                assert abs(np.linalg.norm(fourier(f).values) - np.linalg.norm(f.values)) <= 1e-12

    def test_double_transform_is_parity(self):
        rng = np.random.default_rng(8)
        for ctx in CONTEXTS:
            f = random_vector(ctx, rng)
            g = fourier(fourier(f))
            for p in ctx.points():
                assert abs(g.values[p.coords] - f.values[ctx.point(-p.vector()).coords]) <= 1e-12

    def test_round_trip(self):
        # F^2 is the reflection, so F^4 is the identity and F is invertible
        rng = np.random.default_rng(9)
        for ctx in CONTEXTS:
            f = random_vector(ctx, rng)
            reflected = FiniteVector(
                ctx, [f.values[ctx.point(-p.vector()).coords] for p in ctx.points()]
            )
            twice = fourier(fourier(f))
            assert twice.linf_distance(reflected) <= 1e-12
            assert fourier(fourier(twice)).linf_distance(f) <= 1e-12

    def test_constant_inverts_to_scaled_delta(self):
        # F(delta_0) is the constant |V|^(-1/2), so F(c) = c |V|^(1/2) delta_0
        ctx = GroupContext.finite(5)
        c = 0.3 - 0.4j
        out = fourier(FiniteVector(ctx, np.full(ctx.moduli, c)))
        expected = FiniteVector(ctx, np.eye(1, ctx.size)[0] * (c * np.sqrt(ctx.size)))
        assert out.linf_distance(expected) <= 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(10)
        ctx = GroupContext.finite(7)
        f, g = random_vector(ctx, rng), random_vector(ctx, rng)
        lhs = fourier(FiniteVector(ctx, f.values + 2j * g.values))
        rhs = FiniteVector(ctx, fourier(f).values + 2j * fourier(g).values)
        assert lhs.linf_distance(rhs) <= 1e-12

    def test_shift_law(self):
        # transform of a translate is a character multiple of the transform
        rng = np.random.default_rng(11)
        ctx = GroupContext.finite(5)
        f = random_vector(ctx, rng)
        for w in ctx.points():
            shifted = FiniteVector(
                ctx, np.roll(f.values, shift=tuple(-w.vector()), axis=(0,))
            )
            lhs = fourier(shifted)
            for v in ctx.points():
                brute = ctx.norm_const * sum(
                    pairing(ctx, v, xi) * f.values[(xi + w).coords] for xi in ctx.points()
                )
                expected = np.conj(pairing(ctx, v, w)) * fourier(f).values[v.coords]
                assert abs(lhs.values[v.coords] - brute) <= 1e-12
                assert abs(lhs.values[v.coords] - expected) <= 1e-12

    def test_lattice_vectors_rejected(self):
        with pytest.raises(ValueError):
            FiniteVector(GroupContext.lattice(1), [0.0])
