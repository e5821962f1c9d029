import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from startwist.abelian import GroupContext, pairing_many
from startwist.cocycles import (
    Bicharacter,
    LinearMap,
    SkewForm,
    T_map,
    antisymmetrize,
    cohomologous_check,
    is_nondegenerate,
    sigma_one,
)
from startwist.modarith import matmul_mod

LATTICE2 = GroupContext.lattice(2)
Z5 = GroupContext.finite(5)
Z7 = GroupContext.finite(7)


class TestSkewForm:
    def test_rejects_non_skew(self):
        with pytest.raises(ValueError):
            SkewForm([[0, 1], [1, 0]])

    def test_standard_symplectic(self):
        j = SkewForm.standard_symplectic(1)
        assert j.matrix.tolist() == [[0, 1], [-1, 0]]

    def test_evaluation(self):
        j = SkewForm.standard_symplectic(1)
        assert j.eval_many([[1, 0]], [[0, 1]]).tolist() == [1.0]

    @pytest.mark.parametrize("entry", [np.inf, np.nan])
    def test_non_finite_rejected(self, entry):
        with pytest.raises(ValueError, match="skew form matrix entries must be finite"):
            SkewForm([[0, entry], [-entry, 0]])


class TestLinearMap:
    def test_non_integer_matrix_rejected(self):
        with pytest.raises(ValueError, match="linear map matrix must hold integers"):
            LinearMap([[2.5]], 5)

    def test_modulus_required(self):
        with pytest.raises(TypeError):
            LinearMap([[1.0]])

    @pytest.mark.parametrize("modulus", [0, -3])
    def test_modulus_below_one_rejected(self, modulus):
        # rejected by name before any reduction, so no remainder warning either
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"modulus must be at least 1, got {modulus}"):
                LinearMap([[1]], modulus)

    def test_numpy_integer_modulus(self):
        # the modulus is read by operator.index, so a float is refused
        m = LinearMap([[7]], np.int64(5))
        assert m == LinearMap([[7]], 5) and type(m.modulus) is int
        with pytest.raises(TypeError):
            LinearMap([[1]], 5.0)

    def test_modulus_beyond_2_31_accepted(self):
        # T_map passes the moduli of Z/10**12 cocycles, past check_modulus's cap
        m = LinearMap([[10**12 + 3]], 10**12)
        assert m.modulus == 10**12
        assert m.matrix.tolist() == [[3]]


class TestEval:
    def test_trivial_is_one(self):
        sigma = Bicharacter.trivial(LATTICE2)
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = LATTICE2.point(tuple(rng.integers(-5, 6, size=2)))
            q = LATTICE2.point(tuple(rng.integers(-5, 6, size=2)))
            assert sigma(p, q) == 1.0

    def test_symplectic_half(self):
        sigma = Bicharacter.from_skew(LATTICE2, SkewForm.standard_symplectic(1), 0.5)
        value = sigma(LATTICE2.point(1, 0), LATTICE2.point(0, 1))
        assert value == pytest.approx(-1j)

    def test_finite_example(self):
        sigma = Bicharacter(Z5, [[1]])
        assert sigma(Z5.point(2), Z5.point(3)) == pytest.approx(np.exp(12j * np.pi / 5))

    def test_context_mismatch(self):
        sigma = Bicharacter(Z5, [[1]])
        with pytest.raises(ValueError):
            sigma(Z7.point(1), Z5.point(1))

    def test_unit_modulus(self):
        rng = np.random.default_rng(1)
        sigma = Bicharacter(LATTICE2, rng.uniform(-2, 2, (2, 2)), hbar=0.7)
        for _ in range(50):
            p = LATTICE2.point(tuple(rng.integers(-5, 6, size=2)))
            q = LATTICE2.point(tuple(rng.integers(-5, 6, size=2)))
            assert abs(abs(sigma(p, q)) - 1.0) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(-6, 6), st.integers(-6, 6),
        st.integers(-6, 6), st.integers(-6, 6),
        st.integers(-6, 6), st.integers(-6, 6),
    )
    def test_bicharacter_laws(self, a, b, c, d, e, f):
        sigma = Bicharacter.from_skew(LATTICE2, SkewForm.standard_symplectic(1), 0.37)
        x, y, z = LATTICE2.point(a, b), LATTICE2.point(c, d), LATTICE2.point(e, f)
        assert abs(sigma(x + y, z) - sigma(x, z) * sigma(y, z)) <= 1e-12
        assert abs(sigma(x, y + z) - sigma(x, y) * sigma(x, z)) <= 1e-12

    def test_mixed_moduli_rejected(self):
        with pytest.raises(ValueError):
            Bicharacter(GroupContext.finite([2, 3]), [[0, 1], [1, 0]])

    @pytest.mark.parametrize("entry", [1.7, -0.5, np.nan, np.inf, 1 + 0j])
    def test_finite_non_integer_exponent_rejected(self, entry):
        with pytest.raises(ValueError, match="exponent matrix must hold integers"):
            Bicharacter(Z5, [[entry]])

    def test_finite_integer_valued_floats_accepted(self):
        sigma = Bicharacter(Z5, [[7.0]])
        assert sigma.matrix.dtype == np.int64 and sigma.matrix.tolist() == [[2]]

    @pytest.mark.parametrize("hbar", [np.nan, np.inf, -np.inf])
    def test_lattice_non_finite_hbar_rejected(self, hbar):
        with pytest.raises(ValueError, match="hbar must be finite"):
            Bicharacter(LATTICE2, np.eye(2), hbar=hbar)

    @pytest.mark.parametrize("hbar", [[0.5], np.ones((1, 1))])
    def test_lattice_hbar_is_one_number(self, hbar):
        with pytest.raises(ValueError, match=r"^hbar must be one number, got shape \("):
            Bicharacter(LATTICE2, np.eye(2), hbar=hbar)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_lattice_non_finite_matrix_rejected(self, entry):
        with pytest.raises(ValueError, match="exponent matrix entries must be finite"):
            Bicharacter(LATTICE2, [[0.0, entry], [0.0, 0.0]], hbar=0.5)

    @pytest.mark.parametrize(
        "ctx",
        [GroupContext.lattice(1), LATTICE2, GroupContext.lattice(4), Z7,
         GroupContext.finite([5, 5])],
        ids=["Z", "Z2", "Z4", "Z7", "Z5xZ5"],
    )
    def test_scalar_and_batched_phases_agree_bitwise(self, ctx):
        # the delta relation compares a product phase with a scalar phase
        # exactly, so the two evaluations must not differ even in the last bit
        rng = np.random.default_rng(31)
        n = ctx.rank
        pts = [
            (ctx.point(x), ctx.point(y))
            for x, y in rng.integers(-9, 10, (1000, 2, n))
        ]
        xs = np.array([p.coords for p, _ in pts])
        ys = np.array([q.coords for _, q in pts])
        if ctx.is_finite:
            sigma = Bicharacter(ctx, rng.integers(0, 7, (n, n)))
        else:
            sigma = Bicharacter(ctx, rng.uniform(-2, 2, (n, n)), hbar=0.73)
            u = rng.uniform(-2, 2, (n, n))
            form = SkewForm(u - u.T)
            scalar = np.array([form.eval_many([p.coords], [q.coords])[0] for p, q in pts])
            assert np.array_equal(form.eval_many(xs, ys), scalar)
        scalar = np.array([sigma(p, q) for p, q in pts])
        assert np.array_equal(sigma.eval_many(xs, ys), scalar)

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 31, 256, 1009, 65537])
    def test_finite_phases_equal_root_table_bitwise(self, n):
        # each phase is computed from its exponent; it must equal the entry of
        # the table of N-th roots of unity that it replaces, to the last bit
        ctx = GroupContext.finite([n, n])
        rng = np.random.default_rng(n)
        sigma = Bicharacter(ctx, rng.integers(-n, n, (2, 2)))
        xs, ys = rng.integers(0, n, (2, 5000, 2))
        exponents = np.einsum("ki,ij,kj->k", xs, sigma.matrix, ys) % n
        roots = np.exp(2j * np.pi * np.arange(n) / n)
        assert np.array_equal(sigma.eval_many(xs, ys), roots[exponents])

    # moduli on both sides of the largest N with rank (N-1)^2 < 2**63, and far
    # beyond it, at points and entries near N where int64 products would wrap
    @pytest.mark.parametrize(
        "n, rank",
        [(3_037_000_500, 1), (3_037_000_501, 1), (2**31, 2), (2**31 + 1, 2), (10**12, 1),
         (10**12, 3)],
    )
    def test_large_modulus_phases_are_exact(self, n, rank):
        ctx = GroupContext.finite([n] * rank)
        matrix = [[n - 1 - i - 2 * j for j in range(rank)] for i in range(rank)]
        sigma = Bicharacter(ctx, matrix)
        x = [n - 1 - i for i in range(rank)]
        y = [n - 2 - 3 * i for i in range(rank)]
        exponent = sum(x[i] * matrix[i][j] * y[j] for i in range(rank) for j in range(rank))
        expected = np.exp(2j * np.pi * (exponent % n) / n)
        assert sigma(ctx.point(x), ctx.point(y)) == pytest.approx(expected, abs=1e-12)

    def test_huge_modulus_example(self):
        ctx = GroupContext.finite(10**12)
        x = ctx.point(10**11)
        assert Bicharacter(ctx, [[1]])(x, x) == 1.0


class TestCocycleCheck:
    """The 2-cocycle identity, which an exponent form satisfies by construction."""

    @staticmethod
    def deviation(sigma, rng, count):
        xs, ys, zs = rng.integers(-6, 7, size=(3, count, sigma.context.rank))
        lhs = sigma.eval_many(xs, ys) * sigma.eval_many(xs + ys, zs)
        rhs = sigma.eval_many(xs, ys + zs) * sigma.eval_many(ys, zs)
        return np.max(np.abs(lhs - rhs))

    def test_trivial_passes_with_zero_deviation(self):
        rng = np.random.default_rng(2)
        assert self.deviation(Bicharacter.trivial(LATTICE2), rng, 20) == 0.0

    def test_exponent_form_passes(self):
        rng = np.random.default_rng(3)
        sigma = Bicharacter(LATTICE2, rng.uniform(-2, 2, (2, 2)), hbar=1.1)
        assert self.deviation(sigma, rng, 500) <= 1e-12


class TestAntisymmetrize:
    def test_already_skew_unchanged(self):
        sigma = Bicharacter.from_skew(LATTICE2, SkewForm.standard_symplectic(1), 0.5)
        out = antisymmetrize(sigma)
        assert np.array_equal(out.matrix, sigma.matrix)

    def test_symmetric_becomes_trivial(self):
        sigma = Bicharacter(LATTICE2, [[1.0, 2.0], [2.0, 3.0]], hbar=1.0)
        out = antisymmetrize(sigma)
        assert np.all(out.matrix == 0.0)

    def test_skew_part_example(self):
        sigma = Bicharacter(LATTICE2, [[0.0, 2.0], [0.0, 0.0]], hbar=1.0)
        out = antisymmetrize(sigma)
        assert out.matrix.tolist() == [[0.0, 1.0], [-1.0, 0.0]]

    def test_idempotent_and_cohomologous(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            sigma = Bicharacter(LATTICE2, rng.uniform(-2, 2, (2, 2)), hbar=0.9)
            once = antisymmetrize(sigma)
            twice = antisymmetrize(once)
            assert np.array_equal(once.matrix, twice.matrix)
            assert cohomologous_check(sigma, once)
            assert once.is_antisymmetric

    def test_finite_mode(self):
        sigma = Bicharacter(Z5, [[1]])
        out = antisymmetrize(sigma)
        assert out.is_antisymmetric
        assert cohomologous_check(sigma, out)

    def test_even_modulus_rejected(self):
        sigma = Bicharacter(GroupContext.finite(4), [[1]])
        with pytest.raises(ValueError):
            antisymmetrize(sigma)


class TestCohomologousCheck:
    def test_reflexive(self):
        sigma = Bicharacter(LATTICE2, [[0.3, 1.0], [-0.2, 0.0]], hbar=1.0)
        assert cohomologous_check(sigma, sigma)

    def test_symmetric_shift(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(-1, 1, (2, 2))
        s = rng.uniform(-1, 1, (2, 2))
        s = s + s.T
        s1 = Bicharacter(LATTICE2, a, hbar=1.0)
        s2 = Bicharacter(LATTICE2, a + s, hbar=1.0)
        assert cohomologous_check(s1, s2)

    def test_skew_difference_fails(self):
        s1 = Bicharacter.from_skew(LATTICE2, SkewForm.standard_symplectic(1), 1.0)
        s2 = Bicharacter.from_skew(LATTICE2, SkewForm([[0.0, 2.0], [-2.0, 0.0]]), 1.0)
        assert not cohomologous_check(s1, s2)

    def test_context_mismatch(self):
        with pytest.raises(ValueError):
            cohomologous_check(Bicharacter(Z5, [[1]]), Bicharacter(Z7, [[1]]))


class TestSigmaOne:
    def test_trivial_is_degenerate_zero_map(self):
        sigma = Bicharacter.trivial(GroupContext.finite([5, 5]))
        m = sigma_one(sigma)
        assert np.all(m.matrix == 0)
        assert not is_nondegenerate(sigma)

    def test_symplectic_nondegenerate(self):
        sigma = Bicharacter(GroupContext.finite([5, 5]), [[0, 1], [-1, 0]])
        assert is_nondegenerate(sigma)

    def test_lattice_rejected(self):
        # the dual torus carries no nondegenerate bicharacter: finite mode only
        sigma = Bicharacter.from_skew(LATTICE2, SkewForm.standard_symplectic(1), 0.5)
        for routine in (sigma_one, is_nondegenerate):
            with pytest.raises(ValueError, match="finite contexts only"):
                routine(sigma)

    def test_finite_inverse_example(self):
        sigma = Bicharacter(Z5, [[2]])
        assert is_nondegenerate(sigma)
        m = sigma_one(sigma)
        assert m.is_invertible()
        # 3 = 2^{-1} mod 5 inverts the slot-one matrix [[2]]
        assert matmul_mod(m.matrix, [[3]], 5).tolist() == [[1]]

    def test_pairing_realization(self):
        # sigma(xi, eta) must equal the pairing of sigma^1(xi) with eta
        sigma = Bicharacter(Z7, [[3]])
        xis = np.arange(7)[:, None]
        images = sigma_one(sigma).apply_vec(xis.T).T
        for eta in Z7.points():
            lhs = sigma.eval_many(xis, np.tile(eta.coords, (7, 1)))
            assert np.max(np.abs(lhs - pairing_many(Z7, images, eta))) <= 1e-12


class TestTMap:
    def test_inverse_pair_gives_identity(self):
        # choose sigma with sigma^1 inverse to e^1: B^T = (E^T)^{-1}
        e = Bicharacter(Z5, [[2]])
        sigma = Bicharacter(Z5, [[3]])  # 3 = 2^{-1} mod 5
        t = T_map(sigma, e)
        assert t.matrix.tolist() == [[1]]

    @staticmethod
    def adjoint_gap(moduli, s, e_matrix):
        """Worst |e(-T u, w) - e(u, T w)| over all u, w."""
        ctx = GroupContext.finite(moduli)
        e = Bicharacter(ctx, e_matrix)
        t = T_map(Bicharacter(ctx, s), e)
        return max(
            abs(e(ctx.point(-t.apply_vec(u.vector())), w) - e(u, ctx.point(t.apply_vec(w.vector()))))
            for u in ctx.points()
            for w in ctx.points()
        )

    def test_antisymmetric_sigma_symmetric_e(self):
        # -T is the e-adjoint of T: T^T E + E T = 0 mod N
        ctx = GroupContext.finite([5, 5])
        sigma = Bicharacter(ctx, [[0, 1], [4, 0]])  # skew mod 5
        e = Bicharacter(ctx, [[1, 2], [2, 3]])
        assert sigma.is_antisymmetric
        t = T_map(sigma, e).matrix
        assert np.array_equal((t.T @ e.matrix + e.matrix @ t) % 5, np.zeros((2, 2)))

    def test_adjoint_relation_exhaustive(self):
        # e(-T u, w) = e(u, T w) for antisymmetric sigma and symmetric e, which
        # the translation by -T u in rieffel_product_finite rests on; on Z/7
        # the only antisymmetric sigma is 0
        for moduli, s, e_matrix in (
            (7, [[0]], [[2]]),
            ([5, 5], [[0, 1], [4, 0]], [[1, 0], [0, 1]]),
            ([5, 5], [[0, 2], [3, 0]], [[1, 2], [2, 3]]),
        ):
            assert self.adjoint_gap(moduli, s, e_matrix) <= 1e-12

    @pytest.mark.parametrize(
        "moduli, s, e_matrix",
        [(7, [[3]], [[2]]), ([5, 5], [[2, 1], [0, 3]], [[1, 2], [2, 3]])],
        ids=["Z7", "Z5xZ5"],
    )
    def test_adjoint_relation_needs_antisymmetric_sigma(self, moduli, s, e_matrix):
        assert not Bicharacter(GroupContext.finite(moduli), s).is_antisymmetric
        assert self.adjoint_gap(moduli, s, e_matrix) > 0.1

    def test_modular_matrix_product(self):
        sigma = Bicharacter(Z7, [[3]])
        e = Bicharacter(Z7, [[2]])
        t = T_map(sigma, e)
        assert t.matrix.tolist() == [[6]]

    def test_large_modulus_products_are_exact(self):
        # rank 3 near 2**31: int64 products of reduced entries would wrap
        n = 2**31 - 1
        ctx = GroupContext.finite([n] * 3)
        s = [[n - 1, n - 2, n - 3], [n - 5, n - 7, 1], [2, n - 11, n - 13]]
        m = [[1, n - 1, n - 2], [0, 1, n - 3], [0, 0, 1]]  # unit determinant
        t = T_map(Bicharacter(ctx, s), Bicharacter(ctx, m))

        def product(a, b):
            return [[sum(a[i][k] * b[k][j] for k in range(3)) % n for j in range(3)]
                    for i in range(3)]

        transpose = [list(row) for row in zip(*m)]
        expected_t = product([list(row) for row in zip(*s)], transpose)
        assert t.matrix.tolist() == expected_t
        u = [n - 1, n - 2, n - 3]
        assert t.apply_vec(u).tolist() == [
            sum(expected_t[i][k] * u[k] for k in range(3)) % n for i in range(3)
        ]

    def test_degenerate_e_rejected(self):
        sigma = Bicharacter(Z5, [[1]])
        with pytest.raises(ValueError):
            T_map(sigma, Bicharacter(Z5, [[0]]))

    def test_lattice_rejected(self):
        sigma = Bicharacter.from_skew(LATTICE2, SkewForm.standard_symplectic(1), 1.0)
        with pytest.raises(ValueError):
            T_map(sigma, sigma)

    def test_proposition_identity(self):
        # for antisymmetric sigma and symmetric e: sigma(e1_u, e1_v) = e(Tu, v)
        ctx = GroupContext.finite([5, 5])
        sigma = Bicharacter(ctx, [[0, 2], [3, 0]])
        e = Bicharacter(ctx, [[1, 2], [2, 3]])
        assert sigma.is_antisymmetric
        t = T_map(sigma, e)
        e1 = LinearMap(e.matrix.T % 5, 5)
        for u in ctx.points():
            for v in ctx.points():
                lhs = sigma(
                    ctx.point(e1.apply_vec(u.vector())), ctx.point(e1.apply_vec(v.vector()))
                )
                rhs = e(ctx.point(t.apply_vec(u.vector())), v)
                assert abs(lhs - rhs) <= 1e-12
