import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from startwist.abelian import GroupContext
from startwist.cocycles import (
    Bicharacter,
    LinearMap,
    SkewForm,
    T_map,
    antisymmetrize,
    cocycle_check,
    cohomologous_check,
    is_nondegenerate,
    sigma_one,
)
from startwist.modarith import mat_inv_mod

LATTICE2 = GroupContext.lattice(2)
Z5 = GroupContext.finite(5)
Z7 = GroupContext.finite(7)


def random_triples(ctx, rng, count, box=6):
    out = []
    for _ in range(count):
        pts = [ctx.point(tuple(rng.integers(-box, box + 1, size=ctx.rank))) for _ in range(3)]
        out.append(tuple(pts))
    return out


class TestSkewForm:
    def test_rejects_non_skew(self):
        with pytest.raises(ValueError):
            SkewForm([[0, 1], [1, 0]])

    def test_standard_symplectic(self):
        j = SkewForm.standard_symplectic(1)
        assert j.matrix.tolist() == [[0, 1], [-1, 0]]

    def test_evaluation(self):
        j = SkewForm.standard_symplectic(1)
        assert j(LATTICE2.point(1, 0), LATTICE2.point(0, 1)) == 1.0


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

    @pytest.mark.parametrize("entry", [1.7, -0.5, np.nan, np.inf])
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
            scalar = np.array([form(p, q) for p, q in pts])
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
    def test_trivial_passes_with_zero_deviation(self):
        rng = np.random.default_rng(2)
        triples = random_triples(LATTICE2, rng, 20)
        assert cocycle_check(Bicharacter.trivial(LATTICE2), triples) == 0.0

    def test_exponent_form_passes(self):
        rng = np.random.default_rng(3)
        sigma = Bicharacter(LATTICE2, rng.uniform(-2, 2, (2, 2)), hbar=1.1)
        assert cocycle_check(sigma, random_triples(LATTICE2, rng, 500)) <= 1e-12

    def test_perturbed_table_fails(self):
        rng = np.random.default_rng(4)
        sigma = Bicharacter.from_skew(LATTICE2, SkewForm.standard_symplectic(1), 0.5)

        def perturbed(x, y):
            # non-multiplicative phase noise keyed off the arguments
            return sigma(x, y) * np.exp(0.5j * np.sin(x.coords[0] * 2.1 + y.coords[1]))

        dev = cocycle_check(perturbed, random_triples(LATTICE2, rng, 200))
        assert not dev <= 1e-9 and dev > 0.1

    def test_exhaustive_finite_contexts_up_to_125(self):
        for moduli, matrix in [((5,), [[2]]), ((5, 5), [[1, 2], [3, 4]]), ((125,), [[7]])]:
            ctx = GroupContext.finite(moduli)
            pts = list(ctx.points())
            triples = [(x, y, z) for x in pts for y in pts for z in pts]
            sigma = Bicharacter(ctx, matrix)
            if ctx.size > 25:
                # chunk the cube to keep memory flat
                step = 50_000
                worst = 0.0
                for i in range(0, len(triples), step):
                    dev = cocycle_check(sigma, triples[i : i + step])
                    assert dev <= 1e-9
                    worst = max(worst, dev)
                assert worst <= 1e-12
            else:
                assert cocycle_check(sigma, triples) <= 1e-12

    def test_nan_phase_reads_nan(self):
        rng = np.random.default_rng(5)
        sigma = Bicharacter.from_skew(LATTICE2, SkewForm.standard_symplectic(1), 0.5)
        far = LATTICE2.point(1000, 1000)
        triples = random_triples(LATTICE2, rng, 20) + [(far, far, far)]

        def poisoned(x, y):
            # NaN only on the last triple, after finite deviations
            return complex(np.nan) if x == far else sigma(x, y)

        dev = cocycle_check(poisoned, triples)
        assert np.isnan(dev)
        assert not dev <= 1e-9

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            cocycle_check(Bicharacter.trivial(LATTICE2), [])


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
        sigma = Bicharacter.trivial(LATTICE2)
        m = sigma_one(sigma)
        assert np.all(m.matrix == 0.0)
        assert not is_nondegenerate(sigma)

    def test_symplectic_nondegenerate(self):
        sigma = Bicharacter.from_skew(LATTICE2, SkewForm.standard_symplectic(1), 0.5)
        assert is_nondegenerate(sigma)

    def test_finite_inverse_example(self):
        sigma = Bicharacter(Z5, [[2]])
        assert is_nondegenerate(sigma)
        inv = sigma_one(sigma).inverse()
        assert inv.matrix.tolist() == [[3]]

    def test_pairing_realization(self):
        # sigma(xi, eta) must equal the pairing of sigma^1(xi) with eta
        from startwist.abelian import pairing

        sigma = Bicharacter(Z7, [[3]])
        s1 = sigma_one(sigma)
        for xi in Z7.points():
            for eta in Z7.points():
                assert abs(sigma(xi, eta) - pairing(Z7, s1.apply(xi), eta)) <= 1e-12


class TestTMap:
    def test_inverse_pair_gives_identity(self):
        # choose sigma with sigma^1 inverse to e^1: B^T = (E^T)^{-1}
        e = Bicharacter(Z5, [[2]])
        sigma = Bicharacter(Z5, [[3]])  # 3 = 2^{-1} mod 5
        t, _ = T_map(sigma, e)
        assert t.matrix.tolist() == [[1]]

    def test_antisymmetric_sigma_symmetric_e(self):
        ctx = GroupContext.finite([5, 5])
        sigma = Bicharacter(ctx, [[0, 1], [4, 0]])  # skew mod 5
        e = Bicharacter(ctx, [[1, 0], [0, 1]])
        assert sigma.is_antisymmetric
        t, t_adj = T_map(sigma, e)
        assert np.array_equal((t.matrix + t_adj.matrix) % 5, np.zeros((2, 2)))

    def test_adjoint_relation_exhaustive(self):
        ctx = GroupContext.finite(7)
        sigma = Bicharacter(ctx, [[3]])
        e = Bicharacter(ctx, [[2]])
        t, t_adj = T_map(sigma, e)
        for u in ctx.points():
            for w in ctx.points():
                lhs = e(t_adj.apply(u), w)
                rhs = e(u, t.apply(w))
                assert abs(lhs - rhs) <= 1e-12

    def test_modular_matrix_product(self):
        sigma = Bicharacter(Z7, [[3]])
        e = Bicharacter(Z7, [[2]])
        t, _ = T_map(sigma, e)
        assert t.matrix.tolist() == [[6]]

    def test_large_modulus_products_are_exact(self):
        # rank 3 near 2**31: int64 products of reduced entries would wrap
        n = 2**31 - 1
        ctx = GroupContext.finite([n] * 3)
        s = [[n - 1, n - 2, n - 3], [n - 5, n - 7, 1], [2, n - 11, n - 13]]
        m = [[1, n - 1, n - 2], [0, 1, n - 3], [0, 0, 1]]  # unit determinant
        t, t_adj = T_map(Bicharacter(ctx, s), Bicharacter(ctx, m))

        def product(a, b):
            return [[sum(a[i][k] * b[k][j] for k in range(3)) % n for j in range(3)]
                    for i in range(3)]

        transpose = [list(row) for row in zip(*m)]
        expected_t = product([list(row) for row in zip(*s)], transpose)
        assert t.matrix.tolist() == expected_t
        e_inv_t = mat_inv_mod(np.array(transpose), n).tolist()
        expected_t_adj = product(product(e_inv_t, [list(r) for r in zip(*expected_t)]), transpose)
        assert t_adj.matrix.tolist() == expected_t_adj
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
        t, _ = T_map(sigma, e)
        e1 = LinearMap(e.matrix.T % 5, 5)
        for u in ctx.points():
            for v in ctx.points():
                lhs = sigma(e1.apply(u), e1.apply(v))
                rhs = e(t.apply(u), v)
                assert abs(lhs - rhs) <= 1e-12
