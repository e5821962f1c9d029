from fractions import Fraction

import numpy as np
import pytest

from startwist.abelian import GroupContext
from startwist.cocycles import Bicharacter, SkewForm
from startwist.deform import FourierElement, involution, star
from startwist.norms import (
    MonotonicityError,
    _below_spectrum,
    _lanczos_norm,
    _top_ritz_value,
    _window_operator,
    left_mult_matrix,
    norm_convergence,
    op_norm_estimate,
)

LATTICE1 = GroupContext.lattice(1)
LATTICE2 = GroupContext.lattice(2)
J = SkewForm.standard_symplectic(1)
TRIVIAL1 = Bicharacter.trivial(LATTICE1)
TRIVIAL2 = Bicharacter.trivial(LATTICE2)
# beyond W = 16 the top of both compressed spectra (ROADMAP_ELEMENT at
# hbar = 0.3) is degenerate, s1 - s2 below 1e-14
SHIFT_PAIR = FourierElement(LATTICE2, {LATTICE2.point(1, 0): 1.0, LATTICE2.point(0, 1): 1.0})
ROADMAP_ELEMENT = FourierElement(
    LATTICE2,
    {
        LATTICE2.point(1, 0): 1.0,
        LATTICE2.point(-1, 0): 1.0,
        LATTICE2.point(0, 1): 0.5j,
        LATTICE2.point(0, -1): -0.5j,
    },
)


SKEW = {
    1: SkewForm([[0.0]]),
    2: J,
    3: SkewForm([[0.0, 1.0, 0.5], [-1.0, 0.0, -2.0], [-0.5, 2.0, 0.0]]),
}
# per rank, the largest window of at most 289 points, where the sweeps against
# the dense SVD stop
LAST_DENSE = {1: 144, 2: 8, 3: 2}


def cos_element():
    return FourierElement(LATTICE1, {LATTICE1.point(1): 1.0, LATTICE1.point(-1): 1.0})


def random_element(ctx, rng, max_support=5, box=2):
    n = int(rng.integers(1, max_support + 1))
    coeffs = {}
    while len(coeffs) < n:
        p = ctx.point(tuple(rng.integers(-box, box + 1, size=ctx.rank)))
        coeffs[p] = complex(rng.standard_normal(), rng.standard_normal())
    return FourierElement(ctx, coeffs)


class TestLeftMultMatrix:
    def test_scaled_unit_is_scaled_identity(self):
        c = 1.5 - 2.0j
        a = FourierElement.delta(LATTICE2.point(0, 0), c)
        sigma = Bicharacter.from_skew(LATTICE2, J, 0.5)
        mat = left_mult_matrix(a, sigma, 2)
        assert np.array_equal(mat, c * np.eye(25))

    def test_shift_matrix_for_generator(self):
        a = FourierElement.delta(LATTICE1.point(1))
        mat = left_mult_matrix(a, TRIVIAL1, 2)
        expected = np.zeros((5, 5))
        for r in range(-2, 2):
            expected[r + 1 + 2, r + 2] = 1.0
        assert np.array_equal(mat, expected)

    def test_phases_fill_from_cocycle(self):
        sigma = Bicharacter.from_skew(LATTICE2, J, 0.31)
        p = LATTICE2.point(1, 0)
        a = FourierElement.delta(p)
        w = 2
        mat = left_mult_matrix(a, sigma, w)
        side = 2 * w + 1
        for rx in range(-w, w):
            for ry in range(-w, w + 1):
                r = LATTICE2.point(rx, ry)
                row = (rx + 1 + w) * side + (ry + w)
                col = (rx + w) * side + (ry + w)
                assert mat[row, col] == pytest.approx(sigma(p, r))

    def test_window_too_small_rejected(self):
        a = FourierElement.delta(LATTICE1.point(3))
        with pytest.raises(ValueError):
            left_mult_matrix(a, TRIVIAL1, 2)

    def test_finite_context_rejected(self):
        ctx = GroupContext.finite(5)
        a = FourierElement.delta(ctx.point(1))
        with pytest.raises(ValueError):
            left_mult_matrix(a, Bicharacter(ctx, [[1]]), 2)


class TestOpNormEstimate:
    def test_scaled_unit(self):
        c = 0.3 + 0.4j
        a = FourierElement.delta(LATTICE2.point(0, 0), c)
        sigma = Bicharacter.from_skew(LATTICE2, J, 0.8)
        for w in (1, 3, 6):
            assert op_norm_estimate(a, sigma, w) == pytest.approx(abs(c))

    def test_delta_is_exactly_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            theta = float(rng.uniform(-2, 2))
            sigma = Bicharacter.from_skew(
                LATTICE2, SkewForm([[0.0, theta], [-theta, 0.0]]), 0.7
            )
            p = LATTICE2.point(*rng.integers(-3, 4, size=2))
            w = int(max(np.abs(p.coords), default=1)) + int(rng.integers(1, 4))
            assert op_norm_estimate(FourierElement.delta(p), sigma, w) == 1.0

    def test_commutative_cos_oracle(self):
        est = op_norm_estimate(cos_element(), TRIVIAL1, 64)
        assert abs(est - 2.0) <= 1e-3

    def test_lower_bound_of_sup_norm(self):
        # commutative case: the true norm is the sup of |2 cos|, never exceeded
        for w in (2, 8, 32):
            assert op_norm_estimate(cos_element(), TRIVIAL1, w) <= 2.0 + 1e-12

    def test_zero_element(self):
        assert op_norm_estimate(FourierElement(LATTICE1, {}), TRIVIAL1, 4) == 0.0

    def test_large_window_uses_power_iteration_against_oracle(self):
        # at W = 17 the compressed bilateral shift sum is a Toeplitz tensor
        # identity, top value 2 cos(pi/36)
        a = FourierElement(
            LATTICE2, {LATTICE2.point(1, 0): 1.0, LATTICE2.point(-1, 0): 1.0}
        )
        est = op_norm_estimate(a, Bicharacter.trivial(LATTICE2), 17)
        assert abs(est - 2.0 * np.cos(np.pi / 36.0)) <= 1e-12

    @pytest.mark.parametrize("kernel", [op_norm_estimate, left_mult_matrix])
    @pytest.mark.parametrize(
        "a, sigma, w",
        [
            (FourierElement.delta(GroupContext.finite(5).point(1)),
             Bicharacter(GroupContext.finite(5), [[1]]), 600),
            (FourierElement.delta(LATTICE2.point(1, 0)), TRIVIAL1, 17),
            (FourierElement(LATTICE2, {LATTICE2.point(1, 0): 1.0, LATTICE2.point(0, 1): 0.5}),
             Bicharacter(LATTICE1, [[0.7]], hbar=0.4), 17),
        ],
        ids=["finite-context", "trivial-rank-mismatch", "cocycle-rank-mismatch"],
    )
    def test_inputs_checked_before_either_kernel(self, monkeypatch, kernel, a, sigma, w):
        # the same check guards the oracle matrix and the Lanczos estimate, so
        # an ill-posed window never starts iterating
        def no_iteration(*args):
            raise AssertionError("Lanczos started")

        monkeypatch.setattr("startwist.norms._lanczos_norm", no_iteration)
        with pytest.raises(ValueError):
            kernel(a, sigma, w)

    def test_adjoint_symmetry(self):
        rng = np.random.default_rng(2)
        sigma = Bicharacter.from_skew(LATTICE2, J, 0.9)
        for _ in range(5):
            a = random_element(LATTICE2, rng)
            w = a.support_radius() + 2
            lhs = op_norm_estimate(a, sigma, w)
            rhs = op_norm_estimate(involution(a, sigma), sigma, w)
            assert abs(lhs - rhs) <= 1e-12


def dense_norm(a, sigma, w):
    return float(np.linalg.svd(left_mult_matrix(a, sigma, w), compute_uv=False)[0])


class TestLanczosKernel:
    def test_matches_dense_svd(self):
        rng = np.random.default_rng(1)
        roadmap_sigma = Bicharacter.from_skew(LATTICE2, J, 0.3)
        cases = [(SHIFT_PAIR, TRIVIAL2, w) for w in (2, 7, 11)]
        cases += [(ROADMAP_ELEMENT, roadmap_sigma, w) for w in (3, 8, 12)]
        for hbar in (0.0, 0.43, 1.0):
            sigma = Bicharacter.from_skew(LATTICE2, J, hbar)
            for _ in range(3):
                a = random_element(LATTICE2, rng)
                cases.append((a, sigma, a.support_radius() + int(rng.integers(0, 6))))
        for a, sigma, w in cases:
            dense = dense_norm(a, sigma, w)
            est, steps, residual = _lanczos_norm(a, sigma, w)
            assert abs(est - dense) <= 1e-10 * dense
            assert est <= dense * (1.0 + 1e-12)
            assert steps >= 1 and residual >= 0.0

    @pytest.mark.parametrize("w", [17, 32, 64])
    def test_closed_form_beyond_dense_limit(self, w):
        # with the trivial cocycle delta(+-1,0) + delta(0,+-1) compresses to a
        # Kronecker sum of two path-graph adjacencies, top value 4 cos(pi/(2W+2));
        # at W = 64 the box has 16 641 points, out of the dense SVD's reach
        a = FourierElement(
            LATTICE2,
            {LATTICE2.point(*p): 1.0 for p in ((1, 0), (-1, 0), (0, 1), (0, -1))},
        )
        exact = 4.0 * np.cos(np.pi / (2 * w + 2))
        assert abs(op_norm_estimate(a, TRIVIAL2, w) - exact) <= 1e-12 * exact

    def test_non_finite_coefficients_fail_like_dense_svd(self):
        coords, values = np.array([[1, 0], [0, 1]]), np.array([1.0, np.nan])
        a = FourierElement.from_arrays(LATTICE2, coords, values)
        for w in (1, 8, 17):
            with pytest.raises(np.linalg.LinAlgError):
                op_norm_estimate(a, TRIVIAL2, w)

    def test_non_finite_phases_raise(self):
        # at hbar = 1e308 every phase off the axes is NaN; the estimate would be too
        a = FourierElement.from_arrays(LATTICE2, [[1, 0], [0, 1]], [1.0, 1.0])
        sigma = Bicharacter.from_skew(LATTICE2, J, 1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            for w in (2, 3):
                with pytest.raises(np.linalg.LinAlgError, match="non-finite window estimate"):
                    op_norm_estimate(a, sigma, w)

    def test_step_cap_returns_certified_value(self, monkeypatch):
        monkeypatch.setattr("startwist.norms._LANCZOS_MAX_STEPS", 5)
        sigma = Bicharacter.from_skew(LATTICE2, J, 0.3)
        est, steps, _ = _lanczos_norm(ROADMAP_ELEMENT, sigma, 8)
        assert steps == 5
        assert 0.0 < est <= dense_norm(ROADMAP_ELEMENT, sigma, 8)


def _below_spectrum_exactly(alphas, betas, mu):
    """Sturm's count of tridiag(betas, alphas, betas) below mu in exact arithmetic."""
    pivot = mu - Fraction(alphas[0])
    for alpha, beta in zip(alphas[1:], betas):
        if pivot <= 0:
            return False
        pivot = mu - Fraction(alpha) - Fraction(beta) ** 2 / pivot
    return pivot > 0


class TestTopRitzValue:
    @pytest.mark.parametrize("seed", range(4))
    def test_clears_spectrum_from_any_valid_bracket(self, seed):
        # T as Lanczos builds it on a Gram operator: alphas >= 0, betas > 0.
        # Any top value of a leading block is a lower bound (interlacing), and
        # the step may be anything from below the floor to unbounded
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 200))
        scale = 10.0 ** rng.uniform(-3, 3)
        alphas = list(scale * rng.uniform(0.0, 1.0, k))
        betas = list(scale * rng.uniform(1e-3, 1.0, k - 1))
        tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        top = np.linalg.eigvalsh(tri)[-1]
        pairs = [(alpha, beta * beta) for alpha, beta in zip(alphas[1:], betas)]
        m = int(rng.integers(1, k))
        lead = float(np.linalg.eigvalsh(tri[:m, :m])[-1])
        tol = Fraction(1, 10**15)
        for low, step in ((0.0, np.inf), (lead, np.inf), (lead, 0.0),
                          (lead, 4.0 * (top - lead)), (lead, 1e-3 * scale), (lead, scale)):
            theta = _top_ritz_value(alphas, betas, low, step)
            # the floating-point count the Ritz vector's pivots repeat
            assert _below_spectrum(alphas[0], pairs, theta)
            # the top lies within 1e-15 of theta, relative, by exact counts;
            # eigvalsh itself lands up to 2.2e-15 off on these matrices
            assert _below_spectrum_exactly(alphas, betas, Fraction(theta) * (1 + tol))
            assert not _below_spectrum_exactly(alphas, betas, Fraction(theta) * (1 - tol))
            assert abs(theta - top) <= 4e-15 * top, (low, step)


def _scaled(a, k):
    """2**k a, exactly."""
    return FourierElement.from_arrays(a.context, a.coords, a.values * 2.0**k)


class TestPrescale:
    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("k", [-900, -300, 300, 900])
    def test_power_of_two_scale_is_bitwise(self, rank, k):
        ctx = GroupContext.lattice(rank)
        sigma = Bicharacter.from_skew(ctx, SKEW[rank], 0.43)
        rng = np.random.default_rng(30 + rank)
        for _ in range(3):
            a = random_element(ctx, rng)
            w = max(a.support_radius(), 1) + int(rng.integers(0, 3))
            est = op_norm_estimate(a, sigma, w)
            assert op_norm_estimate(_scaled(a, k), sigma, w) == 2.0**k * est

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-170, 1e-150, 1e150, 1e200])
    def test_scaled_roadmap_element_stays_finite(self, scale):
        # without the power-of-two prescale, Lanczos overflowed at 1e150 and
        # divided by zero at 1e-170; every warning is an error here.  The coefficients round once when
        # scaled, and at W = 9 a relative 1e-16 on them moves the estimate by
        # about 3e-11
        a = FourierElement.from_arrays(LATTICE2, ROADMAP_ELEMENT.coords,
                                       ROADMAP_ELEMENT.values * scale)
        sigma = Bicharacter.from_skew(LATTICE2, J, 0.3)
        for w, rtol in ((4, 1e-12), (9, 1e-9)):
            est = op_norm_estimate(a, sigma, w)
            ref = scale * op_norm_estimate(ROADMAP_ELEMENT, sigma, w)
            assert abs(est - ref) <= rtol * ref
        assert abs(est / scale - dense_norm(ROADMAP_ELEMENT, sigma, 9)) <= 1e-9


def _operator_cases():
    """(id, a, sigma, w) for the flat operator against its dense oracle."""
    rng = np.random.default_rng(17)
    cases = []
    for rank in (1, 2, 3):
        ctx = GroupContext.lattice(rank)
        sigma = Bicharacter.from_skew(ctx, SKEW[rank], 0.43)
        for i in range(3):
            a = random_element(ctx, rng)
            # the support touches the box edge (unless it is the origin alone),
            # then sits inside it
            edge = max(a.support_radius(), 1)
            cases.append((f"rank{rank}-edge-{i}", a, sigma, edge))
            cases.append((f"rank{rank}-inside-{i}", a, sigma, edge + 2))
        origin = FourierElement.delta(ctx.point((0,) * rank), 2 - 1j)
        cases.append((f"rank{rank}-origin", origin, sigma, 2))
    ctx = GroupContext.lattice(1)
    a = random_element(ctx, rng)
    cases.append(("rank1-w150", a, Bicharacter.from_skew(ctx, SKEW[1], 0.43), 150))
    cases.append(("roadmap-17", ROADMAP_ELEMENT, Bicharacter.from_skew(LATTICE2, J, 0.3), 17))
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


class TestWindowOperator:
    @pytest.mark.parametrize("a, sigma, w", _operator_cases())
    def test_matches_left_mult_matrix(self, a, sigma, w):
        forward, adjoint, gram = _window_operator(a, sigma, w)
        mat = left_mult_matrix(a, sigma, w)
        shape = (2 * w + 1,) * a.context.rank
        rng = np.random.default_rng(5)
        for _ in range(2):
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for apply, oracle in ((forward, mat), (adjoint, mat.conj().T)):
                expected = (oracle @ x.reshape(-1)).reshape(shape)
                got = apply(x)
                assert got.shape == shape
                assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)
            # the Gram apply reads A x where the forward pass left it: the same bits
            assert np.array_equal(gram(x), adjoint(forward(x)))

    @pytest.mark.parametrize(
        "a, hbar, w, pinned",
        [
            (ROADMAP_ELEMENT, 0.3, 17, ("0x1.16b9382118ebbp+1", 821, "0x1.1e1b36f830db1p-45")),
            (ROADMAP_ELEMENT, 0.3, 20, ("0x1.16ef65399b879p+1", 577, "0x1.c6c46f385c41dp-27")),
            (SHIFT_PAIR, 0.0, 17, ("0x1.ff7c04eb738ecp+0", 456, "0x1.04c41d1f59be3p-41")),
        ],
        ids=["roadmap-17", "roadmap-20", "shift-pair-17"],
    )
    def test_lanczos_results_pinned(self, a, hbar, w, pinned):
        # (estimate, steps, residual) to the last bit: every operator entry sums
        # its terms in support order, and these move if that order does
        est, steps, residual = _lanczos_norm(a, Bicharacter.from_skew(LATTICE2, J, hbar), w)
        assert (est.hex(), steps, residual.hex()) == pinned


def _budget_cases():
    """(id, a, sigma, w, step cap, expected steps) for the budget identity test."""
    rng = np.random.default_rng(13)
    roadmap_sigma = Bicharacter.from_skew(LATTICE2, J, 0.3)
    cases = [(f"shift-pair-{w}", SHIFT_PAIR, TRIVIAL2, w, None, None) for w in (16, 17)]
    cases += [(f"roadmap-{w}", ROADMAP_ELEMENT, roadmap_sigma, w, None, None) for w in (17, 20)]
    for rank, w in ((1, 150), (2, 9), (2, 13), (3, 3), (3, 4)):
        ctx = GroupContext.lattice(rank)
        sigma = Bicharacter.from_skew(ctx, SKEW[rank], 0.43)
        for i in range(2):
            a = random_element(ctx, rng)
            cases.append((f"random-rank{rank}-{w}-{i}", a, sigma, w, None, None))
    # a multiple of the unit: A^H A is a multiple of the identity, beta = 0 at step 1
    unit = FourierElement.delta(LATTICE2.point(0, 0), 0.5 - 2j)
    cases.append(("one-term", unit, TRIVIAL2, 9, None, 1))
    for cap in (1, 2):
        cases.append((f"cap-{cap}", ROADMAP_ELEMENT, roadmap_sigma, 9, cap, cap))
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


class TestBasisBudget:
    """The Ritz vector sums the kept basis, then the vectors past the budget,
    rerun from the last two kept ones; the result must not depend on where the
    budget falls."""

    @pytest.mark.parametrize("a, sigma, w, cap, steps", _budget_cases())
    def test_result_independent_of_budget(self, monkeypatch, a, sigma, w, cap, steps):
        import startwist.norms as norms_mod

        if cap is not None:
            monkeypatch.setattr(norms_mod, "_LANCZOS_MAX_STEPS", cap)
        dim = (2 * w + 1) ** a.context.rank
        results = []
        for budget in (2 * dim, norms_mod._BASIS_BUDGET, 2**62):
            monkeypatch.setattr(norms_mod, "_BASIS_BUDGET", budget)
            est, steps, residual = _lanczos_norm(a, sigma, w)
            results.append((est.hex(), steps, residual.hex()))
        assert results[0] == results[1] == results[2]
        if steps is not None:
            assert results[0][1] == steps

    def test_traced_peak_grows_by_at_most_the_budget(self, monkeypatch):
        import tracemalloc

        import startwist.norms as norms_mod

        # 140 steps at W = 64, 16 641 points: 7 vectors fit the budget
        a = FourierElement(
            LATTICE2,
            {LATTICE2.point(0, 0): 3.0, LATTICE2.point(1, 0): 1.0, LATTICE2.point(-1, 0): 1.0},
        )
        sigma = Bicharacter.from_skew(LATTICE2, J, 0.3)
        budget = norms_mod._BASIS_BUDGET

        def traced_peak(kept_values):
            monkeypatch.setattr(norms_mod, "_BASIS_BUDGET", kept_values)
            tracemalloc.start()
            try:
                _lanczos_norm(a, sigma, 64)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        floor = traced_peak(2 * 129**2)
        slack = 1.05 * 16 * budget  # 16 B per complex value
        assert traced_peak(budget) - floor <= slack
        # all 140 vectors, 37 MB, would show: the bound can fail
        assert traced_peak(2**62) - floor > slack


class TestDenseLimit:
    """One route on every box: the Lanczos estimate against the dense SVD,
    up to 289 points and just past them."""

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("side", ["dense", "lanczos"])
    def test_matches_dense_svd_on_both_sides(self, monkeypatch, rank, side):
        # "dense": every window from the support radius up to 289 points;
        # "lanczos": the first window beyond.  The rank-1 form is zero, so
        # there the three draws share the windows between them.
        import startwist.norms as norms_mod

        calls = []
        kernel = norms_mod._lanczos_norm

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(norms_mod, "_lanczos_norm", counted)
        ctx = GroupContext.lattice(rank)
        rng = np.random.default_rng(7 + rank)
        estimates = 0
        for i, hbar in enumerate((0.0, 0.43, 1.0)):
            sigma = Bicharacter.from_skew(ctx, SKEW[rank], hbar)
            a = random_element(ctx, rng)
            if side == "dense":
                windows = range(max(a.support_radius(), 1), LAST_DENSE[rank] + 1)
                windows = windows[i::3] if rank == 1 else windows
            else:
                windows = [LAST_DENSE[rank] + 1]
            for w in windows:
                dense = dense_norm(a, sigma, w)
                est = op_norm_estimate(a, sigma, w)
                assert abs(est - dense) <= 1e-12 * dense, w
                assert est <= dense * (1.0 + 1e-12), w
                estimates += 1
        assert len(calls) == estimates

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("hbar", [0.0, 0.3, 1.0])
    def test_one_term_is_exact_beyond_dense_limit(self, rank, hbar):
        # the estimate is clamped into [||a||_2, ||a||_1], both |c| for one
        # term, at every box from the support radius to just past 289 points;
        # unclamped, Lanczos lands an ulp or two off
        ctx = GroupContext.lattice(rank)
        sigma = Bicharacter.from_skew(ctx, SKEW[rank], hbar)
        values = (1.0, -1j, 3 + 4j, 0.75 - 1j, -1.5 + 2j)
        for coords in ((0,) * rank, (1,) + (0,) * (rank - 1), (-3,) + (1,) * (rank - 1)):
            for w in range(max(max(map(abs, coords)), 1), LAST_DENSE[rank] + 2):
                c = values[w % len(values)]
                a = FourierElement.delta(ctx.point(*coords), c)
                assert op_norm_estimate(a, sigma, w) == abs(c), (coords, w)

    @pytest.mark.parametrize(
        "rank, windows", [(1, [100, 144, 145, 160]), (2, [6, 8, 9, 12]), (3, [2, 3, 4])]
    )
    def test_tables_across_dense_limit_nondecreasing(self, rank, windows):
        # a saturated norm may repeat with a last-digit wobble, nothing more
        ctx = GroupContext.lattice(rank)
        rng = np.random.default_rng(100 + rank)
        for hbar in (0.0, 0.43, 1.0):
            a = random_element(ctx, rng)
            rows = norm_convergence(a, Bicharacter.from_skew(ctx, SKEW[rank], hbar), windows)
            estimates = [est for _, est in rows]
            assert all(hi >= lo * (1.0 - 1e-14) for lo, hi in zip(estimates, estimates[1:]))


class TestNormConvergence:
    def test_constant_row_for_scaled_unit(self):
        a = FourierElement.delta(LATTICE1.point(0), 2.5)
        rows = norm_convergence(a, TRIVIAL1, [2, 4, 8])
        assert all(est == pytest.approx(2.5) for _, est in rows)

    def test_monotone_to_commutative_sup(self):
        rows = norm_convergence(cos_element(), TRIVIAL1, [2, 4, 8, 16, 32, 64])
        estimates = [est for _, est in rows]
        assert all(b >= a - 1e-12 for a, b in zip(estimates, estimates[1:]))
        assert abs(estimates[-1] - 2.0) <= 1e-3

    def test_self_adjoint_agreement_per_window(self):
        rng = np.random.default_rng(3)
        sigma = Bicharacter.from_skew(LATTICE2, J, 0.5)
        a = random_element(LATTICE2, rng)
        adjoint = involution(a, sigma)
        sa = FourierElement.from_arrays(
            LATTICE2,
            np.concatenate([a.coords, adjoint.coords]),
            np.concatenate([a.values, adjoint.values]),
        )
        for w, est in norm_convergence(sa, sigma, [3, 5, 7]):
            flipped = op_norm_estimate(involution(sa, sigma), sigma, w)
            assert abs(est - flipped) <= 1e-12

    @pytest.mark.parametrize(
        "a, hbar, windows",
        [(SHIFT_PAIR, 0.0, [8, 16, 17]), (ROADMAP_ELEMENT, 0.3, [17, 20])],
        ids=["shift-pair", "roadmap-element"],
    )
    def test_formerly_diverging_elements(self, a, hbar, windows):
        # degenerate top values beyond the dense limit
        rows = norm_convergence(a, Bicharacter.from_skew(LATTICE2, J, hbar), windows)
        estimates = [est for _, est in rows]
        assert [w for w, _ in rows] == windows
        assert estimates == sorted(estimates)
        l2, l1 = np.linalg.norm(a.values), np.abs(a.values).sum()
        assert all(l2 <= est <= l1 for est in estimates)

    def test_monotonicity_guard_raises(self, monkeypatch):
        # honest runs are monotone, so the guard is exercised with a stub
        import startwist.norms as norms_mod

        calls = {"n": 0}

        def broken(a, sigma, window):
            calls["n"] += 1
            return 2.0 if calls["n"] == 1 else 1.0

        monkeypatch.setattr(norms_mod, "op_norm_estimate", broken)
        with pytest.raises(MonotonicityError):
            norm_convergence(cos_element(), TRIVIAL1, [2, 4])

    @pytest.mark.parametrize("scale", [1e-13, 1.0, 1e6])
    def test_monotonicity_guard_is_relative(self, monkeypatch, scale):
        # a halving raises at every scale, a one-ulp repeat passes at every scale
        import startwist.norms as norms_mod

        def stub(values):
            it = iter(values)
            monkeypatch.setattr(norms_mod, "op_norm_estimate", lambda *args: next(it))

        stub([scale, 0.5 * scale])
        with pytest.raises(MonotonicityError):
            norm_convergence(cos_element(), TRIVIAL1, [2, 4])
        stub([scale, float(np.nextafter(scale, 0.0))])
        assert norm_convergence(cos_element(), TRIVIAL1, [2, 4])[1][1] < scale


class TestCStarInequality:
    def test_submultiplicative_with_window_slack(self):
        rng = np.random.default_rng(4)
        sigma = Bicharacter.from_skew(LATTICE2, J, 0.6)
        for _ in range(5):
            a = random_element(LATTICE2, rng, max_support=4, box=2)
            r = a.support_radius()
            w = 4
            lhs = op_norm_estimate(star(a, involution(a, sigma), sigma), sigma, w + 2 * r)
            rhs = op_norm_estimate(a, sigma, w + 2 * r + r) ** 2
            assert lhs <= rhs + 1e-9


class TestWindow:
    def test_radius_validation(self):
        for route in (left_mult_matrix, op_norm_estimate):
            with pytest.raises(ValueError, match="window radius must be >= 1"):
                route(cos_element(), TRIVIAL1, 0)
        with pytest.raises(ValueError, match="window radius must be >= 1"):
            norm_convergence(cos_element(), TRIVIAL1, [2, -1])

    def test_dim(self):
        # a radius-3 box in rank 2 holds 7**2 points
        unit = FourierElement.delta(LATTICE2.point(0, 0))
        assert left_mult_matrix(unit, TRIVIAL2, 3).shape == (49, 49)

    def test_non_integer_radius_rejected(self):
        for route in (left_mult_matrix, op_norm_estimate):
            with pytest.raises(TypeError):
                route(cos_element(), TRIVIAL1, 2.5)
        with pytest.raises(TypeError):
            norm_convergence(cos_element(), TRIVIAL1, [2, 2.5])

    def test_numpy_integer_radius(self):
        a = cos_element()
        same = left_mult_matrix(a, TRIVIAL1, np.int64(3)) == left_mult_matrix(a, TRIVIAL1, 3)
        assert same.all()
        ((radius, estimate),) = norm_convergence(a, TRIVIAL1, [np.int64(3)])
        assert type(radius) is int and radius == 3
        assert estimate == op_norm_estimate(a, TRIVIAL1, 3)

    def test_box_cap_raises_before_allocating(self):
        a = FourierElement.delta(LATTICE2.point(1, 0))
        sigma = Bicharacter.trivial(LATTICE2)
        assert op_norm_estimate(a, sigma, 4) == 1.0
        with pytest.raises(ValueError, match=r"radius 512 in rank 2 .* 1050625"):
            op_norm_estimate(a, sigma, 512)
        with pytest.raises(ValueError, match="radius 100000"):
            op_norm_estimate(a, sigma, 100_000)
