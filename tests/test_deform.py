import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from startwist import deform
from startwist.abelian import FiniteVector, GroupContext, GroupPoint, fourier
from startwist.cocycles import Bicharacter, SkewForm, T_map
from startwist.deform import (
    FourierElement,
    compose_cocycles,
    involution,
    iterated_star_check,
    poisson_bracket,
    rieffel_product_finite,
    semiclassical_defect,
    star,
    translate,
)

LATTICE2 = GroupContext.lattice(2)
J = SkewForm.standard_symplectic(1)


def delta(ctx, *coords):
    return FourierElement.delta(ctx.point(*coords))


def element_sum(*elements):
    """The sum of elements of one context: ``from_arrays`` of all their rows."""
    return FourierElement.from_arrays(
        elements[0].context,
        np.concatenate([e.coords for e in elements]),
        np.concatenate([e.values for e in elements]),
    )


def random_element(ctx, rng, max_support=9, box=3):
    n = int(rng.integers(1, max_support + 1))
    if ctx.is_finite:
        n = min(n, ctx.size)
    coeffs = {}
    while len(coeffs) < n:
        p = ctx.point(tuple(rng.integers(-box, box + 1, size=ctx.rank)))
        r, t = np.sqrt(rng.random()), 2 * np.pi * rng.random()
        coeffs[p] = complex(r * np.cos(t), r * np.sin(t))
    return FourierElement(ctx, coeffs)


def random_skew(rng):
    theta = float(rng.uniform(-2, 2))
    return SkewForm([[0.0, theta], [-theta, 0.0]])


def reference_star(a, b, sigma):
    """The per-pair dict loop, kept here as the oracle for the array kernel.

    Returns a plain dict without exact zeros, so no part of the kernel's
    canonical form is shared with the oracle.
    """
    out = {}
    for p1, c1 in a.coeffs.items():
        for p2, c2 in b.coeffs.items():
            p = p1 + p2
            out[p] = out.get(p, 0j) + c1 * c2 * sigma(p1, p2)
    return {p: v for p, v in out.items() if v != 0}


def reference_bracket(a, b, gamma):
    out = {}
    factor = -4.0 * np.pi**2
    for p1, c1 in a.coeffs.items():
        for p2, c2 in b.coeffs.items():
            p = p1 + p2
            g = float(gamma.eval_many([p1.coords], [p2.coords])[0])
            out[p] = out.get(p, 0j) + factor * c1 * c2 * g
    return {p: v for p, v in out.items() if v != 0}


TINY_TO_HUGE = st.floats(1e-300, 1e300) | st.floats(-1e300, -1e-300)


class TestFourierElement:
    def test_tiny_coefficient_is_kept(self):
        p = LATTICE2.point(0, 0)
        assert list(FourierElement.delta(p, 1e-16).coeffs) == [p]
        assert (0.1 * FourierElement.delta(p, 2e-15)).coeff(p) == 0.1 * 2e-15

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
            st.complex_numbers(min_magnitude=1e-20, max_magnitude=1e3),
            min_size=1,
            max_size=8,
        ),
        TINY_TO_HUGE,
    )
    def test_scaling_is_homogeneous(self, raw, c):
        a = FourierElement(LATTICE2, {LATTICE2.point(p): v for p, v in raw.items()})
        scaled = c * a
        assert list(scaled.coeffs) == list(a.coeffs)
        for p in a.coeffs:
            assert scaled.coeff(p) == c * a.coeff(p)

    def test_exact_zeros_dropped(self):
        p, q = LATTICE2.point(1, 0), LATTICE2.point(0, 1)
        a = FourierElement(LATTICE2, {p: 1.0, q: 0.0})
        assert list(a.coeffs) == [p]
        assert list((a - a).coeffs) == []
        assert list((0 * a).coeffs) == []

    def test_arrays_sorted_and_read_only(self):
        a = FourierElement(
            LATTICE2, {LATTICE2.point(1, -1): 1.0, LATTICE2.point(-2, 5): 2.0}
        )
        assert a.coords.tolist() == [[-2, 5], [1, -1]]
        assert a.values.tolist() == [2.0, 1.0]
        assert list(a.coeffs) == [LATTICE2.point(-2, 5), LATTICE2.point(1, -1)]
        with pytest.raises(ValueError):
            a.values[0] = 3.0
        with pytest.raises(TypeError):
            a.coeffs[LATTICE2.point(0, 0)] = 1.0

    @pytest.mark.parametrize("rank, box", [(1, 5), (2, 3), (4, 10**6), (6, 10**6)])
    def test_mapping_round_trip(self, rank, box):
        ctx = GroupContext.lattice(rank)
        rng = np.random.default_rng(rank)
        raw = {
            ctx.point(tuple(rng.integers(-box, box + 1, size=rank))): complex(v, -v)
            for v in rng.uniform(0.5, 1.0, 40)
        }
        a = FourierElement(ctx, raw)
        assert a.coeffs == raw
        rows = [p.coords for p in a.coeffs]
        assert rows == sorted(rows)

    def test_from_arrays_sums_repeats_and_reduces(self):
        z5 = GroupContext.finite(5)
        a = FourierElement.from_arrays(z5, [[7], [2], [-1]], [1.0, 0.5, 2j])
        assert a == FourierElement(z5, {z5.point(2): 1.5, z5.point(4): 2j})
        with pytest.raises(ValueError):
            FourierElement.from_arrays(LATTICE2, [[1, 2, 3]], [1.0])

    def test_coordinates_out_of_range_rejected(self):
        big = 2**31
        with pytest.raises(ValueError):
            FourierElement.delta(LATTICE2.point(big, 0))
        with pytest.raises(ValueError):
            FourierElement.delta(LATTICE2.point(0, -(2**70)))
        half = FourierElement.delta(LATTICE2.point(big // 2, 0))
        with pytest.raises(ValueError):
            star(half, half, Bicharacter.trivial(LATTICE2))

    def test_cross_context_point_rejected(self):
        with pytest.raises(ValueError):
            FourierElement(LATTICE2, {GroupContext.lattice(1).point(0): 1.0})

    def test_arithmetic(self):
        a = delta(LATTICE2, 1, 0)
        b = delta(LATTICE2, 0, 1)
        s = 2.0 * a - (-1.0 * b) - a
        assert s.coeff(LATTICE2.point(1, 0)) == 1.0
        assert s.coeff(LATTICE2.point(0, 1)) == 1.0

    def test_support_radius(self):
        a = FourierElement(
            LATTICE2, {LATTICE2.point(2, -3): 1.0, LATTICE2.point(0, 1): 1.0}
        )
        assert a.support_radius() == 3


def forged_point(ctx, coords):
    """A GroupPoint built past its own checks, which refuse 1.5 and a wrong
    length first, so that the mapping constructor's reader sees the coordinates."""
    point = object.__new__(GroupPoint)
    object.__setattr__(point, "context", ctx)
    object.__setattr__(point, "coords", tuple(coords))
    return point


# The three ways caller rows become an element; each returns one element.
ROUTES = {
    "mapping": lambda ctx, rows, values: FourierElement(
        ctx, {forged_point(ctx, r): v for r, v in zip(rows, values)}
    ),
    "from_arrays": FourierElement.from_arrays,
    "_from_rows": lambda ctx, rows, values: FourierElement._from_rows(ctx, rows, values)[0],
}
RANGE = "lattice coordinates must stay below 2**31 in magnitude"


def assert_same_bits(got, want):
    assert got.context == want.context
    assert got.coords.dtype == want.coords.dtype == np.int64
    assert got.coords.tobytes() == want.coords.tobytes()
    assert got.values.tobytes() == want.values.tobytes()


class TestOneRoute:
    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize(
        "row, message",
        [
            ((1.5, 0), "coordinates must hold integers"),
            ((1 + 0j, 0), "coordinates must hold integers"),  # not cast with a warning
            ((2**31, 0), RANGE),
            ((0, -(2**31)), RANGE),
            ((2**63, 0), RANGE),  # numpy's uint64
            ((-1, 2**63), RANGE),  # numpy's float64
            ((2**70, 0), RANGE),
            ((1, 2, 3), "need coords of shape (1, 2) for 1 values, got (1, 3)"),
        ],
        ids=["1.5", "1+0j", "2**31", "-2**31", "2**63", "-1,2**63", "2**70", "shape"],
    )
    def test_same_error_on_every_route(self, route, row, message):
        with pytest.raises(ValueError) as err:
            ROUTES[route](LATTICE2, [row], [1.0])
        assert str(err.value) == message

    def test_finite_coordinate_beyond_int64_rejected(self):
        z5 = GroupContext.finite(5)
        for route in ROUTES.values():
            with pytest.raises(ValueError, match="coordinates must fit in int64"):
                route(z5, [(2**70,)], [1.0])

    @pytest.mark.parametrize("ctx", [LATTICE2, GroupContext.finite([3, 4])], ids=str)
    def test_routes_agree_bitwise_on_repeats(self, ctx):
        rng = np.random.default_rng(7)
        merged = 0
        for _ in range(50):
            rows = rng.integers(-2, 3, size=(int(rng.integers(1, 12)), 2))
            values = rng.standard_normal(len(rows)) + 1j * rng.standard_normal(len(rows))
            # a mapping holds each point once, so it gets the repeats summed in row order
            summed = {}
            for r, v in zip(rows.tolist(), values.tolist()):
                key = tuple(r % np.array(ctx.moduli)) if ctx.is_finite else tuple(r)
                summed[key] = summed.get(key, 0j) + v
            want = FourierElement.from_arrays(ctx, rows, values)
            assert_same_bits(ROUTES["_from_rows"](ctx, rows, values), want)
            assert_same_bits(ROUTES["mapping"](ctx, list(summed), list(summed.values())), want)
            merged += len(rows) - len(summed)
        assert merged > 0  # repeated points were drawn

    @pytest.mark.parametrize("count", [1, 5])
    def test_caller_array_changes_do_not_reach_the_element(self, count):
        rows = np.arange(2 * count, dtype=np.int64).reshape(count, 2)
        values = np.ones(count, dtype=np.complex128)
        built = [
            FourierElement.from_arrays(LATTICE2, rows, values),
            *FourierElement._from_rows(LATTICE2, rows, values, [count]),
        ]
        want = [(e.coords.copy(), e.values.copy()) for e in built]
        rows[:] = 7
        values[:] = 2.0
        for e, (coords, vals) in zip(built, want):
            assert np.array_equal(e.coords, coords) and np.array_equal(e.values, vals)
            assert not e.coords.flags.writeable and not np.shares_memory(e.coords, rows)

    def test_empty_rows_are_the_zero_element(self):
        zero = FourierElement(LATTICE2, {})
        assert zero.coords.shape == (0, 2) and zero.values.shape == (0,)
        assert_same_bits(FourierElement.from_arrays(LATTICE2, [], []), zero)

    def test_repeated_point_sums_from_its_first_term(self):
        # each coefficient is the left-to-right sum of its terms from the first
        # one, so parts that are all -0.0 stay -0.0 (a sum started at 0.0 would
        # read 0.0), while any other zero sum reads 0.0
        terms = {
            (0, 0): [(-0.0, 1.0), (-0.0, 2.0)],
            (1, 0): [(-0.0, 1.0), (0.0, 1.0)],
            (2, 0): [(1.0, -0.0), (1.0, -0.0), (1.0, -0.0)],
            (3, 0): [(-1.0, 1.0), (1.0, 1.0), (-0.0, 1.0)],
        }
        rows = [p for p, parts in terms.items() for _ in parts]
        values = [complex(*part) for parts in terms.values() for part in parts]
        order = np.random.default_rng(5).permutation(len(rows))  # interleave the points
        got = FourierElement.from_arrays(
            LATTICE2, np.array(rows)[order], np.array(values)[order]
        )
        want = [complex(-0.0, 3.0), complex(0.0, 2.0), complex(3.0, -0.0), complex(0.0, 3.0)]
        assert got.coords.tolist() == [list(p) for p in terms]
        assert got.values.tobytes() == np.array(want).tobytes()

    def test_sum_adds_values_unscaled(self):
        # x - y concatenates x's values as they are: a multiply by 1 + 0j would
        # turn this -0.0 into 0.0 (and an infinite part into NaN)
        a = FourierElement.from_arrays(LATTICE2, [[1, 0], [0, 0]], [complex(-0.0, -1.0), 2.0])
        zero = FourierElement(LATTICE2, {})
        assert_same_bits(a - zero, a)


class TestStar:
    def test_delta_relation(self):
        sigma = Bicharacter.from_skew(LATTICE2, J, 0.5)
        p, q = LATTICE2.point(1, 0), LATTICE2.point(0, 1)
        out = star(FourierElement.delta(p), FourierElement.delta(q), sigma)
        assert out.coeffs == {p + q: sigma(p, q)}

    def test_trivial_cocycle_is_convolution(self):
        out = star(
            delta(LATTICE2, 1, 0), delta(LATTICE2, 0, 1), Bicharacter.trivial(LATTICE2)
        )
        assert out == delta(LATTICE2, 1, 1)

    def test_symplectic_phase_example(self):
        sigma = Bicharacter.from_skew(LATTICE2, J, 0.5)
        out = star(delta(LATTICE2, 1, 0), delta(LATTICE2, 0, 1), sigma)
        assert out.coeff(LATTICE2.point(1, 1)) == pytest.approx(-1j)

    def test_support_containment_and_bilinearity(self):
        rng = np.random.default_rng(0)
        sigma = Bicharacter.from_skew(LATTICE2, random_skew(rng), 0.8)
        a, b, c = (random_element(LATTICE2, rng) for _ in range(3))
        sums = {p + q for p in a.coeffs for q in b.coeffs}
        assert set(star(a, b, sigma).coeffs) <= sums
        lhs = star(element_sum(a, 2j * c), b, sigma)
        rhs = element_sum(star(a, b, sigma), 2j * star(c, b, sigma))
        assert (lhs - rhs).l1_norm() <= 1e-12

    def test_associativity_per_context(self):
        rng = np.random.default_rng(1)
        cases = [
            (LATTICE2, Bicharacter.from_skew(LATTICE2, J, 0.7)),
            (GroupContext.finite(5), Bicharacter(GroupContext.finite(5), [[2]])),
            (
                GroupContext.finite([4, 4]),
                Bicharacter(GroupContext.finite([4, 4]), [[1, 2], [0, 3]]),
            ),
        ]
        for ctx, sigma in cases:
            worst = 0.0
            for _ in range(100):
                a, b, c = (random_element(ctx, rng) for _ in range(3))
                lhs = star(star(a, b, sigma), c, sigma)
                rhs = star(a, star(b, c, sigma), sigma)
                worst = max(worst, (lhs - rhs).l1_norm())
            assert worst <= 1e-10

    def test_hbar_zero_is_exactly_convolution(self):
        rng = np.random.default_rng(2)
        sigma0 = Bicharacter.from_skew(LATTICE2, random_skew(rng), 0.0)
        a, b = random_element(LATTICE2, rng), random_element(LATTICE2, rng)
        assert star(a, b, sigma0) == star(a, b, Bicharacter.trivial(LATTICE2))

    def test_commutation_phase(self):
        rng = np.random.default_rng(3)
        hbar = 0.42
        form = random_skew(rng)
        sigma = Bicharacter.from_skew(LATTICE2, form, hbar)
        p, q = LATTICE2.point(2, 1), LATTICE2.point(-1, 3)
        pq = star(FourierElement.delta(p), FourierElement.delta(q), sigma)
        qp = star(FourierElement.delta(q), FourierElement.delta(p), sigma)
        phase = np.exp(-2j * np.pi * hbar * float(p.vector() @ form.matrix @ q.vector()))
        assert (pq - phase * qp).l1_norm() <= 1e-12

    def test_context_mismatch(self):
        with pytest.raises(ValueError):
            star(
                delta(LATTICE2, 0, 0),
                delta(LATTICE2, 0, 0),
                Bicharacter(GroupContext.finite(5), [[1]]),
            )


KERNEL_CASES = [
    # (context, box the support coordinates are drawn from)
    (GroupContext.lattice(1), 6),
    (LATTICE2, 3),
    (GroupContext.lattice(4), 2),
    (GroupContext.lattice(4), 10**6),
    # drawn beyond the moduli, so inputs and sums wrap around
    (GroupContext.finite(7), 9),
    (GroupContext.finite([5, 5]), 9),
]


def assert_same_coefficients(got, want, tol):
    assert set(got.coeffs) == set(want)
    rows = [tuple(r) for r in got.coords.tolist()]
    assert rows == sorted(set(rows))
    assert sum(abs(got.coeff(p) - v) for p, v in want.items()) <= tol


def assert_kernel_matches(a, b, sigma, gamma=None):
    """Same support as the reference loops, values within 1e-15 |a|_1 |b|_1."""
    bound = 1e-15 * a.l1_norm() * b.l1_norm()
    assert_same_coefficients(star(a, b, sigma), reference_star(a, b, sigma), bound)
    if gamma is not None:
        # the bracket weights are not unimodular: scale by their largest size
        p = np.repeat(a.coords, len(b.coords), axis=0)
        q = np.tile(b.coords, (len(a.coords), 1))
        weight = 4 * np.pi**2 * np.abs(gamma.eval_many(p, q)).max(initial=0.0)
        assert_same_coefficients(
            poisson_bracket(a, b, gamma), reference_bracket(a, b, gamma), bound * weight
        )


class TestKernelAgainstReference:
    @pytest.mark.parametrize(
        "ctx, box", KERNEL_CASES, ids=["Z", "Z2", "Z4", "Z4-wide", "Z7", "Z5xZ5"]
    )
    def test_random_supports(self, ctx, box):
        rng = np.random.default_rng(40)
        n = ctx.rank
        gamma = None
        if ctx.is_finite:
            sigma = Bicharacter(ctx, rng.integers(0, 7, (n, n)))
        else:
            sigma = Bicharacter(ctx, rng.uniform(-2, 2, (n, n)), hbar=0.8)
            u = rng.uniform(-2, 2, (n, n))
            gamma = SkewForm(u - u.T)
        for _ in range(20):
            a = random_element(ctx, rng, box=box)
            b = random_element(ctx, rng, box=box)
            assert_kernel_matches(a, b, sigma, gamma)

    def test_empty_and_single_point_operands(self):
        sigma = Bicharacter.from_skew(LATTICE2, J, 0.6)
        zero = FourierElement(LATTICE2, {})
        a = random_element(LATTICE2, np.random.default_rng(41))
        single = FourierElement.delta(LATTICE2.point(2, -1), 0.5 - 1j)
        for x, y in ((zero, a), (a, zero), (zero, zero), (single, a), (a, single)):
            assert_kernel_matches(x, y, sigma, J)
        assert list(star(zero, a, sigma).coeffs) == []

    def test_cancelling_pair(self):
        # (d_x + d_y)(d_y - d_x) in the commutative product: the two cross
        # terms at x + y cancel exactly and the point leaves the support
        x, y = LATTICE2.point(1, 0), LATTICE2.point(0, 1)
        a = FourierElement(LATTICE2, {x: 1.0, y: 1.0})
        b = FourierElement(LATTICE2, {y: 1.0, x: -1.0})
        trivial = Bicharacter.trivial(LATTICE2)
        assert_kernel_matches(a, b, trivial)
        assert set(star(a, b, trivial).coeffs) == {x + x, y + y}


def assert_bitwise_equal(got, want):
    assert got.context == want.context
    assert np.array_equal(got.coords, want.coords)
    assert np.array_equal(got.values, want.values)


def assert_batch_matches_lone_calls(pairs, sigma):
    """A batched product equals one product per member, bit for bit, and the loop.

    ``sigma`` is one cocycle for the batch or a list of one per pair.
    """
    sigmas = [sigma] * len(pairs) if isinstance(sigma, Bicharacter) else sigma
    batched = deform._star_batch(pairs, sigma)
    assert len(batched) == len(pairs)
    for (a, b), s, out in zip(pairs, sigmas, batched):
        assert_bitwise_equal(out, star(a, b, s))
        assert_same_coefficients(
            out, reference_star(a, b, s), 1e-15 * a.l1_norm() * b.l1_norm()
        )
    return batched


class TestBatchedKernel:
    def test_zero_single_point_and_mixed_sizes(self):
        rng = np.random.default_rng(50)
        sigma = Bicharacter.from_skew(LATTICE2, J, 0.6)
        zero = FourierElement(LATTICE2, {})
        d1 = FourierElement.delta(LATTICE2.point(2, -1), 0.5 - 1j)
        d2 = FourierElement.delta(LATTICE2.point(-3, 0), 2j)
        a, b = random_element(LATTICE2, rng), random_element(LATTICE2, rng)
        pairs = [(zero, a), (d1, d2), (a, zero), (a, b), (zero, zero), (d1, a), (b, d2)]
        out = assert_batch_matches_lone_calls(pairs, sigma)
        assert [len(o.values) for o in out][:3] == [0, 1, 0]
        assert out[4].coords.shape == (0, 2)

    @pytest.mark.parametrize("moduli", [[7], [5, 5]], ids=["Z7", "Z5xZ5"])
    def test_finite_moduli_wrap(self, moduli):
        ctx = GroupContext.finite(moduli)
        rng = np.random.default_rng(51)
        n = ctx.rank
        sigmas = [Bicharacter(ctx, rng.integers(0, 7, (n, n))) for _ in range(12)]
        pairs = [
            (random_element(ctx, rng, box=9), random_element(ctx, rng, box=9))
            for _ in sigmas
        ]
        for product in assert_batch_matches_lone_calls(pairs, sigmas):
            assert np.all((0 <= product.coords) & (product.coords < np.array(moduli)))

    def test_cancelling_member_beside_a_surviving_one(self):
        # the first member's cross terms at x + y cancel exactly; the second
        # member has a term at the same point that must survive
        x, y = LATTICE2.point(1, 0), LATTICE2.point(0, 1)
        a = FourierElement(LATTICE2, {x: 1.0, y: 1.0})
        b = FourierElement(LATTICE2, {y: 1.0, x: -1.0})
        c = FourierElement.delta(x)
        trivial = Bicharacter.trivial(LATTICE2)
        cancelled, kept = assert_batch_matches_lone_calls([(a, b), (c, b)], trivial)
        assert set(cancelled.coeffs) == {x + x, y + y}
        assert kept.coeff(x + y) == 1.0 and len(kept.values) == 2

    def test_overlapping_supports_stay_separate(self):
        # every member lands on the same points, and the single-point members
        # end where the next one starts, so only the member key keeps them apart
        rng = np.random.default_rng(52)
        a = random_element(LATTICE2, rng)
        b = random_element(LATTICE2, rng)
        d = delta(LATTICE2, 1, 2)
        hbars = (0.0, 0.3, 0.3, 1.1)
        sigmas = [Bicharacter.from_skew(LATTICE2, J, h) for h in hbars]
        pairs = [(a, b)] * 4 + [(d, d)] * 4
        out = assert_batch_matches_lone_calls(pairs, sigmas * 2)
        assert all(np.array_equal(o.coords, out[0].coords) for o in out[:4])
        assert_bitwise_equal(out[1], out[2])
        assert not np.array_equal(out[0].values, out[1].values)
        assert [o.coords.tolist() for o in out[4:]] == [[[2, 4]]] * 4
        assert [o.values.tolist() for o in out[4:]] == [[1.0]] * 4

    def test_batch_over_the_term_budget(self, monkeypatch):
        rng = np.random.default_rng(53)
        sigma = Bicharacter(LATTICE2, rng.uniform(-2, 2, (2, 2)), hbar=0.8)
        pairs = [
            (random_element(LATTICE2, rng), random_element(LATTICE2, rng)) for _ in range(120)
        ]
        sizes = [len(a.values) * len(b.values) for a, b in pairs]
        assert sum(sizes) > deform._TERM_BUDGET
        natural = assert_batch_matches_lone_calls(pairs, sigma)
        # a budget below single members: each member then runs alone
        monkeypatch.setattr(deform, "_TERM_BUDGET", 7)
        assert max(sizes) > 7
        tiny = assert_batch_matches_lone_calls(pairs, sigma)
        for x, y in zip(natural, tiny):
            assert_bitwise_equal(x, y)

    @pytest.mark.parametrize(
        "ctx",
        [
            GroupContext.lattice(1),
            LATTICE2,
            GroupContext.lattice(4),
            GroupContext.finite([3, 4]),
            GroupContext.finite([5, 5]),
            GroupContext.finite(7),
        ],
        ids=str,
    )
    def test_batch_matches_in_order_dict_sums(self, ctx):
        # each member is a dict that starts every point at its first value and
        # adds the rest in row order; long sums (where a pairwise sum would
        # give other bits), signed-zero parts and empty members are all drawn
        rng = np.random.default_rng(60)
        box = 2 if ctx.rank < 4 else 1  # small enough for points of 9 terms and more
        long_sums = 0
        for _ in range(8):
            counts = rng.integers(0, 40, int(rng.integers(1, 20)))
            counts[rng.integers(len(counts))] = 400
            rows = rng.integers(-box, box + 1, (counts.sum(), ctx.rank))
            parts = rng.standard_normal((2, len(rows)))
            signed_zeros = rng.random(parts.shape) < 0.4
            parts[signed_zeros] = rng.choice([0.0, -0.0], signed_zeros.sum())
            values = parts[0] + 1j * parts[1]
            members = FourierElement._from_rows(ctx, rows, values, counts.tolist())
            assert len(members) == len(counts)
            bounds = np.cumsum([0, *counts])
            for got, lo, hi in zip(members, bounds, bounds[1:]):
                sums, terms = {}, {}
                for r, v in zip(rows[lo:hi].tolist(), values[lo:hi].tolist()):
                    key = tuple(np.mod(r, ctx.moduli).tolist()) if ctx.is_finite else tuple(r)
                    sums[key] = sums[key] + v if key in sums else v
                    terms.setdefault(key, []).append(v)
                kept = sorted(key for key, v in sums.items() if v != 0)
                assert got.coords.tolist() == [list(key) for key in kept]
                want = np.array([sums[key] for key in kept], dtype=np.complex128)
                assert got.values.tobytes() == want.tobytes()
                long_sums += sum(
                    len(t) >= 9 and np.sum(t).tobytes() != np.complex128(sums[k]).tobytes()
                    for k, t in terms.items()
                )
        assert long_sums > 0

    def test_mixed_contexts_rejected(self):
        sigma = Bicharacter.from_skew(LATTICE2, J, 0.5)
        z5 = GroupContext.finite(5)
        good = delta(LATTICE2, 1, 0)
        with pytest.raises(ValueError, match="different contexts"):
            deform._star_batch([(good, good), (delta(z5, 1), delta(z5, 2))], sigma)
        with pytest.raises(ValueError, match="different contexts"):
            deform._convolve([(good, delta(z5, 1))], sigma.eval_many)
        with pytest.raises(ValueError, match="cocycle from a different context"):
            deform._star_batch([(good, good)] * 2, [sigma, Bicharacter.trivial(z5)])
        with pytest.raises(ValueError, match="one weight per pair"):
            deform._convolve([(good, good)], [sigma.eval_many] * 2)

    def test_batched_differences_equal_subtraction(self):
        rng = np.random.default_rng(54)
        x = [random_element(LATTICE2, rng) for _ in range(10)]
        y = [random_element(LATTICE2, rng) for _ in range(10)]
        pairs = list(zip(x, y)) + [(x[0], x[0]), (FourierElement(LATTICE2, {}), x[1])]
        for (a, b), d in zip(pairs, deform._differences(pairs)):
            assert_bitwise_equal(d, a - b)
        assert deform._differences([]) == []
        assert deform._linf_distances(pairs) == [a.linf_distance(b) for a, b in pairs]
        assert deform._l1_distances(pairs) == [(a - b).l1_norm() for a, b in pairs]

    def test_batched_automorphism_deviations_equal_lone_checks(self):
        rng = np.random.default_rng(55)
        sigmas = [Bicharacter(LATTICE2, rng.uniform(-2, 2, (2, 2)), hbar=0.8) for _ in range(6)]
        pairs = [(random_element(LATTICE2, rng), random_element(LATTICE2, rng)) for _ in sigmas]
        vs = [rng.random(2) for _ in sigmas]
        batched = deform._automorphism_deviations(pairs, sigmas, vs)
        assert batched == [
            deform._automorphism_deviations([pair], [s], [v])[0]
            for pair, s, v in zip(pairs, sigmas, vs)
        ]
        assert max(batched) <= 1e-12


class TestInvolution:
    def test_real_delta_at_zero_fixed(self):
        sigma = Bicharacter.from_skew(LATTICE2, J, 0.9)
        a = FourierElement.delta(LATTICE2.point(0, 0), 2.5)
        assert involution(a, sigma) == a

    def test_antisymmetric_conjugates_and_flips(self):
        sigma = Bicharacter.from_skew(LATTICE2, J, 0.9)
        c = 0.3 + 0.6j
        out = involution(FourierElement.delta(LATTICE2.point(2, -1), c), sigma)
        assert out.coeffs == {LATTICE2.point(-2, 1): np.conj(c)}

    def test_antihomomorphism(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(100):
            sigma = Bicharacter.from_skew(LATTICE2, random_skew(rng), rng.uniform(0.1, 1.2))
            a, b = random_element(LATTICE2, rng), random_element(LATTICE2, rng)
            lhs = involution(star(a, b, sigma), sigma)
            rhs = star(involution(b, sigma), involution(a, sigma), sigma)
            worst = max(worst, (lhs - rhs).l1_norm())
        assert worst <= 1e-12

    def test_involutive_even_for_general_cocycles(self):
        rng = np.random.default_rng(5)
        sigma = Bicharacter(LATTICE2, rng.uniform(-2, 2, (2, 2)), hbar=0.8)
        a = random_element(LATTICE2, rng)
        assert (involution(involution(a, sigma), sigma) - a).l1_norm() <= 1e-12


class TestPoissonBracket:
    def test_single_term(self):
        theta = 1.7
        gamma = SkewForm([[0.0, theta], [-theta, 0.0]])
        out = poisson_bracket(delta(LATTICE2, 1, 0), delta(LATTICE2, 0, 1), gamma)
        assert out.coeffs == {
            LATTICE2.point(1, 1): -4 * np.pi**2 * theta
        }

    def test_self_bracket_vanishes(self):
        rng = np.random.default_rng(6)
        a = random_element(LATTICE2, rng)
        assert poisson_bracket(a, a, random_skew(rng)).l1_norm() <= 1e-10

    def test_bracket_with_unit_vanishes(self):
        rng = np.random.default_rng(7)
        a = random_element(LATTICE2, rng)
        unit = FourierElement.delta(LATTICE2.point(0, 0))
        assert poisson_bracket(a, unit, random_skew(rng)).l1_norm() == 0.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(8)
        gamma = random_skew(rng)
        a, b = random_element(LATTICE2, rng), random_element(LATTICE2, rng)
        lhs = poisson_bracket(a, b, gamma)
        rhs = -1.0 * poisson_bracket(b, a, gamma)
        assert (lhs - rhs).l1_norm() <= 1e-12

    def test_jacobi_on_deltas(self):
        # integer form and points: the only roundoff is the shared pi^2 factor,
        # so the cyclic sum cancels to relative machine precision
        gamma = SkewForm([[0, 2], [-2, 0]])
        rng = np.random.default_rng(9)
        for _ in range(30):
            a, b, c = (
                FourierElement.delta(LATTICE2.point(*rng.integers(-4, 5, size=2)))
                for _ in range(3)
            )
            pieces = [
                poisson_bracket(a, poisson_bracket(b, c, gamma), gamma),
                poisson_bracket(b, poisson_bracket(c, a, gamma), gamma),
                poisson_bracket(c, poisson_bracket(a, b, gamma), gamma),
            ]
            total = element_sum(*pieces)
            scale = sum(p.l1_norm() for p in pieces)
            assert total.l1_norm() <= 1e-12 * (1.0 + scale)

    def test_finite_context_rejected(self):
        ctx = GroupContext.finite(5)
        with pytest.raises(ValueError):
            poisson_bracket(delta(ctx, 0), delta(ctx, 0), SkewForm([[0.0]]))

    def test_mixed_contexts_rejected(self):
        # the kernel's context check names mixed lattices; a finite first
        # factor is refused as finite before the contexts are compared
        a = delta(LATTICE2, 1, 0)
        with pytest.raises(ValueError, match="^elements from different contexts$"):
            poisson_bracket(a, delta(GroupContext.lattice(1), 1), J)
        with pytest.raises(ValueError, match="^the bracket is defined on lattice contexts only$"):
            poisson_bracket(delta(GroupContext.finite([5, 5]), 1, 0), a, J)


class TestSemiclassical:
    def test_commuting_pair_zero_defect(self):
        # both supported on one axis with gamma vanishing there
        a = FourierElement(LATTICE2, {LATTICE2.point(1, 0): 1.0, LATTICE2.point(3, 0): 0.5})
        b = FourierElement(LATTICE2, {LATTICE2.point(2, 0): 1.0})
        for hbar in (1e-1, 1e-2):
            assert semiclassical_defect(a, b, J, hbar, 6) <= 1e-14

    def test_closed_form_delta_pair(self):
        for hbar in (1e-1, 1e-2, 0.37):
            measured = semiclassical_defect(
                delta(LATTICE2, 1, 0), delta(LATTICE2, 0, 1), J, hbar, 4
            )
            analytic = abs((np.exp(-1j * np.pi * hbar) - 1.0) / (1j * hbar) + np.pi)
            assert abs(measured - analytic) <= 1e-12

    def test_linear_order_vanishing(self):
        hbar = 1e-2
        full = semiclassical_defect(delta(LATTICE2, 1, 0), delta(LATTICE2, 0, 1), J, hbar, 4)
        half = semiclassical_defect(delta(LATTICE2, 1, 0), delta(LATTICE2, 0, 1), J, hbar / 2, 4)
        assert 0.45 <= half / full <= 0.55

    def test_hbar_zero_rejected(self):
        with pytest.raises(ValueError):
            semiclassical_defect(delta(LATTICE2, 1, 0), delta(LATTICE2, 0, 1), J, 0.0, 4)


class TestIteratedDeformation:
    def test_conjugate_composition_trivializes(self):
        rng = np.random.default_rng(10)
        sigma = Bicharacter.from_skew(LATTICE2, random_skew(rng), 0.77)
        composed = compose_cocycles(sigma, sigma.conjugate())
        a, b = random_element(LATTICE2, rng), random_element(LATTICE2, rng)
        assert (star(a, b, composed) - star(a, b, Bicharacter.trivial(LATTICE2))).l1_norm() == 0.0

    def test_exponent_addition(self):
        # composing the symplectic twist with itself doubles the scalar
        s = Bicharacter.from_skew(LATTICE2, J, 1.0)
        composed = compose_cocycles(s, s)
        doubled_hbar = Bicharacter.from_skew(LATTICE2, J, 2.0)
        rng = np.random.default_rng(30)
        for _ in range(20):
            p = LATTICE2.point(*rng.integers(-5, 6, size=2))
            q = LATTICE2.point(*rng.integers(-5, 6, size=2))
            assert composed(p, q) == pytest.approx(doubled_hbar(p, q), abs=1e-14)

    def test_fifty_random_pairs(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(50):
            hbar = float(rng.uniform(0.1, 1.4))
            s1 = Bicharacter.from_skew(LATTICE2, random_skew(rng), hbar)
            s2 = Bicharacter.from_skew(LATTICE2, random_skew(rng), hbar)
            a, b = random_element(LATTICE2, rng), random_element(LATTICE2, rng)
            worst = max(worst, iterated_star_check(a, b, s1, s2))
        assert worst <= 1e-12

    def test_mismatched_hbar_rejected(self):
        s1 = Bicharacter.from_skew(LATTICE2, J, 1.0)
        s2 = Bicharacter.from_skew(LATTICE2, J, 0.5)
        with pytest.raises(ValueError):
            compose_cocycles(s1, s2)


class TestTranslate:
    def test_zero_is_identity(self):
        rng = np.random.default_rng(12)
        a = random_element(LATTICE2, rng)
        assert translate(a, [0.0, 0.0]) == a

    def test_delta_phase(self):
        t = [0.3, 0.1]
        p = LATTICE2.point(2, -1)
        out = translate(FourierElement.delta(p), t)
        assert out.coeff(p) == pytest.approx(np.exp(2j * np.pi * (2 * 0.3 - 0.1)))

    def test_automorphism_property(self):
        rng = np.random.default_rng(13)
        sigmas, pairs, vs = [], [], []
        for _ in range(100):
            sigmas.append(
                Bicharacter.from_skew(LATTICE2, random_skew(rng), rng.uniform(0.1, 1.3))
            )
            pairs.append((random_element(LATTICE2, rng), random_element(LATTICE2, rng)))
            vs.append(rng.random(2))
        assert max(deform._automorphism_deviations(pairs, sigmas, vs)) <= 1e-12

    def test_finite_mode_translation(self):
        ctx = GroupContext.finite(5)
        sigma = Bicharacter(ctx, [[2]])
        rng = np.random.default_rng(14)
        a, b = random_element(ctx, rng), random_element(ctx, rng)
        (dev,) = deform._automorphism_deviations([(a, b)], [sigma], [ctx.point(3)])
        assert dev <= 1e-12

    def test_finite_mode_exact_at_large_modulus(self):
        n = 10**12
        ctx = GroupContext.finite(n)
        p = ctx.point(n - 1)
        out = translate(FourierElement.delta(p), p)
        assert abs(out.coeff(p) - np.exp(2j * np.pi / n)) <= 1e-15


class TestRieffelProduct:
    def _setup(self, modulus, b_val, e_val=1):
        ctx = GroupContext.finite(modulus)
        sigma = Bicharacter(ctx, [[b_val]])
        e = Bicharacter(ctx, [[e_val]])
        t = T_map(sigma, e)
        return ctx, sigma, e, t

    def test_trivial_twist_collapses_to_scaled_pointwise(self):
        ctx, _, e, _ = self._setup(5, 1)
        t_zero = T_map(Bicharacter.trivial(ctx), e)
        rng = np.random.default_rng(15)
        a = FiniteVector(ctx, rng.standard_normal(5) + 1j * rng.standard_normal(5))
        b = FiniteVector(ctx, rng.standard_normal(5) + 1j * rng.standard_normal(5))
        out = rieffel_product_finite(a, b, e, t_zero)
        expected = FiniteVector(ctx, np.sqrt(5) * a.values * b.values)
        assert out.linf_distance(expected) <= 1e-12

    def test_unit_up_to_measure_for_trivial_twist(self):
        ctx, _, e, _ = self._setup(5, 1)
        t_zero = T_map(Bicharacter.trivial(ctx), e)
        ones = FiniteVector(ctx, np.ones(ctx.moduli))
        rng = np.random.default_rng(16)
        b = FiniteVector(ctx, rng.standard_normal(5) + 1j * rng.standard_normal(5))
        out = rieffel_product_finite(ones, b, e, t_zero)
        assert out.linf_distance(FiniteVector(ctx, np.sqrt(5) * b.values)) <= 1e-12

    def test_matches_fourier_side_star(self):
        rng = np.random.default_rng(17)
        for modulus, b_val in ((5, 1), (7, 3)):
            ctx, sigma, e, t = self._setup(modulus, b_val)
            for _ in range(50):
                f = random_element(ctx, rng, max_support=modulus, box=modulus)
                g = random_element(ctx, rng, max_support=modulus, box=modulus)
                fv = _vec(f)
                gv = _vec(g)
                lhs = rieffel_product_finite(fourier(fv), fourier(gv), e, t)
                rhs = fourier(_vec(star(f, g, sigma)))
                assert lhs.linf_distance(rhs) <= 1e-10

    @pytest.mark.parametrize("s", [[[2, 1], [0, 3]], [[1, 2], [4, 0]]])
    def test_rank_two_non_symmetric_matches_transposed_cocycle(self, s):
        # on (Z/5)^2 the exponent is not symmetric, and the double sum is the
        # Fourier side of the product with sigma^T, not with sigma
        ctx = GroupContext.finite([5, 5])
        sigma = Bicharacter(ctx, s)
        sigma_t = Bicharacter(ctx, np.transpose(s))
        e = Bicharacter(ctx, np.eye(2, dtype=np.int64))
        t = T_map(sigma, e)
        assert t.is_invertible()
        rng = np.random.default_rng(19)
        match = miss = 0.0
        for _ in range(20):
            f = random_element(ctx, rng, max_support=25, box=5)
            g = random_element(ctx, rng, max_support=25, box=5)
            lhs = rieffel_product_finite(fourier(_vec(f)), fourier(_vec(g)), e, t)
            match = max(match, lhs.linf_distance(fourier(_vec(star(f, g, sigma_t)))))
            miss = max(miss, lhs.linf_distance(fourier(_vec(star(f, g, sigma)))))
        assert match <= 1e-12
        assert miss > 1.0

    @pytest.mark.parametrize(
        "moduli, s, e_matrix",
        [
            (5, [[1]], [[1]]),
            (7, [[3]], [[3]]),
            ([5, 5], [[2, 1], [0, 3]], [[1, 1], [0, 1]]),
            ([4, 4], [[2, 0], [0, 0]], [[1, 0], [0, 1]]),
        ],
    )
    def test_matches_reference_loop(self, moduli, s, e_matrix):
        ctx = GroupContext.finite(moduli)
        e = Bicharacter(ctx, e_matrix)
        t = T_map(Bicharacter(ctx, s), e)
        rng = np.random.default_rng(20)
        shape = tuple(ctx.moduli)
        for _ in range(3):
            a, b = (
                FiniteVector(ctx, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                for _ in range(2)
            )
            got = rieffel_product_finite(a, b, e, t).values
            # both sides sum |V|^2 terms in different orders
            l1 = np.abs(a.values).sum() * np.abs(b.values).sum()
            bound = 2 * ctx.size**2 * np.finfo(float).eps * ctx.norm_const * l1
            assert np.max(np.abs(got - reference_rieffel(a, b, e, t))) <= bound

    def test_round_trip_through_inverse_transform(self):
        ctx, sigma, e, t = self._setup(5, 1)
        rng = np.random.default_rng(18)
        f, g = random_element(ctx, rng, 5, 5), random_element(ctx, rng, 5, 5)
        # fourier applied three more times inverts it
        recovered = rieffel_product_finite(fourier(_vec(f)), fourier(_vec(g)), e, t)
        for _ in range(3):
            recovered = fourier(recovered)
        assert recovered.linf_distance(_vec(star(f, g, sigma))) <= 1e-10

    def test_degenerate_e_rejected(self):
        ctx, sigma, e, t = self._setup(5, 1)
        bad_e = Bicharacter(ctx, [[0]])
        a = FiniteVector(ctx, np.ones(ctx.moduli))
        with pytest.raises(ValueError):
            rieffel_product_finite(a, a, bad_e, t)


def reference_rieffel(a, b, e, t):
    """The double sum one (u, w) pair and one roll at a time."""
    ctx = a.context
    axes = tuple(range(ctx.rank))
    out = np.zeros(tuple(ctx.moduli), dtype=np.complex128)
    for u in ctx.points():
        a_shift = np.roll(a.values, shift=tuple(t.apply_vec(u.vector())), axis=axes)
        for w in ctx.points():
            b_shift = np.roll(b.values, shift=tuple(-w.vector()), axis=axes)
            out += e(u, w) * a_shift * b_shift
    return out * ctx.norm_const


def _vec(a: FourierElement) -> FiniteVector:
    arr = np.zeros(tuple(a.context.moduli), dtype=np.complex128)
    for p, c in a.coeffs.items():
        arr[p.coords] += c
    return FiniteVector(a.context, arr)


@settings(max_examples=30, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_star_delta_phase_matches_cocycle(a1, a2, b1, b2):
    sigma = Bicharacter.from_skew(LATTICE2, J, 0.31)
    p, q = LATTICE2.point(a1, a2), LATTICE2.point(b1, b2)
    out = star(FourierElement.delta(p), FourierElement.delta(q), sigma)
    assert abs(out.coeff(p + q) - sigma(p, q)) <= 1e-12
