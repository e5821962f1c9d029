import itertools
import math
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from test_modarith import check_solution, coboundary_rows, solvable_by_enumeration

from startwist import automorphy
from startwist.acceptance import _s3_on_points
from startwist.automorphy import (
    AutomorphyFactor,
    GammaAction,
    TauCocycle,
    automorphy_check,
    coboundary,
    solve_automorphy,
    tau_cocycle_check,
    u_cocycle_check,
    u_transform,
)
from startwist.modarith import solve_mod_system


def trivial_tau(action):
    return TauCocycle(np.ones((action.order, action.order, action.n_points)))


def trivial_factor(action):
    return AutomorphyFactor(np.ones((action.order, action.n_points)))


def random_factor(action, rng):
    return AutomorphyFactor(
        np.exp(2j * np.pi * rng.random((action.order, action.n_points)))
    )


BATTERY = [
    GammaAction.cyclic(2),
    GammaAction.cyclic(3, 4),
    GammaAction.cyclic(6, 8),
    GammaAction.cyclic_translation(4),
    _s3_on_points(),
]


class TestGammaAction:
    def test_identity_detected(self):
        assert GammaAction.cyclic(4).identity == 0

    def test_inverses(self):
        act = GammaAction.cyclic(5)
        assert act.inv.tolist() == [0, 4, 3, 2, 1]

    def test_bad_table_rejected(self):
        mul = np.array([[0, 1], [1, 1]])
        with pytest.raises(ValueError):
            GammaAction(mul, np.zeros((2, 1), dtype=int))

    def test_action_compatibility_enforced(self):
        mul = GammaAction.cyclic(2).mul
        # the generator squares to the identity, so collapsing both points to 1
        # violates g.(g.0) = 0
        bad_act = np.array([[0, 1], [1, 1]])
        with pytest.raises(ValueError):
            GammaAction(mul, bad_act)

    def test_nonabelian_group_accepted(self):
        act = _s3_on_points()
        assert act.order == 6 and act.n_points == 3

    def test_out_of_range_tables_rejected(self):
        z2 = GammaAction.cyclic(2).mul
        z3 = GammaAction.cyclic(3).mul
        bad_mul = z3.copy()
        bad_mul[2, 2] = 7
        cases = [
            (z2, np.array([[0], [5]]), "action table"),
            (z2, np.array([[0, 1], [-1, 0]]), "action table"),
            (bad_mul, np.zeros((3, 1), dtype=int), "multiplication table"),
            (-z3, np.zeros((3, 1), dtype=int), "multiplication table"),
        ]
        for mul, act, table in cases:
            with pytest.raises(ValueError, match=table):
                GammaAction(mul, act)

    def test_non_integral_tables_rejected(self):
        z2 = GammaAction.cyclic(2)
        cases = [
            ([[0, 1.7], [1.2, 0]], [[0], [0]], "multiplication table"),
            (z2.mul, [[0], [0.5]], "action table"),
            (z2.mul, [[0], [np.nan]], "action table"),
        ]
        for mul, act, table in cases:
            with pytest.raises(ValueError, match=f"{table} must hold integers"):
                GammaAction(np.asarray(mul), np.asarray(act))

    def test_tables_read_only(self):
        action = GammaAction.cyclic(3)
        for table in (action.mul, action.act, action.inv[None]):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 2

    def test_integer_valued_float_tables_accepted(self):
        z2 = GammaAction.cyclic(2)
        action = GammaAction(z2.mul.astype(float), z2.act.astype(float))
        assert action.mul.dtype == np.int64 and np.array_equal(action.mul, z2.mul)

    def test_action_axioms_match_reference_loops(self):
        # every single-entry change of a non-identity row of the S3 action
        base = _s3_on_points()
        for g in range(1, base.order):
            for x in range(base.n_points):
                for y in range(base.n_points):
                    act = base.act.copy()
                    act[g, x] = y
                    expected = all(
                        act[a, act[b, z]] == act[base.mul[a, b], z]
                        for a in range(base.order)
                        for b in range(base.order)
                        for z in range(base.n_points)
                    )
                    try:
                        GammaAction(base.mul, act)
                        accepted = True
                    except ValueError as exc:
                        assert "compatible" in str(exc)
                        accepted = False
                    assert accepted == expected


class TestTauCocycleCheck:
    def test_trivial_passes(self):
        for action in BATTERY:
            assert tau_cocycle_check(action, trivial_tau(action)) == 0.0

    def test_coboundaries_pass_exhaustively(self):
        rng = np.random.default_rng(0)
        for action in BATTERY:
            tau = coboundary(action, random_factor(action, rng))
            assert tau_cocycle_check(action, tau) <= 1e-12

    def test_single_perturbed_entry_fails(self):
        rng = np.random.default_rng(1)
        action = GammaAction.cyclic(3, 2)
        tau = coboundary(action, random_factor(action, rng))
        values = tau.values.copy()
        values[1, 2, 0] *= np.exp(0.7j)
        dev = tau_cocycle_check(action, TauCocycle(values))
        assert not dev <= 1e-9 and dev > 0.1

    def test_non_unit_values_rejected(self):
        action = GammaAction.cyclic(2)
        with pytest.raises(ValueError):
            TauCocycle(np.full((2, 2, 1), 2.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0.0)])
    def test_non_finite_values_rejected(self, bad):
        tau = np.ones((2, 2, 1), dtype=np.complex128)
        tau[1, 1, 0] = bad
        with pytest.raises(ValueError, match="modulus 1"):
            TauCocycle(tau)
        factor = np.ones((2, 1), dtype=np.complex128)
        factor[1, 0] = bad
        with pytest.raises(ValueError, match="modulus 1"):
            AutomorphyFactor(factor)

    # an int beyond uint64, a Fraction or a Decimal makes an object array; the
    # unit check reads it as the complex table it is stored as
    @pytest.mark.parametrize("bad", [2**70, Fraction(2), Fraction(1, 2), Decimal(2)])
    def test_numbers_held_as_objects_checked_for_modulus(self, bad):
        with pytest.raises(ValueError) as err:
            TauCocycle([[[1, bad]]])
        assert str(err.value) == "tau values must have modulus 1"
        with pytest.raises(ValueError) as err:
            AutomorphyFactor([[bad]])
        assert str(err.value) == "factor values must have modulus 1"

    def test_unit_numbers_held_as_objects_read(self):
        values = [[Fraction(1), Fraction(-1), 2**70 // 2**70, 1j]]
        factor = AutomorphyFactor(values)
        assert np.array_equal(factor.values, np.array(values, dtype=np.complex128))


class TestAutomorphyCheck:
    def test_trivial_pair_passes(self):
        for action in BATTERY[:3]:
            dev = automorphy_check(
                action, trivial_tau(action), trivial_factor(action)
            )
            assert dev == 0.0

    def test_factor_with_own_coboundary_passes(self):
        rng = np.random.default_rng(2)
        for action in BATTERY:
            jhat = random_factor(action, rng)
            assert automorphy_check(action, coboundary(action, jhat), jhat) <= 1e-12

    def test_mismatched_pair_fails(self):
        rng = np.random.default_rng(3)
        action = GammaAction.cyclic(4, 2)
        tau = coboundary(action, random_factor(action, rng))
        other = random_factor(action, rng)
        dev = automorphy_check(action, tau, other)
        assert not dev <= 1e-9 and dev > 0.0


class TestSolver:
    def test_trivial_tau_solves_with_trivial_factor_among_solutions(self):
        action = GammaAction.cyclic(3)
        solved = solve_automorphy(action, trivial_tau(action), 3)
        assert solved is not None
        assert automorphy_check(action, trivial_tau(action), solved) <= 1e-9

    def test_numpy_integer_modulus(self):
        action = GammaAction.cyclic(2)
        values = np.ones((2, 2, 1), dtype=np.complex128)
        values[1, 1, 0] = -1.0
        tau = TauCocycle(values)
        solved = solve_automorphy(action, tau, np.int64(4))
        assert np.array_equal(solved.values, solve_automorphy(action, tau, 4).values)

    def test_obstructed_class_needs_bigger_root_order(self):
        action = GammaAction.cyclic(2)
        values = np.ones((2, 2, 1), dtype=np.complex128)
        values[1, 1, 0] = -1.0
        tau = TauCocycle(values)
        assert solve_automorphy(action, tau, 2) is None
        solved = solve_automorphy(action, tau, 4)
        assert solved is not None
        assert solved.values[1, 0] in (pytest.approx(1j), pytest.approx(-1j))
        assert automorphy_check(action, tau, solved) <= 1e-12

    def test_solves_all_coboundaries_in_battery(self):
        rng = np.random.default_rng(4)
        modulus = 8
        for action in BATTERY:
            exponents = rng.integers(0, modulus, size=(action.order, action.n_points))
            jhat = AutomorphyFactor(np.exp(2j * np.pi * exponents / modulus))
            tau = coboundary(action, jhat)
            solved = solve_automorphy(action, tau, modulus)
            assert solved is not None
            dev = automorphy_check(action, tau, solved)
            assert dev <= 1e-9, dev

    def test_non_cocycle_rejected(self):
        action = GammaAction.cyclic(3, 2)
        rng = np.random.default_rng(5)
        values = np.exp(2j * np.pi * rng.random((3, 3, 2)))
        with pytest.raises(ValueError):
            solve_automorphy(action, TauCocycle(values), 4)

    def test_non_cocycle_of_roots_rejected_by_cocycle_check(self):
        # fourth roots of unity, so only the cocycle precondition can reject it
        action = GammaAction.cyclic(2)
        values = np.ones((2, 2, 1), dtype=np.complex128)
        values[0, 1, 0] = 1j
        assert tau_cocycle_check(action, TauCocycle(values)) > 0.1
        with pytest.raises(ValueError, match="tau is not a cocycle"):
            solve_automorphy(action, TauCocycle(values), 4)

    def test_wrong_root_order_rejected(self):
        action = GammaAction.cyclic(2)
        values = np.ones((2, 2, 1), dtype=np.complex128)
        values[1, 1, 0] = np.exp(2j * np.pi / 3)
        with pytest.raises(ValueError):
            solve_automorphy(action, TauCocycle(values), 2)

    def test_modulus_zero_rejected_without_warnings(self):
        action = GammaAction.cyclic(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="modulus 0"):
                solve_automorphy(action, trivial_tau(action), 0)

    def test_agrees_with_exhaustive_search_on_tiny_instances(self):
        # independent oracle: enumerate all exponent tables over Z/M
        action = GammaAction.cyclic(2, 2, np.array([[0, 1], [1, 0]]))
        modulus = 2
        rng = np.random.default_rng(6)
        for _ in range(5):
            exponents = rng.integers(0, modulus, size=(2, 2))
            jhat = AutomorphyFactor(np.exp(2j * np.pi * exponents / modulus))
            tau = coboundary(action, jhat)
            solved = solve_automorphy(action, tau, modulus)
            brute = _brute_force(action, tau, modulus)
            assert (solved is not None) == (brute is not None)
            if solved is not None:
                assert automorphy_check(action, tau, solved) <= 1e-9


def _brute_force(action, tau, modulus):
    n = action.order * action.n_points
    for assignment in itertools.product(range(modulus), repeat=n):
        table = np.array(assignment).reshape(action.order, action.n_points)
        jhat = AutomorphyFactor(np.exp(2j * np.pi * table / modulus))
        if automorphy_check(action, tau, jhat) <= 1e-9:
            return jhat
    return None


class TestUTransform:
    def test_trivial_everything(self):
        action = GammaAction.cyclic(4, 3)
        u = u_transform(action, trivial_factor(action))
        assert u_cocycle_check(action, trivial_tau(action), u) == 0.0

    def test_identity_for_every_valid_pair(self):
        rng = np.random.default_rng(7)
        for action in BATTERY:
            jhat = random_factor(action, rng)
            tau = coboundary(action, jhat)
            u = u_transform(action, jhat)
            assert u_cocycle_check(action, tau, u) <= 1e-12

    def test_solver_output_composes(self):
        action = GammaAction.cyclic(2)
        values = np.ones((2, 2, 1), dtype=np.complex128)
        values[1, 1, 0] = -1.0
        tau = TauCocycle(values)
        solved = solve_automorphy(action, tau, 4)
        assert u_cocycle_check(action, tau, u_transform(action, solved)) <= 1e-12

    def test_perturbed_u_fails(self):
        rng = np.random.default_rng(8)
        action = GammaAction.cyclic(3, 2)
        jhat = random_factor(action, rng)
        tau = coboundary(action, jhat)
        u = u_transform(action, jhat)
        u_bad = u.copy()
        u_bad[1, 0] *= np.exp(0.5j)
        dev = u_cocycle_check(action, tau, u_bad)
        assert not dev <= 1e-9 and dev > 0.1


class TestModularSolver:
    def test_simple_system(self):
        # 2x = 2 mod 4 has solutions x in {1, 3}
        solution = solve_mod_system([[2]], [2], 4)
        assert solution is not None and (2 * solution[0]) % 4 == 2

    def test_inconsistent_system(self):
        assert solve_mod_system([[2]], [1], 4) is None

    def test_random_systems_against_brute_force(self):
        rng = np.random.default_rng(9)
        shapes = [(r, c) for r in range(1, 5) for c in range(4)]
        for modulus in (1, 2, 3, 4, 6, 8, 9, 12, 30, 36):
            for nrows, ncols in shapes:
                for _ in range(3):
                    a = rng.integers(-9, 10, size=(nrows, ncols))
                    if ncols:
                        # a column scaled by a zero divisor of most moduli
                        a[:, rng.integers(ncols)] *= int(rng.choice([2, 3, 4]))
                    if rng.random() < 0.5:
                        rhs = a @ rng.integers(0, modulus, size=ncols) % modulus
                    else:
                        rhs = rng.integers(0, modulus, size=nrows)
                    solved = solve_mod_system(a.tolist(), rhs.tolist(), modulus)
                    expected = solvable_by_enumeration(a, rhs, modulus)
                    assert (solved is not None) == expected, (a, rhs, modulus)
                    if solved is not None:
                        check_solution(a, rhs, modulus, solved)

    def test_translation_twelve_coboundary(self):
        # 144 unknowns and 156 generator rows over Z/6, so both prime factors eliminate
        action = GammaAction.cyclic_translation(12)
        rng = np.random.default_rng(12)
        exponents = rng.integers(0, 6, size=(action.order, action.n_points))
        tau = coboundary(action, AutomorphyFactor(np.exp(2j * np.pi * exponents / 6)))
        solved = solve_automorphy(action, tau, 6)
        assert solved is not None
        assert automorphy_check(action, tau, solved) <= 1e-9


def s3_on_itself():
    mul = _s3_on_points().mul
    return GammaAction(mul, mul)


def klein_on_itself():
    mul = np.bitwise_xor.outer(np.arange(4), np.arange(4))
    return GammaAction(mul, mul)


def carry(action):
    """The carry cocycle [a + b >= n] of Z/n, the same at every point."""
    a = np.arange(action.order)
    shape = (action.order, action.order, action.n_points)
    return np.broadcast_to((a[:, None] + a >= action.order)[..., None], shape)


# (action, exponent table added to a seeded coboundary); the first three
# need two generators, the trivial group none
GENERATOR_BATTERY = {
    "S3 on 3 points": (_s3_on_points, None),
    "S3 on itself": (s3_on_itself, None),
    "Klein on itself": (klein_on_itself, None),
    "trivial on 3 points, omega^x": (
        lambda: GammaAction.cyclic(1, 3), lambda action: np.arange(3)[None, None]
    ),
    "Z/4 on 2 points, carry": (lambda: GammaAction.cyclic(4, 2), carry),
    "Z/6, carry": (lambda: GammaAction.cyclic(6), carry),
}
MODULI = (2, 3, 4, 6, 8, 9)


class TestGeneratorRows:
    @pytest.mark.parametrize("name", list(GENERATOR_BATTERY))
    def test_verdicts_match_every_row(self, name):
        build, extra = GENERATOR_BATTERY[name]
        action = build()
        dense = coboundary_rows(action)
        rng = np.random.default_rng(26)
        verdicts = []
        for modulus in MODULI:
            j = rng.integers(0, modulus, size=(action.order, action.n_points))
            t = j[:, action.act] + j - j[action.mul] + (0 if extra is None else extra(action))
            tau = TauCocycle(np.exp(2j * np.pi * (t % modulus) / modulus))
            solved = solve_automorphy(action, tau, modulus)
            expected = solve_mod_system(dense, t.ravel() % modulus, modulus)
            assert (solved is None) == (expected is None), modulus
            if solved is not None:
                assert automorphy_check(action, tau, solved) <= 1e-9
            verdicts.append(solved is not None)
        # the carry class of Z/n dies over Z/M exactly when gcd(n, M) = 1
        coprime = [extra is not carry or math.gcd(action.order, m) == 1 for m in MODULI]
        assert verdicts == coprime

    def test_exact_check_catches_what_the_generator_rows_miss(self, monkeypatch):
        # (2, 1, 0) is not a row of the system: Z/3 is generated by 1 alone
        action = GammaAction.cyclic_translation(3)
        j = np.random.default_rng(3).integers(0, 6, size=(3, 3))
        t = (j[:, action.act] + j - j[action.mul]) % 6
        t[2, 1, 0] = (t[2, 1, 0] + 1) % 6
        tau = TauCocycle(np.exp(2j * np.pi * t / 6))
        with pytest.raises(ValueError, match="tau is not a cocycle"):
            solve_automorphy(action, tau, 6)
        monkeypatch.setattr(automorphy, "tau_cocycle_check", lambda action, tau: 0.0)
        with pytest.raises(ValueError, match="the solution fails a coboundary equation"):
            solve_automorphy(action, tau, 6)


class TestSizeLimits:
    @pytest.mark.parametrize(
        "order, n_points, entries", [(129, 1, 129**3), (2, 2**19 + 1, 4 * (2**19 + 1))]
    )
    def test_group_tables_above_limit_rejected(self, order, n_points, entries):
        message = f"= {entries} entries, above the limit of {2**21}"
        with pytest.raises(ValueError, match=message):
            GammaAction.cyclic(order, n_points)

    def test_largest_group_below_limit_accepted(self):
        assert GammaAction.cyclic(128).order == 128

    def test_system_above_limit_rejected_before_the_cocycle_check(self, monkeypatch):
        # Z/2 on 512 points: 2 * 512 forms and 2 * 512 spare-edge rows, each 512 + 1 wide
        action = GammaAction.cyclic(2, 512)

        def unreachable(action, tau):
            raise AssertionError("the size is checked first")

        monkeypatch.setattr(automorphy, "tau_cocycle_check", unreachable)
        message = f"forms and system of {4 * 512 * 513} entries, above the limit of {2**20}"
        with pytest.raises(ValueError, match=message):
            solve_automorphy(action, trivial_tau(action), 2)

    def test_cocycle_check_above_limit_rejected_before_the_walk(self, monkeypatch):
        action = GammaAction.cyclic(128, 9)

        def unreachable(action):
            raise AssertionError("the size is checked first")

        monkeypatch.setattr(automorphy, "_schreier_tree", unreachable)
        message = f"order**3 * points = {128**3 * 9} entries, above the limit of {2**24}"
        with pytest.raises(ValueError, match=re.escape(message)):
            solve_automorphy(action, trivial_tau(action), 2)


def greedy_generators(action):
    """Greedy generators by closure in numpy, the reference for the walk's choice."""
    gens, reached = [], np.arange(action.order) == action.identity
    while not reached.all():  # each generator the least element the earlier ones miss
        gens.append(int(reached.argmin()))
        while not reached[action.mul[gens][:, reached]].all():
            reached[action.mul[gens][:, reached]] = True
    return gens


class TestSchreierTree:
    @pytest.mark.parametrize("name", list(GENERATOR_BATTERY))
    def test_walk_covers_every_edge_once(self, name):
        action = GENERATOR_BATTERY[name][0]()
        gens, tree, spare = automorphy._schreier_tree(action)
        assert gens == greedy_generators(action)
        assert len(tree) == action.order - 1 - len(gens)
        edges = [(s, k) for s, k, _ in tree] + spare
        assert sorted(edges) == sorted(itertools.product(gens, range(action.order)))
        reached = {action.identity, *gens}
        for s, k, sk in tree:  # each tree edge leaves a reached element for a new one
            assert k in reached and sk == action.mul[s, k] and sk not in reached
            reached.add(sk)
        assert len(reached) == action.order

    @pytest.mark.parametrize(
        "action, shape",
        [
            # one generator, so 2 spare edges: (1, 0) back to 1 and (1, 7) back to e
            (GammaAction.cyclic_translation(8), (2 * 8, 8)),
            # two generators and 3 tree edges: 12 - 3 = 9 spare edges, on 3 points
            (_s3_on_points(), (9 * 3, 2 * 3)),
        ],
        ids=["translation8", "S3 on 3 points"],
    )
    def test_reduced_system_shape(self, monkeypatch, action, shape):
        seen = []

        def recording(a, b, modulus):
            seen.append(np.shape(a))
            return solve_mod_system(a, b, modulus)

        monkeypatch.setattr(automorphy, "solve_mod_system", recording)
        solved = solve_automorphy(action, trivial_tau(action), 4)
        assert automorphy_check(action, trivial_tau(action), solved) <= 1e-9
        assert seen == [shape]

    def test_translation_32_solves(self):
        # a 64 x 32 system; the dense one, 1 081 344 entries, is above the size limit
        action = GammaAction.cyclic_translation(32)
        exponents = np.random.default_rng(32).integers(0, 16, size=(32, 32))
        tau = coboundary(action, AutomorphyFactor(np.exp(2j * np.pi * exponents / 16)))
        solved = solve_automorphy(action, tau, 16)
        assert solved is not None
        assert automorphy_check(action, tau, solved) <= 1e-9

    def test_dropped_spare_edge_caught_by_exact_check(self, monkeypatch):
        # the carry class of Z/6 survives over Z/2; its last spare edge, (1, 5)
        # back to e, is the only equation that sees it
        action = GammaAction.cyclic(6)
        tau = TauCocycle(np.exp(1j * np.pi * carry(action)))
        assert solve_automorphy(action, tau, 2) is None

        def last_row_dropped(a, b, modulus):
            return solve_mod_system(a[:-1], b[:-1], modulus)

        monkeypatch.setattr(automorphy, "solve_mod_system", last_row_dropped)
        with pytest.raises(ValueError, match="the solution fails a coboundary equation"):
            solve_automorphy(action, tau, 2)


# ----------------------------------------------------------------------
# the exhaustive loops the indexed checks replaced, kept as oracles


def reference_tau_deviation(action, t):
    dev = 0.0
    for k1 in range(action.order):
        for k2 in range(action.order):
            k12 = action.mul[k1, k2]
            for k3 in range(action.order):
                lhs = t[k12, k3] * t[k1, k2, action.act[k3]]
                rhs = t[k1, action.mul[k2, k3]] * t[k2, k3]
                dev = max(dev, float(np.max(np.abs(lhs - rhs))))
    return dev


def reference_automorphy_deviation(action, t, j):
    dev = 0.0
    for k1 in range(action.order):
        for k2 in range(action.order):
            lhs = j[k1, action.act[k2]] * j[k2]
            rhs = t[k1, k2] * j[action.mul[k1, k2]]
            dev = max(dev, float(np.max(np.abs(lhs - rhs))))
    return dev


def reference_coboundary(action, j):
    out = np.empty((action.order, action.order, action.n_points), dtype=np.complex128)
    for k1 in range(action.order):
        for k2 in range(action.order):
            out[k1, k2] = j[k1, action.act[k2]] * j[k2] / j[action.mul[k1, k2]]
    return out


def reference_u_transform(action, j):
    out = np.empty_like(j)
    for k in range(action.order):
        out[k] = j[k, action.act[action.inv[k]]]
    return out


def reference_u_deviation(action, t, u):
    dev = 0.0
    for k1 in range(action.order):
        for k2 in range(action.order):
            k12 = action.mul[k1, k2]
            lhs = u[k1] * u[k2, action.act[action.inv[k1]]]
            rhs = t[k1, k2, action.act[action.inv[k12]]] * u[k12]
            dev = max(dev, float(np.max(np.abs(lhs - rhs))))
    return dev


REFERENCE_ACTIONS = {
    "cyclic6x8": lambda: GammaAction.cyclic(6, 8),
    "translation10": lambda: GammaAction.cyclic_translation(10),
    "cyclic24x4": lambda: GammaAction.cyclic(24, 4),
    "S3": _s3_on_points,
}


class TestChecksAgainstReference:
    @pytest.mark.parametrize("name", list(REFERENCE_ACTIONS))
    def test_random_non_cocycle_tables(self, name):
        action = REFERENCE_ACTIONS[name]()
        rng = np.random.default_rng(50)
        shape = (action.order, action.order, action.n_points)
        tau = TauCocycle(np.exp(2j * np.pi * rng.random(shape)))
        jhat = random_factor(action, rng)
        u = random_factor(action, rng).values
        t, j = tau.values, jhat.values
        assert tau_cocycle_check(action, tau) == reference_tau_deviation(action, t)
        assert automorphy_check(action, tau, jhat) == reference_automorphy_deviation(
            action, t, j
        )
        assert np.array_equal(coboundary(action, jhat).values, reference_coboundary(action, j))
        assert np.array_equal(u_transform(action, jhat), reference_u_transform(action, j))
        assert u_cocycle_check(action, tau, u) == reference_u_deviation(action, t, u)
        # the deviations are far from zero, so the comparison is not vacuous
        assert reference_tau_deviation(action, t) > 0.1
