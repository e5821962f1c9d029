import itertools
import warnings

import numpy as np
import pytest

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


def s3_action():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    mul = np.zeros((6, 6), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            mul[i, j] = index[tuple(p[q[k]] for k in range(3))]
    act = np.array([[p[x] for x in range(3)] for p in perms])
    return GammaAction(mul, act)


def random_factor(action, rng):
    return AutomorphyFactor(
        np.exp(2j * np.pi * rng.random((action.order, action.n_points)))
    )


BATTERY = [
    GammaAction.cyclic(2),
    GammaAction.cyclic(3, 4),
    GammaAction.cyclic(6, 8),
    GammaAction.cyclic_translation(4),
    s3_action(),
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
        act = s3_action()
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

    def test_integer_valued_float_tables_accepted(self):
        z2 = GammaAction.cyclic(2)
        action = GammaAction(z2.mul.astype(float), z2.act.astype(float))
        assert action.mul.dtype == np.int64 and np.array_equal(action.mul, z2.mul)

    def test_action_axioms_match_reference_loops(self):
        # every single-entry change of a non-identity row of the S3 action
        base = s3_action()
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
            ok, dev = tau_cocycle_check(action, TauCocycle.trivial(action))
            assert ok and dev == 0.0

    def test_coboundaries_pass_exhaustively(self):
        rng = np.random.default_rng(0)
        for action in BATTERY:
            tau = coboundary(action, random_factor(action, rng))
            ok, dev = tau_cocycle_check(action, tau)
            assert ok and dev <= 1e-12

    def test_single_perturbed_entry_fails(self):
        rng = np.random.default_rng(1)
        action = GammaAction.cyclic(3, 2)
        tau = coboundary(action, random_factor(action, rng))
        values = tau.values.copy()
        values[1, 2, 0] *= np.exp(0.7j)
        ok, dev = tau_cocycle_check(action, TauCocycle(values))
        assert not ok and dev > 0.1

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


class TestAutomorphyCheck:
    def test_trivial_pair_passes(self):
        for action in BATTERY[:3]:
            ok, dev = automorphy_check(
                action, TauCocycle.trivial(action), AutomorphyFactor.trivial(action)
            )
            assert ok and dev == 0.0

    def test_factor_with_own_coboundary_passes(self):
        rng = np.random.default_rng(2)
        for action in BATTERY:
            jhat = random_factor(action, rng)
            ok, dev = automorphy_check(action, coboundary(action, jhat), jhat)
            assert ok and dev <= 1e-12

    def test_mismatched_pair_fails(self):
        rng = np.random.default_rng(3)
        action = GammaAction.cyclic(4, 2)
        tau = coboundary(action, random_factor(action, rng))
        other = random_factor(action, rng)
        ok, dev = automorphy_check(action, tau, other)
        assert not ok and dev > 0.0


class TestSolver:
    def test_trivial_tau_solves_with_trivial_factor_among_solutions(self):
        action = GammaAction.cyclic(3)
        solved = solve_automorphy(action, TauCocycle.trivial(action), 3)
        assert solved is not None
        ok, _ = automorphy_check(action, TauCocycle.trivial(action), solved)
        assert ok

    def test_obstructed_class_needs_bigger_root_order(self):
        action = GammaAction.cyclic(2)
        values = np.ones((2, 2, 1), dtype=np.complex128)
        values[1, 1, 0] = -1.0
        tau = TauCocycle(values)
        assert solve_automorphy(action, tau, 2) is None
        solved = solve_automorphy(action, tau, 4)
        assert solved is not None
        assert solved.values[1, 0] in (pytest.approx(1j), pytest.approx(-1j))
        ok, dev = automorphy_check(action, tau, solved, tol=1e-12)
        assert ok and dev <= 1e-12

    def test_solves_all_coboundaries_in_battery(self):
        rng = np.random.default_rng(4)
        modulus = 8
        for action in BATTERY:
            exponents = rng.integers(0, modulus, size=(action.order, action.n_points))
            jhat = AutomorphyFactor(np.exp(2j * np.pi * exponents / modulus))
            tau = coboundary(action, jhat)
            solved = solve_automorphy(action, tau, modulus)
            assert solved is not None
            ok, dev = automorphy_check(action, tau, solved, tol=1e-9)
            assert ok, dev

    def test_non_cocycle_rejected(self):
        action = GammaAction.cyclic(3, 2)
        rng = np.random.default_rng(5)
        values = np.exp(2j * np.pi * rng.random((3, 3, 2)))
        with pytest.raises(ValueError):
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
                solve_automorphy(action, TauCocycle.trivial(action), 0)

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
                ok, _ = automorphy_check(action, tau, solved)
                assert ok


def _brute_force(action, tau, modulus):
    n = action.order * action.n_points
    for assignment in itertools.product(range(modulus), repeat=n):
        table = np.array(assignment).reshape(action.order, action.n_points)
        jhat = AutomorphyFactor(np.exp(2j * np.pi * table / modulus))
        ok, _ = automorphy_check(action, tau, jhat)
        if ok:
            return jhat
    return None


class TestUTransform:
    def test_trivial_everything(self):
        action = GammaAction.cyclic(4, 3)
        u = u_transform(action, AutomorphyFactor.trivial(action))
        ok, dev = u_cocycle_check(action, TauCocycle.trivial(action), u)
        assert ok and dev == 0.0

    def test_identity_for_every_valid_pair(self):
        rng = np.random.default_rng(7)
        for action in BATTERY:
            jhat = random_factor(action, rng)
            tau = coboundary(action, jhat)
            u = u_transform(action, jhat)
            ok, dev = u_cocycle_check(action, tau, u, tol=1e-12)
            assert ok and dev <= 1e-12

    def test_solver_output_composes(self):
        action = GammaAction.cyclic(2)
        values = np.ones((2, 2, 1), dtype=np.complex128)
        values[1, 1, 0] = -1.0
        tau = TauCocycle(values)
        solved = solve_automorphy(action, tau, 4)
        ok, dev = u_cocycle_check(action, tau, u_transform(action, solved), tol=1e-12)
        assert ok and dev <= 1e-12

    def test_perturbed_u_fails(self):
        rng = np.random.default_rng(8)
        action = GammaAction.cyclic(3, 2)
        jhat = random_factor(action, rng)
        tau = coboundary(action, jhat)
        u = u_transform(action, jhat)
        u_bad = u.copy()
        u_bad[1, 0] *= np.exp(0.5j)
        ok, dev = u_cocycle_check(action, tau, u_bad)
        assert not ok and dev > 0.1


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
                    # every x in (Z/M)^ncols, one row each
                    grid = np.array(
                        list(itertools.product(range(modulus), repeat=ncols)), dtype=np.int64
                    ).reshape(modulus**ncols, ncols)
                    hits = ((grid @ a.T - rhs) % modulus == 0).all(axis=1)
                    assert (solved is not None) == hits.any(), (a, rhs, modulus)
                    if solved is not None:
                        assert len(solved) == ncols
                        assert all(type(v) is int and 0 <= v < modulus for v in solved)
                        assert ((a @ np.array(solved, dtype=np.int64) - rhs) % modulus == 0).all()

    def test_translation_twelve_coboundary(self):
        # 144 unknowns and 1728 rows over Z/6, so both prime factors eliminate
        action = GammaAction.cyclic_translation(12)
        rng = np.random.default_rng(12)
        exponents = rng.integers(0, 6, size=(action.order, action.n_points))
        tau = coboundary(action, AutomorphyFactor(np.exp(2j * np.pi * exponents / 6)))
        solved = solve_automorphy(action, tau, 6)
        assert solved is not None
        assert automorphy_check(action, tau, solved).ok


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
    "S3": s3_action,
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
        assert tau_cocycle_check(action, tau).max_deviation == reference_tau_deviation(
            action, t
        )
        assert automorphy_check(
            action, tau, jhat
        ).max_deviation == reference_automorphy_deviation(action, t, j)
        assert np.array_equal(coboundary(action, jhat).values, reference_coboundary(action, j))
        assert np.array_equal(u_transform(action, jhat), reference_u_transform(action, j))
        assert u_cocycle_check(action, tau, u).max_deviation == reference_u_deviation(
            action, t, u
        )
        # the deviations are far from zero, so the comparison is not vacuous
        assert reference_tau_deviation(action, t) > 0.1
