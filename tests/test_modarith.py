"""The modular solver against independent eliminations.

The Smith-over-Z solver is kept here as an oracle: it shares no code with
``startwist.modarith``.  A copy of the full-scan Z/q elimination pins the
pivot rule: the solver must return its solutions exactly.  The dense
coboundary system, one row per (k1, k2, x), is the reference for
``solve_automorphy``'s generator rows.
"""

import math

import numpy as np
import pytest

from startwist.abelian import GroupContext
from startwist.automorphy import GammaAction
from startwist.cocycles import Bicharacter
from startwist.modarith import _solve_prime_power, checked_array, solve_mod_system


class TestCheckedArray:
    @pytest.mark.parametrize("dtype", [np.int64, np.float64, np.complex128])
    @pytest.mark.parametrize("source_dtype", [np.int64, np.float64])
    def test_fresh_read_only_copy(self, dtype, source_dtype):
        source = np.array([[1, 2], [3, 4]], dtype=source_dtype)
        out = checked_array(source, "table", dtype)
        assert out.dtype == dtype and not out.flags.writeable
        assert not np.shares_memory(out, source) and np.array_equal(out, source)

    @pytest.mark.parametrize("entry", [1.5, np.nan, np.inf, 1 + 0j])
    def test_integer_dtype_takes_integers_only(self, entry):
        with pytest.raises(ValueError, match="table must hold integers"):
            checked_array([[1.0, entry]], "table", np.int64)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_float_dtypes_take_finite_values_only(self, dtype, entry):
        with pytest.raises(ValueError, match="table entries must be finite"):
            checked_array([1.0, entry], "table", dtype)


# ----------------------------------------------------------------------
# the replaced elimination, kept as an oracle


def reference_smith_eliminate(rows: list[list[int]], ncols: int):
    """Diagonalize over Z with elementary ops; returns (diag, transformed rhs map, V).

    The right transform V (ncols x ncols, unimodular) satisfies: solutions x of
    the original system are x = V y where y solves the diagonal system.  Row
    operations are applied to the right-hand side lazily via ``apply_rows``.
    """
    nrows = len(rows)
    a = [row[:] for row in rows]
    row_ops: list[tuple[str, int, int, int]] = []
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        row_ops.append(("swap", i, j, 0))

    def add_row(i, j, c):
        # row i += c * row j
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        row_ops.append(("add", i, j, c))

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_col(i, j, c):
        # col i += c * col j
        for row in a:
            row[i] += c * row[j]
        for row in v:
            row[i] += c * row[j]

    k = 0
    limit = min(nrows, ncols)
    while k < limit:
        pivot = None
        best = None
        for i in range(k, nrows):
            for j in range(k, ncols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != k:
            swap_rows(k, pi)
        if pj != k:
            swap_cols(k, pj)
        reduced = True
        while reduced:
            reduced = False
            for i in range(k + 1, nrows):
                if a[i][k] != 0:
                    q = a[i][k] // a[k][k]
                    add_row(i, k, -q)
                    if a[i][k] != 0:
                        swap_rows(k, i)
                        reduced = True
            for j in range(k + 1, ncols):
                if a[k][j] != 0:
                    q = a[k][j] // a[k][k]
                    add_col(j, k, -q)
                    if a[k][j] != 0:
                        swap_cols(k, j)
                        reduced = True
        k += 1

    diag = [a[i][i] if i < ncols else 0 for i in range(min(nrows, ncols))]

    def apply_rows(rhs: list[int]) -> list[int]:
        out = rhs[:]
        for op, i, j, c in row_ops:
            if op == "swap":
                out[i], out[j] = out[j], out[i]
            else:
                out[i] += c * out[j]
        return out

    return diag, apply_rows, v



def reference_solve_mod_system(a_rows, rhs, modulus: int):
    """Smith-style elimination over Z with unbounded entries; one solution or None."""
    nrows = len(a_rows)
    if nrows == 0:
        return []
    ncols = len(a_rows[0])
    diag, apply_rows, v = reference_smith_eliminate([list(map(int, r)) for r in a_rows], ncols)
    b = apply_rows([int(x) for x in rhs])
    y = [0] * ncols
    for i in range(nrows):
        d = diag[i] if i < len(diag) else 0
        bi = b[i] % modulus
        if d == 0:
            if bi % modulus != 0:
                return None
            continue
        g = math.gcd(d, modulus)
        if bi % g != 0:
            return None
        m_red = modulus // g
        y[i] = ((bi // g) * pow((d // g) % m_red, -1, m_red)) % m_red if m_red > 1 else 0
    x = [0] * ncols
    for i in range(ncols):
        x[i] = sum(v[i][j] * y[j] for j in range(ncols)) % modulus
    return x


def sparse_system(rng, nrows, ncols, modulus):
    """Three entries in [-3, 3] per row, like the automorphy rows; consistent half the time.

    The oracle's entries grow without bound over Z: on a dense 20 x 12 system
    with entries in [-9, 9] they pass 200 000 bits by the sixth pivot, so the
    oracle only sees sparse systems.
    """
    a = np.zeros((nrows, ncols), dtype=np.int64)
    for row in a:
        row[rng.choice(ncols, size=3, replace=False)] = rng.integers(-3, 4, size=3)
    if rng.random() < 0.5:
        return a, a @ rng.integers(0, modulus, size=ncols) % modulus
    return a, rng.integers(0, modulus, size=nrows)


class TestSolverAgainstSmith:
    @pytest.mark.parametrize("modulus", [12, 30])
    def test_mid_size_verdicts(self, modulus):
        rng = np.random.default_rng(modulus)
        verdicts = []
        for trial in range(60):
            a, rhs = sparse_system(rng, 20, 12, modulus)
            solved = solve_mod_system(a.tolist(), rhs.tolist(), modulus)
            expected = reference_solve_mod_system(a.tolist(), rhs.tolist(), modulus)
            assert (solved is None) == (expected is None), (trial, a, rhs)
            if solved is not None:
                assert all(0 <= v < modulus for v in solved)
                assert ((a @ np.array(solved, dtype=np.int64) - rhs) % modulus == 0).all()
            verdicts.append(solved is not None)
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("modulus", [0, -3, 2**31, 2**40])
    def test_modulus_out_of_range_rejected(self, modulus):
        with pytest.raises(ValueError, match=f"modulus {modulus}"):
            solve_mod_system([[1]], [0], modulus)

    def test_largest_modulus_stays_exact(self):
        # 2**31 - 1 is prime: products of reduced entries come close to 2**62
        modulus = 2**31 - 1
        a = [[modulus - 1, modulus - 2], [modulus - 3, 5]]
        x = [modulus - 7, modulus - 11]
        rhs = [sum(c * v for c, v in zip(row, x)) % modulus for row in a]
        assert solve_mod_system(a, rhs, modulus) == x


class TestSolverInput:
    @pytest.mark.parametrize(
        "a_rows, rhs, message",
        [
            ([[1.5]], [1], "A must hold integers"),
            ([[1]], [0.5], "rhs must hold integers"),
            ([[1, 2]], [1, 2], r"rhs 1-d, one entry per row; got \(1, 2\), \(2,\)"),
            ([[1], [2]], [[1], [2]], r"rhs 1-d, one entry per row; got \(2, 1\), \(2, 1\)"),
            ([1, 2], [1, 2], r"A must be 2-d .* got \(2,\), \(2,\)"),
            # complex input is refused by name, not cast to 1 with a ComplexWarning
            ([[1 + 0j]], [1], "A must hold integers"),
            ([[1]], [1 + 0j], "rhs must hold integers"),
        ],
    )
    def test_bad_input_named(self, a_rows, rhs, message):
        with pytest.raises(ValueError, match=message):
            solve_mod_system(a_rows, rhs, 5)

    # every integer reader names what it cannot read, a string or None as a
    # non-integer and an integer beyond int64 however numpy holds it
    READERS = {
        "solve_mod_system": (lambda table: solve_mod_system(table, [1], 5), "A"),
        "GammaAction": (lambda table: GammaAction(table, [[0]]), "multiplication table"),
        "Bicharacter": (
            lambda table: Bicharacter(GroupContext.finite(5), table), "exponent matrix"
        ),
    }

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize(
        "entry, error, message",
        [
            ("1.5", ValueError, "must hold integers"),
            ("1", ValueError, "must hold integers"),
            (None, ValueError, "must hold integers"),
            (2**63, OverflowError, "must fit in int64"),
            (2**64, OverflowError, "must fit in int64"),
            (-(2**70), OverflowError, "must fit in int64"),
        ],
        ids=["'1.5'", "'1'", "None", "2**63", "2**64", "-2**70"],
    )
    def test_unreadable_entry_named(self, reader, entry, error, message):
        read, what = self.READERS[reader]
        with pytest.raises(error) as err:
            read([[entry]])
        assert str(err.value) == f"{what} {message}"

    def test_no_equations(self):
        assert solve_mod_system([], [], 5) == []
        assert solve_mod_system(np.zeros((0, 3), dtype=np.int64), [], 5) == []


# ----------------------------------------------------------------------
# the full-scan Z/q elimination, kept as the reference for the pivot rule


def reference_solve_prime_power(a: np.ndarray, b: np.ndarray, q: int):
    """The elimination with a gcd scan of the whole remaining submatrix per pivot."""
    nrows, ncols = a.shape
    m = np.concatenate([a, b[:, None]], axis=1) % q
    perm = list(range(ncols))
    pivots = []
    for k in range(min(nrows, ncols)):
        g = np.gcd(m[k:, k:ncols], q)
        i, j = divmod(int(g.argmin()), ncols - k)
        pivot = int(g[i, j])
        if pivot == q:
            break
        if i:
            m[[k, k + i]] = m[[k + i, k]]
        if j:
            m[:, [k, k + j]] = m[:, [k + j, k]]
            perm[k], perm[k + j] = perm[k + j], perm[k]
        m[k, k:] = m[k, k:] * pow(int(m[k, k]) // pivot, -1, q) % q
        below = k + 1 + np.flatnonzero(m[k + 1 :, k])
        m[below, k:] = (m[below, k:] - m[below, k, None] // pivot * m[k, k:]) % q
        pivots.append(pivot)
    rank = len(pivots)
    if m[rank:, ncols].any():
        return None
    x = [0] * ncols
    rows = m[:rank].tolist()
    for k in reversed(range(rank)):
        known = sum(c * x[perm[j]] for j, c in enumerate(rows[k][k + 1 : ncols], k + 1))
        s = (rows[k][ncols] - known) % q
        if s % pivots[k]:
            return None
        x[perm[k]] = s // pivots[k]
    return x


def valuation_system(rng, nrows, ncols, p, e):
    """A system over Z/p**e: entries p**v times a unit with v spread over 0..e,
    a zero row and a zero column; consistent half the time."""
    q = p**e
    units = rng.integers(1, q, size=(nrows, ncols))
    a = units * p ** rng.integers(0, e + 1, size=(nrows, ncols)) % q
    a *= rng.random((nrows, ncols)) < 0.6
    if nrows > 1:
        a[rng.integers(nrows)] = 0
    if ncols > 1:
        a[:, rng.integers(ncols)] = 0
    if rng.random() < 0.5:
        x = rng.integers(0, q, size=ncols)
        return a, np.array((a.astype(object) @ x.astype(object)) % q, dtype=np.int64)
    return a, rng.integers(0, q, size=nrows)


def coboundary_rows(action):
    """j(k1, k2 x) + j(k2, x) - j(k1 k2, x), one row per (k1, k2, x) in C order."""
    n = action.n_points
    a = np.zeros((action.order**2 * n, action.order * n), dtype=np.int64)
    for row, (k1, k2, x) in enumerate(np.ndindex(action.order, action.order, n)):
        a[row, k1 * n + action.act[k2, x]] += 1
        a[row, k2 * n + x] += 1
        a[row, action.mul[k1, k2] * n + x] -= 1
    return a


def coboundary_system(action, modulus, rng):
    """The coboundary rows with right-hand side a random coboundary t."""
    a = coboundary_rows(action)
    return a, a @ rng.integers(0, modulus, size=a.shape[1]) % modulus


class TestPivotRule:
    @pytest.mark.parametrize(
        "p, e", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (2, 5), (2**31 - 1, 1)]
    )
    def test_random_systems_match_full_scan(self, p, e):
        q = p**e
        rng = np.random.default_rng([q, 22])
        verdicts = set()
        for trial in range(60):
            nrows, ncols = (int(v) for v in rng.integers(1, 14, size=2))
            a, b = valuation_system(rng, nrows, ncols, p, e)
            expected = reference_solve_prime_power(a, b, q)
            assert _solve_prime_power(a, b, q) == expected, (trial, a, b)
            verdicts.add(expected is None)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("p, e", [(2, 2), (3, 3)])
    def test_wide_and_empty_systems_match_full_scan(self, p, e):
        q = p**e
        rng = np.random.default_rng([q, 23])
        shapes = [(0, 3), (3, 0), (0, 0), (1, 5), (2, 9), (4, 7)]
        for nrows, ncols in shapes * 5:
            a, b = valuation_system(rng, nrows, ncols, p, e)
            assert _solve_prime_power(a, b, q) == reference_solve_prime_power(a, b, q), (a, b)

    @pytest.mark.parametrize(
        "action",
        [GammaAction.cyclic_translation(8), GammaAction.cyclic(24, 4)],
        ids=["cyclic_translation(8)", "cyclic(24, 4)"],
    )
    @pytest.mark.parametrize("modulus, q", [(4, 4), (6, 2), (6, 3), (7, 7)])
    def test_coboundary_systems_match_full_scan(self, action, modulus, q):
        a, b = coboundary_system(action, modulus, np.random.default_rng(modulus))
        expected = reference_solve_prime_power(a, b, q)
        assert expected is not None
        assert _solve_prime_power(a, b, q) == expected
