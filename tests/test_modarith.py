"""The modular solver against independent eliminations.

The Smith-over-Z solver is kept here as an oracle: it shares no code with
``startwist.modarith``.  The Z/q elimination is checked by routes that share
none either: each solution is substituted back in Python integers, a system
consistent by construction must be solved, and a small system's verdict must
match the enumeration of every candidate.  The dense coboundary system, one
row per (k1, k2, x), is the reference for ``solve_automorphy``'s verdicts.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from startwist.abelian import FiniteVector, GroupContext, pairing_many
from startwist.automorphy import AutomorphyFactor, GammaAction, TauCocycle
from startwist.cocycles import Bicharacter, SkewForm
from startwist.crossed import CrossedElement
from startwist.deform import FourierElement
from startwist.modarith import _solve_prime_power, check_modulus, checked_array, solve_mod_system
from startwist.paramdeform import BaseGrid, CocycleField, ScalarField


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

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_numbers_read_as_numpy_casts_them(self, dtype):
        # an int beyond uint64 or a Fraction makes an object array, read entry by entry
        values = [[Fraction(1, 3), 2**70 + 1], [True, np.uint64(2**64 - 1)]]
        out = checked_array(values, "table", dtype)
        assert np.array_equal(out, np.array(values, dtype=dtype))

    # every real or complex reader names text, never parsing it, even in an
    # object array, and a real one names complex input
    READERS = {
        "SkewForm": (SkewForm, "skew form matrix", True),
        "Bicharacter": (
            lambda table: Bicharacter(GroupContext.lattice(1), table, 0.5), "exponent matrix", True
        ),
        "pairing_many": (
            lambda table: pairing_many(GroupContext.lattice(1), [[1]], table), "torus point", True
        ),
        "FiniteVector": (
            lambda table: FiniteVector(GroupContext.finite(2), table), "FiniteVector", False
        ),
        "CrossedElement": (
            lambda table: CrossedElement(GroupContext.finite(2), table), "crossed table", False
        ),
        "TauCocycle": (TauCocycle, "tau", False),
        "AutomorphyFactor": (AutomorphyFactor, "factor", False),
    }

    TABLES = {
        "'1'": ["1"], "b'1'": [b"1"], "'0.5',2**70": ["0.5", 2**70], "1j": [1j], "{}": [{}]
    }

    @pytest.mark.parametrize(
        "reader, table",
        [
            (reader, table)
            for (reader, (_, _, real)), table in itertools.product(READERS.items(), TABLES)
            if real or table != "1j"  # a complex reader takes 1j
        ],
    )
    def test_unreadable_entry_named(self, reader, table):
        read, what, real = self.READERS[reader]
        with pytest.raises(ValueError) as err:
            read(self.TABLES[table])
        assert str(err.value) == f"{what} must hold {'real numbers' if real else 'numbers'}"

    @pytest.mark.parametrize("reader", READERS)
    def test_ragged_table_named(self, reader):
        read, what, _ = self.READERS[reader]
        with pytest.raises(ValueError) as err:
            read([[1.0], [1.0, 2.0]])
        assert str(err.value) == f"{what} must be a rectangular table, not ragged"

    # the scalars and coefficient lists of the paper's objects, hbar, the base
    # samples, a scalar field and an element's values, are read by the same
    # reader; it names text, None and ragged rows, which numpy would parse, cast
    # to NaN or refuse unnamed
    NOT_NUMBERS = {
        "Bicharacter hbar": (
            lambda: Bicharacter(GroupContext.lattice(1), [[1.0]], "0.5"),
            "hbar must hold real numbers",
        ),
        "CocycleField hbar": (
            lambda: CocycleField.constant(BaseGrid.circle(2), SkewForm([[0, 1], [-1, 0]]), "0.25"),
            "hbar must hold real numbers",
        ),
        "BaseGrid": (lambda: BaseGrid("interval", ("0", "1")), "samples must hold real numbers"),
        "ScalarField": (
            lambda: ScalarField(BaseGrid.interval(2), ("1+2j", "3")),
            "scalar field values must hold numbers",
        ),
        "from_arrays": (
            lambda: FourierElement.from_arrays(GroupContext.lattice(2), [[0, 0]], ["1.5"]),
            "coefficient values must hold numbers",
        ),
        "mapping": (
            lambda p=GroupContext.lattice(1).point(0): FourierElement(p.context, {p: "1.5"}),
            "coefficient values must hold numbers",
        ),
        "delta": (
            lambda: FourierElement.delta(GroupContext.lattice(1).point(0), "1.5"),
            "coefficient values must hold numbers",
        ),
        "from_arrays dict": (
            lambda: FourierElement.from_arrays(GroupContext.lattice(1), [[0]], [{}]),
            "coefficient values must hold numbers",
        ),
        "from_arrays ragged": (
            lambda: FourierElement.from_arrays(GroupContext.lattice(1), [[0], [1, 2]], [1, 2]),
            "coordinates must be a rectangular table, not ragged",
        ),
        "from_arrays None": (
            lambda: FourierElement.from_arrays(GroupContext.lattice(1), [[0], [1]], [1, None]),
            "coefficient values must hold numbers",
        ),
        "ScalarField None": (
            lambda: ScalarField(BaseGrid.interval(2), (None, 1)),
            "scalar field values must hold numbers",
        ),
        "SkewForm None": (
            lambda: SkewForm([[0, None], [0, 0]]), "skew form matrix must hold real numbers"
        ),
        "AutomorphyFactor None": (lambda: AutomorphyFactor([[None]]), "factor must hold numbers"),
    }

    @pytest.mark.parametrize("reader", NOT_NUMBERS)
    def test_non_number_named(self, reader):
        build, message = self.NOT_NUMBERS[reader]
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message

    def test_nan_kept_in_element_and_scalar_field_values(self):
        # only the tables that must be finite check it; NaN mutation controls build elements
        point = GroupContext.lattice(1).point(1)
        for element in (
            FourierElement.from_arrays(point.context, [[1]], [np.nan]),
            FourierElement(point.context, {point: complex(np.nan, 1.0)}),
            FourierElement.delta(point, np.nan),
        ):
            assert element.coords.tolist() == [[1]] and np.isnan(element.values).all()
        field = ScalarField(BaseGrid.interval(2), (np.nan, 1))
        assert np.isnan(field.values[0]) and field.values[1] == 1 + 0j


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
                check_solution(a, rhs, modulus, solved)
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

    def test_numpy_integer_modulus(self):
        # a modulus is read by operator.index, as windows are
        assert check_modulus(np.int64(4)) == 4 and type(check_modulus(np.int64(4))) is int
        assert solve_mod_system([[2]], [2], np.int64(4)) == solve_mod_system([[2]], [2], 4) == [1]
        with pytest.raises(TypeError):
            check_modulus(4.0)

    def test_no_equations(self):
        # no equations leave every unknown free, as one zero row does
        assert solve_mod_system([], [], 5) == []
        assert solve_mod_system(np.zeros((0, 3), dtype=np.int64), [], 5) == [0, 0, 0]
        assert solve_mod_system([[0, 0, 0]], [0], 5) == [0, 0, 0]


# ----------------------------------------------------------------------
# the Z/q elimination, checked by substitution and by enumeration


def solvable_by_enumeration(a, rhs, modulus: int) -> bool:
    """Whether some x in (Z/modulus)^ncols has A x = rhs (mod modulus), by trying each."""
    ncols = a.shape[1]
    grid = np.array(
        list(itertools.product(range(modulus), repeat=ncols)), dtype=np.int64
    ).reshape(modulus**ncols, ncols)
    return bool(((grid @ a.T - rhs) % modulus == 0).all(axis=1).any())


def check_solution(a, b, q: int, x) -> None:
    """x holds one int in [0, q) per column and solves A x = b (mod q) in Python integers."""
    assert len(x) == a.shape[1] and all(type(v) is int and 0 <= v < q for v in x), x
    for row, rhs in zip(a.tolist(), b.tolist()):
        assert (sum(c * v for c, v in zip(row, x)) - rhs) % q == 0, (row, rhs, x)


def valuation_system(rng, nrows, ncols, p, e):
    """A system over Z/p**e: entries p**v times a unit with v spread over 0..e,
    a zero row and a zero column; consistent by construction half the time,
    which the third value tells."""
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
        return a, np.array((a.astype(object) @ x.astype(object)) % q, dtype=np.int64), True
    return a, rng.integers(0, q, size=nrows), False


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
    """Each solution is substituted back, a system consistent by construction
    must be solved, and wherever q**ncols <= 4096 the verdict must match the
    full scan of (Z/q)^ncols."""

    @staticmethod
    def solves(q, a, b, consistent):
        x = _solve_prime_power(a, b, q)
        if x is not None:
            check_solution(a, b, q, x)
        assert x is not None or not consistent, (a, b)
        if q ** a.shape[1] <= 4096:
            assert (x is not None) == solvable_by_enumeration(a, b, q), (a, b)
        return x is not None

    @pytest.mark.parametrize(
        "p, e", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (2, 5), (2**31 - 1, 1)]
    )
    def test_random_systems_match_full_scan(self, p, e):
        q = p**e
        rng = np.random.default_rng([q, 22])
        verdicts = set()
        for _ in range(60):
            nrows, ncols = (int(v) for v in rng.integers(1, 14, size=2))
            verdicts.add(self.solves(q, *valuation_system(rng, nrows, ncols, p, e)))
        assert verdicts == {True, False}

    @pytest.mark.parametrize("p, e", [(2, 2), (3, 3)])
    def test_wide_and_empty_systems_match_full_scan(self, p, e):
        q = p**e
        rng = np.random.default_rng([q, 23])
        shapes = [(0, 3), (3, 0), (0, 0), (1, 5), (2, 9), (4, 7)]
        for nrows, ncols in shapes * 5:
            self.solves(q, *valuation_system(rng, nrows, ncols, p, e))

    @pytest.mark.parametrize(
        "action",
        [GammaAction.cyclic_translation(8), GammaAction.cyclic(24, 4)],
        ids=["cyclic_translation(8)", "cyclic(24, 4)"],
    )
    @pytest.mark.parametrize("modulus, q", [(4, 4), (6, 2), (6, 3), (7, 7)])
    def test_coboundary_systems_match_full_scan(self, action, modulus, q):
        a, b = coboundary_system(action, modulus, np.random.default_rng(modulus))
        assert self.solves(q, a, b, True)
