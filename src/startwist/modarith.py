"""Exact integer and modular linear algebra helpers, and the array reader.

``read_numbers`` is the one place a caller's numbers are cast, into a fresh
read-only copy, integers exactly and text never; ``checked_array`` adds that
every float or complex entry is finite.  Computed arrays are not read again.

``det_int`` works on Python integers, so determinants are exact at any size.
Linear systems mod M go through one elimination over Z/q in int64 numpy for
each prime-power factor q of M, with every entry reduced into [0, q); M must
be below 2**31.  Each pivot is found by a full scan of the remaining
submatrix.  ``matmul_mod`` is exact at every modulus.
"""

from __future__ import annotations

import numbers
import operator

import numpy as np

__all__ = ["check_modulus", "det_int", "matmul_mod", "solve_mod_system"]


def read_numbers(values, what: str, dtype: type) -> np.ndarray:
    """The values as a fresh read-only array of ``dtype``, named ``what`` in errors.

    ``dtype`` is a numpy scalar type.  An integer one takes only integers,
    exactly (so the array is int64); a float one real numbers and a complex
    one numbers, cast as numpy casts them, NaN and inf too; text, None or any
    other object never.  Rows of different lengths are refused by name.
    """
    try:
        raw = np.asarray(values)
    except ValueError:  # rows of different lengths: numpy names no table
        raise ValueError(f"{what} must be a rectangular table, not ragged") from None
    if issubclass(dtype, np.integer):  # np.dtype(dtype).kind would cost as much as the copy
        if raw.dtype == np.int64:  # the common case, spared the exact check
            table = np.array(raw)
        elif raw.dtype.kind not in "biufO":  # complex or not numbers: no cast is exact
            raise ValueError(f"{what} must hold integers")
        else:
            try:
                with np.errstate(invalid="ignore"):
                    table = raw.astype(np.int64)
            except OverflowError:  # a Python int (or float, in an object array) beyond int64
                raise OverflowError(f"{what} must fit in int64") from None
            except (TypeError, ValueError):  # an object array holding None, a string, ...
                raise ValueError(f"{what} must hold integers") from None
            if not np.array_equal(table, raw):
                # numpy holds an integer >= 2**63 as uint64 or float64, each an integer that large
                if raw.dtype.kind in "uf" and (abs(raw[np.isfinite(raw)]) >= 2.0**63).any():
                    raise OverflowError(f"{what} must fit in int64")
                raise ValueError(f"{what} must hold integers")
    else:
        kinds = {raw.dtype.kind}
        if raw.dtype == object:  # entry by entry: a Fraction is a number; None, a dict, ... not
            kinds = {
                np.asarray(v).dtype.kind if isinstance(v, (numbers.Number, np.generic)) else "N"
                for v in raw.flat
            }
        real = issubclass(dtype, np.floating)
        if not kinds <= set("biufO" if real else "biufcO"):
            raise ValueError(f"{what} must hold {'real numbers' if real else 'numbers'}")
        table = np.array(raw, dtype=dtype)
    table.flags.writeable = False
    return table


def checked_array(values, what: str, dtype: type) -> np.ndarray:
    """``read_numbers``, with every entry of a float or complex table finite."""
    table = read_numbers(values, what, dtype)
    if table.dtype.kind in "fc" and not np.isfinite(table).all():
        raise ValueError(f"{what} entries must be finite")
    return table


def det_int(matrix) -> int:
    """Determinant of an integer matrix via fraction-free Bareiss elimination."""
    m = [[int(x) for x in row] for row in np.asarray(matrix)]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def matmul_mod(a, b, n: int) -> np.ndarray:
    """a @ b mod n, exact for every modulus: with both factors reduced into
    [0, n), no sum of k products exceeds k (n - 1)^2, kept in int64 below
    2**63 and in Python integers beyond."""
    a, b = np.asarray(a), np.asarray(b)
    dtype = np.int64 if a.shape[-1] * (n - 1) ** 2 < 2**63 else object
    return (a.astype(dtype) % n) @ (b.astype(dtype) % n) % n


def _prime_powers(modulus: int) -> list[int]:
    """The prime powers p**e whose product is the modulus, by trial division."""
    out = []
    p = 2
    while p * p <= modulus:
        if modulus % p == 0:
            q = 1
            while modulus % p == 0:
                modulus //= p
                q *= p
            out.append(q)
        p += 1
    if modulus > 1:
        out.append(modulus)
    return out


def _solve_prime_power(a: np.ndarray, b: np.ndarray, q: int) -> list[int] | None:
    """One solution of A x = b over Z/q, q a prime power p**e, or None.

    Z/q is local, so the entry of least p-valuation, the argmin of gcd(entry, q),
    divides every entry of the remaining submatrix.  Scaled by a unit it becomes
    p**v, and one rank-1 update clears its column below it.  The other entries
    of its row are multiples of p**v, so back-substitution needs no column
    operations, and a right-hand side it cannot divide means no solution.
    The pivot is the row-major first such entry, found by a full scan.
    """
    nrows, ncols = a.shape
    m = np.concatenate([a, b[:, None]], axis=1) % q  # [A | b]: row operations reach b
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


def check_modulus(modulus: int) -> int:
    """The modulus as an int, read by ``operator.index``; raises unless
    1 <= modulus < 2**31, the range the int64 elimination handles."""
    modulus = operator.index(modulus)
    if not 1 <= modulus < 2**31:
        raise ValueError(f"modulus {modulus} is outside [1, 2**31)")
    return modulus


def solve_mod_system(a_rows, rhs, modulus: int):
    """Solve A x = rhs (mod modulus); returns one solution as ints in [0, modulus), or None.

    ``a_rows`` is a dense integer matrix (rows or a 2-d array), ``rhs`` one integer
    per row, and 1 <= modulus < 2**31, so that a product of two reduced entries
    fits in int64.  Each prime-power factor q of the modulus gets one elimination
    over Z/q; their solutions are combined by the Chinese remainder theorem.
    """
    modulus = check_modulus(modulus)
    a, b = read_numbers(a_rows, "A", np.int64), read_numbers(rhs, "rhs", np.int64)
    if a.shape == (0,):  # a bare [] reads as 1-d: no equations in no unknowns
        a = a.reshape(0, 0)
    if a.ndim != 2 or b.shape != a.shape[:1]:
        raise ValueError(f"A must be 2-d and rhs 1-d, one entry per row; got {a.shape}, {b.shape}")
    x = [0] * a.shape[1]
    for q in _prime_powers(modulus):
        xq = _solve_prime_power(a, b, q)
        if xq is None:
            return None
        rest = modulus // q
        lift = rest * pow(rest, -1, q)  # 1 mod q, 0 mod the other factors
        x = [(xi + lift * xqi) % modulus for xi, xqi in zip(x, xq)]
    return x
