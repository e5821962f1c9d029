"""Independent references for the benchmark's correctness checks.

Plain numpy throughout; nothing here calls into ``startwist``.  Every
function either builds a reference value from the plain-data inputs or
returns a list of human-readable problems (empty when the output is right).
"""

from __future__ import annotations

import numpy as np

# Pinned before the first run: a dense SVD of the same matrix agrees to a few
# ulps; the Gram power iteration stops on a 1e-10 relative change of the
# Rayleigh quotient, which leaves the estimate below the top singular value
# by at most ~2e-9 on the stored pool (gap 1 - (s2/s1)^2 >= 1e-2).
DENSE_RTOL = 1e-10
ITERATIVE_RTOL = 1e-7
PRODUCT_RTOL = 1e-12
FINITE_ATOL = 1e-10


def _coords_values(coeffs: dict) -> tuple[np.ndarray, np.ndarray]:
    coords = np.array(list(coeffs), dtype=np.int64).reshape(-1, 2)
    values = np.array(list(coeffs.values()), dtype=np.complex128)
    return coords, values


def _box_index(points: np.ndarray, w: int) -> np.ndarray:
    side = 2 * w + 1
    return (points[:, 0] + w) * side + (points[:, 1] + w)


def phase(matrix, hbar: float, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sigma(p, q) = exp(-i pi hbar p.A q) on coordinate arrays of shape (k, 2)."""
    quad = np.einsum("ki,ij,kj->k", p, np.asarray(matrix, dtype=float), q)
    return np.exp(-1j * np.pi * hbar * quad)


def pair_sum(a: dict, b: dict, weight) -> tuple[np.ndarray, int]:
    """Dense box of sum_{p1+p2=p} a(p1) b(p2) weight(p1, p2), and its radius.

    The radius is the sum of the support radii; the box is flattened in the
    lexicographic order of `_box_index`.
    """
    pa, va = _coords_values(a)
    pb, vb = _coords_values(b)
    w = int(np.abs(pa).max(initial=0) + np.abs(pb).max(initial=0))
    p1 = np.repeat(pa, len(pb), axis=0)
    p2 = np.tile(pb, (len(pa), 1))
    vals = np.repeat(va, len(pb)) * np.tile(vb, len(pa)) * weight(p1, p2)
    out = np.zeros((2 * w + 1) ** 2, dtype=np.complex128)
    np.add.at(out, _box_index(p1 + p2, w), vals)
    return out, w


def box_of(coeffs: dict, w: int) -> np.ndarray:
    out = np.zeros((2 * w + 1) ** 2, dtype=np.complex128)
    if coeffs:
        pts, vals = _coords_values(coeffs)
        np.add.at(out, _box_index(pts, w), vals)
    return out


def twisted_product(a: dict, b: dict, matrix, hbar: float):
    return pair_sum(a, b, lambda p, q: phase(matrix, hbar, p, q))


def defect_element(a: dict, b: dict, form, hbar: float) -> dict:
    """(a *_h b - a *_0 b) / (i h) - {a, b} / (4 pi), summed per pair in closed form.

    Per pair the weight is (exp(-i pi h g) - 1) / (i h) + pi g with g = p.G q,
    the bracket normalisation -4 pi^2 times the scale 1/(4 pi) giving -pi g.
    """
    g = np.asarray(form, dtype=float)

    def weight(p, q):
        quad = np.einsum("ki,ij,kj->k", p, g, q)
        return (np.exp(-1j * np.pi * hbar * quad) - 1.0) / (1j * hbar) + np.pi * quad

    box, w = pair_sum(a, b, weight)
    side = 2 * w + 1
    return {
        (int(k // side) - w, int(k % side) - w): complex(v)
        for k, v in enumerate(box) if v != 0
    }


def compression(coeffs: dict, matrix, hbar: float, w: int) -> np.ndarray:
    """Window matrix with entry (p + r, r) = a(p) sigma(p, r) for r, p + r in the box."""
    axis = np.arange(-w, w + 1)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
    dim = grid.shape[0]
    mat = np.zeros((dim, dim), dtype=np.complex128)
    cols = np.arange(dim)
    for p, c in coeffs.items():
        pv = np.array(p, dtype=np.int64)
        target = grid + pv
        inside = np.all(np.abs(target) <= w, axis=1)
        r = grid[inside]
        mat[_box_index(target[inside], w), cols[inside]] += c * phase(
            matrix, hbar, np.broadcast_to(pv, r.shape), r
        )
    return mat


def dense_norm(coeffs: dict, matrix, hbar: float, w: int) -> float:
    return float(np.linalg.svd(compression(coeffs, matrix, hbar, w), compute_uv=False)[0])


def bounds_problems(name: str, est: float, coeffs: dict, rtol: float = 1e-12) -> list[str]:
    """||a||_2 <= estimate <= ||a||_1 (the delta_0 column, the triangle inequality)."""
    vals = np.abs(np.array(list(coeffs.values())))
    lo, hi = float(np.sqrt(np.sum(vals**2))), float(np.sum(vals))
    if not lo * (1 - rtol) <= est <= hi * (1 + rtol):
        return [f"{name}: estimate {est!r} outside [||a||_2, ||a||_1] = [{lo!r}, {hi!r}]"]
    return []


def norm_rows_problems(spec: dict, rows, coeffs: dict, matrix, dense_max: int) -> list[str]:
    """Window table against own dense SVDs (or stored references), bounds, monotonicity."""
    name = spec["name"]
    problems = []
    if [w for w, _ in rows] != sorted(spec["windows"]):
        return [f"{name}: windows {[w for w, _ in rows]} != {sorted(spec['windows'])}"]
    for w, est in rows:
        problems += bounds_problems(f"{name} W={w}", est, coeffs)
        if w <= dense_max:
            ref = dense_norm(coeffs, matrix, spec["hbar"], w)
            if abs(est - ref) > DENSE_RTOL * max(1.0, ref):
                problems.append(f"{name} W={w}: dense {est!r} vs own SVD {ref!r}")
        else:
            ref = spec["refs"][str(w)]
            if not ref * (1 - ITERATIVE_RTOL) <= est <= ref * (1 + 1e-9):
                problems.append(f"{name} W={w}: iterative {est!r} vs stored SVD {ref!r}")
    for (w1, e1), (w2, e2) in zip(rows, rows[1:]):
        if e2 < e1:
            problems.append(f"{name}: estimate drops from W={w1} to W={w2}")
    return problems


def product_problems(name: str, got: dict, a: dict, b: dict, matrix, hbar) -> list[str]:
    ref, w = twisted_product(a, b, matrix, hbar)
    scale = np.abs(list(a.values())).sum() * np.abs(list(b.values())).sum()
    if any(max(abs(c) for c in p) > w for p in got):
        return [f"{name}: product support leaves the box of radius {w}"]
    err = float(np.max(np.abs(box_of(got, w) - ref)))
    if err > PRODUCT_RTOL * scale:
        return [f"{name}: star product off the own convolution by {err:.3e}"]
    return []


# ----------------------------------------------------------------------
# finite crossed-product model


def _points(moduli) -> np.ndarray:
    return np.stack(np.meshgrid(*[np.arange(m) for m in moduli], indexing="ij"), -1).reshape(
        -1, len(moduli)
    )


def project(table: np.ndarray, moduli, sigma, e) -> np.ndarray:
    """fiber(v) -> |V|^{-1} sum_u conj(e(u, v)) alpha_{Tu}[fiber(v)], all v at once."""
    n, rank = moduli[0], len(moduli)
    t = (np.asarray(sigma).T @ np.asarray(e).T) % n  # T = sigma^1 o e^1
    pts = _points(moduli)
    fiber_axes = tuple(range(rank, 2 * rank))
    out = np.zeros_like(table)
    for u in pts:
        e_uv = np.exp(2j * np.pi * ((u @ np.asarray(e) @ pts.T) % n) / n).reshape(moduli)
        shifted = np.roll(table, tuple(-((t @ u) % n)), axis=fiber_axes)
        out += np.conj(e_uv).reshape(tuple(moduli) + (1,) * rank) * shifted
    return out / len(pts)


def twisted_crossed(a: np.ndarray, b: np.ndarray, moduli, sigma_hat) -> np.ndarray:
    """(a * b)(v) = sum_u sigma_hat(u - v, u) a(u) alpha_u[b(v - u)], all v at once."""
    n, rank = moduli[0], len(moduli)
    s = np.asarray(sigma_hat)
    pts = _points(moduli)
    base_axes = tuple(range(rank))
    fiber_axes = tuple(range(rank, 2 * rank))
    out = np.zeros_like(a)
    for u in pts:
        b_shift = np.roll(np.roll(b, tuple(u), axis=base_axes), tuple(-u), axis=fiber_axes)
        ph = np.exp(2j * np.pi * ((((u - pts) % n) @ s @ u) % n) / n).reshape(moduli)
        out += ph.reshape(tuple(moduli) + (1,) * rank) * a[tuple(u)] * b_shift
    return out


def rieffel_rank1(x: np.ndarray, y: np.ndarray, b: int) -> np.ndarray:
    """Fourier side of the twisted convolution with exp(2 pi i b p q / N), via numpy.fft.

    fourier(f) = ifft(f) sqrt(N); the product is fourier(conv(F^-1 x, F^-1 y)).
    """
    n = x.shape[0]
    f, g = np.fft.fft(x) / np.sqrt(n), np.fft.fft(y) / np.sqrt(n)
    p1, p2 = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    terms = f[:, None] * g[None, :] * np.exp(2j * np.pi * ((b * p1 * p2) % n) / n)
    conv = np.zeros(n, dtype=np.complex128)
    np.add.at(conv, ((p1 + p2) % n).ravel(), terms.ravel())
    return np.fft.ifft(conv) * np.sqrt(n)


def close(name: str, got: np.ndarray, ref: np.ndarray, scale: float = 1.0) -> list[str]:
    err = float(np.max(np.abs(np.asarray(got) - ref)))
    if err > FINITE_ATOL * max(1.0, scale):
        return [f"{name}: off the own reference by {err:.3e}"]
    return []


def factor_problems(name: str, jhat, mul, act, tau_exponents, modulus) -> list[str]:
    """Coboundary identity j(k1, k2 x) j(k2, x) = tau(k1, k2, x) j(k1 k2, x), vectorised."""
    if jhat is None:
        return [f"{name}: no factor found for a coboundary"]
    j = np.asarray(jhat)
    tau = np.exp(2j * np.pi * np.asarray(tau_exponents) / modulus)
    err = float(np.max(np.abs(j[:, act] * j[None, :, :] - tau * j[mul])))
    unit = float(np.max(np.abs(np.abs(j) - 1.0)))
    if max(err, unit) > 1e-9:
        return [f"{name}: factor misses the coboundary identity by {max(err, unit):.3e}"]
    return []
