"""Seeded inputs of the three workloads, as plain data.

Nothing here imports ``startwist``: the generators return JSON-style element
documents, integer tables and numpy arrays, so the worker hands the program
only generated inputs (through its public constructors) and the oracle checks
the outputs against the same plain data.  The same seed gives the same inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("suite", "window-norms", "finite-exact")
REFS_PATH = Path(__file__).resolve().parent / "refs" / "iterative.json"

SYMPLECTIC = [[0.0, 1.0], [-1.0, 0.0]]
HBARS = (0.0, 0.1, 0.3, 0.5, 1.0)
DEFECT_HBARS = (1e-2, 1e-3, 0.3)
# Windows at or below 16 take the dense SVD; (2W+1)^2 = 1089 is the boundary.
DENSE_MAX_WINDOW = 16


def element_doc(coeffs: dict[tuple[int, ...], complex], rank: int = 2) -> dict:
    """Element document as `startwist` reads it: decimal-string parts, sorted coords."""
    return {
        "context": {"rank": rank, "mode": "lattice"},
        "coefficients": [
            {"coords": list(p), "re": repr(float(v.real)), "im": repr(float(v.imag))}
            for p, v in sorted(coeffs.items())
        ],
    }


def doc_coeffs(doc: dict) -> dict[tuple[int, ...], complex]:
    return {
        tuple(c["coords"]): complex(float(c["re"]), float(c["im"]))
        for c in doc["coefficients"]
    }


def random_coeffs(
    rng: np.random.Generator, n: int, radius: int
) -> dict[tuple[int, int], complex]:
    """n distinct points in the box |p_j| <= radius, standard complex normal values."""
    coeffs: dict[tuple[int, int], complex] = {}
    while len(coeffs) < n:
        p = tuple(int(x) for x in rng.integers(-radius, radius + 1, size=2))
        coeffs[p] = complex(rng.standard_normal(), rng.standard_normal())
    return coeffs


# Two elements on which the Gram power iteration diverges at the windows above
# 16 listed here (10 000 iterations, then PowerIterationDiverged).  They do not
# depend on the seed, so every pass fails on them the same way.
SHIFT_PAIR = {(1, 0): 1.0 + 0j, (0, 1): 1.0 + 0j}
ROADMAP_ELEMENT = {(1, 0): 1.0 + 0j, (-1, 0): 1.0 + 0j, (0, 1): 0.5j, (0, -1): -0.5j}
DIVERGING = (
    ("diverge-shift-trivial", SHIFT_PAIR, 0.0, [8, 16, 17]),
    ("diverge-roadmap-w17", ROADMAP_ELEMENT, 0.3, [17]),
    ("diverge-roadmap-w20", ROADMAP_ELEMENT, 0.3, [20]),
)


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# Per slot: support size and windows.  Sizes are fixed so that a pass costs
# the same at every seed; the seed draws the points, values and hbar.
DENSE_SLOTS = (
    (2, [4, 8, 12]),
    (4, [4, 6, 10]),
    (7, [5, 8, 12]),
    (10, [4, 9, 12]),
    (13, [6, 10, 12]),
    (16, [4, 8, 11]),
)
# |supp a|, |supp b|, window.  An even check count makes check_p50_ms the mean
# of the two middle checks, which does not move when those two swap places.
DEFECT_SLOTS = ((2, 3, 5), (3, 4, 7), (4, 5, 9), (5, 6, 8), (6, 6, 10))
CROSSING_DENSE_WINDOW = 8


def window_norms(seed: int) -> list[dict]:
    """Check specs: norm tables (dense, crossing into iterative, diverging) and defects.

    Each spec has ``kind`` ("norm" or "defect"), a ``name``, the element
    document(s), ``hbar`` and windows; references for windows above 16 travel
    with the spec, taken from the stored file (see make_refs.py).  The
    crossing checks run every stored pool element.
    """
    rng = np.random.default_rng([seed, 1])
    refs = load_refs()
    specs = []
    for name, coeffs, hbar, windows in DIVERGING:
        specs.append({
            "kind": "norm", "name": name, "a": element_doc(coeffs), "hbar": hbar,
            "windows": windows, "expect_fail": True,
            "refs": {str(w): refs["diverging"][name][str(w)]
                     for w in windows if w > DENSE_MAX_WINDOW},
        })
    for i, (size, windows) in enumerate(DENSE_SLOTS):
        specs.append({
            "kind": "norm", "name": f"dense-{i}", "a": element_doc(random_coeffs(rng, size, 3)),
            "hbar": float(rng.choice(HBARS)), "windows": windows, "refs": {},
        })
    for i, entry in enumerate(refs["pool"]):
        specs.append({
            "kind": "norm", "name": f"crossing-{i}", "a": entry["a"], "hbar": entry["hbar"],
            "windows": [CROSSING_DENSE_WINDOW] + entry["windows"], "refs": entry["refs"],
        })
    for i, (size_a, size_b, window) in enumerate(DEFECT_SLOTS):
        specs.append({
            "kind": "defect", "name": f"defect-{i}",
            "a": element_doc(random_coeffs(rng, size_a, 2)),
            "b": element_doc(random_coeffs(rng, size_b, 2)),
            "hbar": float(rng.choice(DEFECT_HBARS)), "window": window,
        })
    return specs


FINITE_CONTEXTS = (
    # name, moduli, sigma exponent (None: seeded scalar), twisted-dual check
    ("Z17", [17], None, True),
    ("Z31", [31], None, False),
    ("Z5xZ5-S1", [5, 5], [[2, 1], [0, 3]], True),
    ("Z5xZ5-S2", [5, 5], [[1, 2], [4, 0]], False),
)
ACTIONS = (
    # name, constructor, arguments
    ("translation8", "cyclic_translation", (8,)),
    ("translation10", "cyclic_translation", (10,)),
    ("cyclic24x4", "cyclic", (24, 4)),
)


def _table(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def action_tables(constructor: str, args) -> tuple[np.ndarray, np.ndarray]:
    """Multiplication and action tables, built here independently of the program."""
    order = args[0]
    g = np.arange(order)
    mul = (g[:, None] + g[None, :]) % order
    if constructor == "cyclic_translation":
        return mul, mul.copy()
    n_points = args[1]
    return mul, np.broadcast_to(np.arange(n_points), (order, n_points)).copy()


def coboundary_exponents(mul, act, j: np.ndarray, modulus: int) -> np.ndarray:
    """t(k1, k2, x) = j(k1, k2 x) + j(k2, x) - j(k1 k2, x) mod M, vectorised."""
    return (j[:, act] + j[None, :, :] - j[mul]) % modulus


def finite_exact(seed: int) -> dict:
    """Finite crossed-product contexts, rank-1 vectors and automorphy systems."""
    rng = np.random.default_rng([seed, 2])
    contexts = []
    for name, moduli, sigma, twisted in FINITE_CONTEXTS:
        if sigma is None:
            sigma = [[int(rng.integers(1, moduli[0]))]]
        shape = tuple(moduli) * 2
        rank = len(moduli)
        entry = {
            "name": name, "moduli": moduli, "sigma": sigma,
            "e": np.eye(rank, dtype=int).tolist(),
            "project_in": _table(rng, shape),
            "pair": (_table(rng, shape), _table(rng, shape)),
        }
        if rank == 1:
            entry["rieffel"] = (_table(rng, moduli[0]), _table(rng, moduli[0]))
        if twisted:
            n = moduli[0]
            entry["twisted"] = (
                _table(rng, shape), _table(rng, shape),
                rng.integers(0, n, size=(rank, rank)).tolist(),
            )
        contexts.append(entry)
    systems = []
    for name, constructor, args in ACTIONS:
        mul, act = action_tables(constructor, args)
        modulus = int(rng.integers(3, 9))
        j = rng.integers(0, modulus, size=(args[0], act.shape[1]))
        systems.append({
            "name": name, "constructor": constructor, "args": args,
            "modulus": modulus, "mul": mul, "act": act,
            "tau_exponents": coboundary_exponents(mul, act, j, modulus),
        })
    return {"contexts": contexts, "systems": systems}


# Z/2 acting trivially on one point with tau(1, 1) = -1: no factor among the
# square roots of unity, one among the fourth and the eighth roots.
OBSTRUCTION_TAU = [[[1.0], [1.0]], [[1.0], [-1.0]]]
OBSTRUCTION_MODULI = ((2, False), (4, True), (8, True))
