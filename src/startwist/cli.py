"""Command-line surface: element documents, experiment subcommands, CSV tables.

Documents are JSON with integer coordinate vectors and decimal-string
coefficient parts, so serialized elements round-trip bit-exactly.  CSV output
uses '.' decimals, '\\n' line endings and a fixed header per subcommand.  All
randomness flows from a single seed (default 0), so reruns are byte-identical.

Exit codes: 0 success, 1 validation error, 2 assertion or tolerance failure,
3 internal numeric failure (for instance power-iteration non-convergence).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

import numpy as np

from . import acceptance, crossed, deform, norms, paramdeform
from .abelian import GroupContext
from .automorphy import GammaAction, TauCocycle, _integer_table, solve_automorphy
from .cocycles import Bicharacter, SkewForm
from .deform import FourierElement

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_TOLERANCE = 2
EXIT_NUMERIC = 3


class InputError(ValueError):
    """Validation failure; the message names the offending field."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")


class ToleranceFailure(RuntimeError):
    pass


# ----------------------------------------------------------------------
# document layer


def context_to_doc(ctx: GroupContext) -> dict:
    if ctx.is_finite:
        return {"rank": ctx.rank, "mode": "finite", "moduli": list(ctx.moduli)}
    return {"rank": ctx.rank, "mode": "lattice"}


def context_from_doc(doc: Any, path: str = "context") -> GroupContext:
    if not isinstance(doc, dict):
        raise InputError(path, "expected an object")
    mode = doc.get("mode")
    rank = doc.get("rank")
    if not isinstance(rank, int) or rank < 1:
        raise InputError(f"{path}.rank", "expected a positive integer")
    if mode == "lattice":
        return GroupContext.lattice(rank)
    if mode == "finite":
        moduli = doc.get("moduli")
        if (
            not isinstance(moduli, list)
            or len(moduli) != rank
            or not all(isinstance(m, int) and m >= 2 for m in moduli)
        ):
            raise InputError(
                f"{path}.moduli", f"expected {rank} integers, all >= 2"
            )
        return GroupContext.finite(moduli)
    raise InputError(f"{path}.mode", "expected 'lattice' or 'finite'")


def element_to_doc(a: FourierElement) -> dict:
    coefficients = [
        {"coords": list(p.coords), "re": repr(v.real), "im": repr(v.imag)}
        for p, v in a.coeffs.items()
    ]
    return {"context": context_to_doc(a.context), "coefficients": coefficients}


def element_from_doc(doc: Any, path: str = "element") -> FourierElement:
    if not isinstance(doc, dict):
        raise InputError(path, "expected an object")
    ctx = context_from_doc(doc.get("context"), f"{path}.context")
    raw = doc.get("coefficients")
    if not isinstance(raw, list):
        raise InputError(f"{path}.coefficients", "expected a list")
    coeffs = {}
    for i, entry in enumerate(raw):
        epath = f"{path}.coefficients[{i}]"
        if not isinstance(entry, dict):
            raise InputError(epath, "expected an object")
        coords = entry.get("coords")
        if (
            not isinstance(coords, list)
            or len(coords) != ctx.rank
            or not all(isinstance(c, int) for c in coords)
        ):
            raise InputError(
                f"{epath}.coords", f"expected {ctx.rank} integers"
            )
        try:
            re = float(str(entry.get("re", "0")))
            im = float(str(entry.get("im", "0")))
        except ValueError:
            raise InputError(epath, "re/im must be decimal strings") from None
        point = ctx.point(tuple(coords))
        coeffs[point] = coeffs.get(point, 0j) + complex(re, im)
    return FourierElement(ctx, coeffs)


def cocycle_from_doc(doc: Any, ctx: GroupContext, path: str = "cocycle") -> Bicharacter:
    if not isinstance(doc, dict):
        raise InputError(path, "expected an object")
    matrix = doc.get("matrix", doc.get("exponent"))
    if not isinstance(matrix, list) or len(matrix) != ctx.rank:
        raise InputError(f"{path}.matrix", f"expected a {ctx.rank}x{ctx.rank} matrix")
    for i, row in enumerate(matrix):
        if not isinstance(row, list) or len(row) != ctx.rank:
            raise InputError(
                f"{path}.matrix[{i}]", f"expected a row of {ctx.rank} numbers"
            )
    if ctx.is_finite:
        if not all(isinstance(x, int) for row in matrix for x in row):
            raise InputError(f"{path}.matrix", "finite-mode entries must be integers")
        try:
            return Bicharacter(ctx, matrix)
        except ValueError as exc:
            raise InputError(path, str(exc)) from None
    hbar = doc.get("hbar")
    if not isinstance(hbar, (int, float)):
        raise InputError(f"{path}.hbar", "expected a number")
    return Bicharacter(ctx, np.asarray(matrix, dtype=float), hbar=float(hbar))


def skew_from_doc(doc: Any, rank: int, path: str = "form") -> SkewForm:
    if not isinstance(doc, list) or len(doc) != rank:
        raise InputError(path, f"expected a {rank}x{rank} matrix")
    try:
        return SkewForm(np.asarray(doc, dtype=float))
    except ValueError as exc:
        raise InputError(path, str(exc)) from None


# ----------------------------------------------------------------------
# io helpers


def _load_config(args) -> Any:
    if args.input:
        with open(args.input, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = sys.stdin.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("input", f"invalid JSON ({exc})") from None


def _write_output(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _require(cfg: dict, field: str, path: str = "input") -> Any:
    if not isinstance(cfg, dict) or field not in cfg:
        raise InputError(f"{path}.{field}", "missing required field")
    return cfg[field]


def _csv(header: str, rows) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# subcommands


def cmd_star(args) -> int:
    cfg = _load_config(args)
    a = element_from_doc(_require(cfg, "a"), "input.a")
    b = element_from_doc(_require(cfg, "b"), "input.b")
    if a.context != b.context:
        raise InputError("input.b.context", "does not match input.a.context")
    sigma = cocycle_from_doc(_require(cfg, "cocycle"), a.context, "input.cocycle")
    product = deform.star(a, b, sigma)
    _write_output(args, json.dumps(element_to_doc(product), indent=2) + "\n")
    return EXIT_OK


def cmd_semiclassical(args) -> int:
    cfg = _load_config(args)
    a = element_from_doc(_require(cfg, "a"), "input.a")
    b = element_from_doc(_require(cfg, "b"), "input.b")
    if a.context.is_finite:
        raise InputError("input.a.context", "semiclassical scans need a lattice context")
    gamma = skew_from_doc(_require(cfg, "form"), a.context.rank, "input.form")
    hbars = _require(cfg, "hbar_list")
    if not isinstance(hbars, list) or not all(
        isinstance(h, (int, float)) and h != 0 for h in hbars
    ):
        raise InputError("input.hbar_list", "expected nonzero numbers")
    window = cfg.get("window", 8)
    if not isinstance(window, int) or window < 1:
        raise InputError("input.window", "expected a positive integer")
    rows = []
    for hbar in sorted((float(h) for h in hbars), reverse=True):
        rows.append((hbar, deform.semiclassical_defect(a, b, gamma, hbar, window)))
    _write_output(args, _csv("hbar,defect", rows))
    return EXIT_OK


def cmd_kasprzak_verify(args) -> int:
    cfg = _load_config(args)
    moduli = _require(cfg, "moduli")
    if (
        not isinstance(moduli, list)
        or not moduli
        or not all(isinstance(m, int) and m >= 2 for m in moduli)
    ):
        raise InputError("input.moduli", "expected a list of integers >= 2")
    ctx = GroupContext.finite(moduli)
    sigma = cocycle_from_doc(
        {"matrix": _require(cfg, "cocycle_matrix")}, ctx, "input.cocycle_matrix"
    )
    e_matrix = cfg.get("e_matrix", np.eye(ctx.rank, dtype=int).tolist())
    e = cocycle_from_doc({"matrix": e_matrix}, ctx, "input.e_matrix")
    try:
        data = crossed.DeformedActionData.from_cocycles(sigma, e)
    except ValueError as exc:
        raise InputError("input.cocycle_matrix", str(exc)) from None
    if not data.t.is_invertible():
        raise InputError("input.cocycle_matrix", "the composed map T is singular")
    trials = cfg.get("trials", 50)
    if not isinstance(trials, int) or trials < 1:
        raise InputError("input.trials", "expected a positive integer")
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    rng = np.random.default_rng(seed)
    shape = tuple(ctx.moduli) * 2
    worst = 0.0
    for _ in range(trials):
        a = crossed.spectral_project(
            crossed.CrossedElement(
                ctx, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            ),
            data,
        )
        b = crossed.spectral_project(
            crossed.CrossedElement(
                ctx, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            ),
            data,
        )
        worst = max(worst, crossed.verify_I_homomorphism(a, b, data))
    tolerance = args.tolerance if args.tolerance is not None else 1e-10
    _write_output(
        args,
        f"trials={trials} max_deviation={worst!r} tolerance={tolerance!r}\n",
    )
    if worst > tolerance:
        raise ToleranceFailure(f"max deviation {worst} exceeds {tolerance}")
    return EXIT_OK


def cmd_heisenberg(args) -> int:
    cfg = _load_config(args)
    grid_size = _require(cfg, "grid_size")
    if not isinstance(grid_size, int) or grid_size < 1:
        raise InputError("input.grid_size", "expected a positive integer")
    hbar = _require(cfg, "hbar")
    if not isinstance(hbar, (int, float)):
        raise InputError("input.hbar", "expected a number")
    grid = paramdeform.BaseGrid.circle(grid_size)
    field = paramdeform.heisenberg_field(float(hbar), grid)
    ctx = GroupContext.lattice(2)
    u = paramdeform.ParamElement.constant(
        grid, FourierElement.delta(ctx.point(1, 0))
    )
    v = paramdeform.ParamElement.constant(
        grid, FourierElement.delta(ctx.point(0, 1))
    )
    uv = paramdeform.param_star(u, v, field)
    vu = paramdeform.param_star(v, u, field)
    rows = []
    for i, y in enumerate(grid.samples):
        phase = uv.fibers[i].coeff(ctx.point(1, 1)) / vu.fibers[i].coeff(
            ctx.point(1, 1)
        )
        rows.append((y, float(phase.real), float(phase.imag)))
    _write_output(args, _csv("y,phase_re,phase_im", rows))
    return EXIT_OK


def cmd_norm(args) -> int:
    cfg = _load_config(args)
    a = element_from_doc(_require(cfg, "element"), "input.element")
    if a.context.is_finite:
        raise InputError("input.element.context", "window norms need a lattice context")
    form = _require(cfg, "form")
    gamma = skew_from_doc(form, a.context.rank, "input.form")
    hbar = cfg.get("hbar", 0.0)
    if not isinstance(hbar, (int, float)):
        raise InputError("input.hbar", "expected a number")
    windows = _require(cfg, "windows")
    if not isinstance(windows, list) or not all(
        isinstance(w, int) and w >= 1 for w in windows
    ):
        raise InputError("input.windows", "expected positive integers")
    sigma = Bicharacter.from_skew(a.context, gamma, float(hbar))
    rows = norms.norm_convergence(a, sigma, windows)
    _write_output(args, _csv("window,estimate", rows))
    return EXIT_OK


def cmd_automorphy_solve(args) -> int:
    cfg = _load_config(args)
    mul = _require(cfg, "group_table")
    act = _require(cfg, "action")
    try:
        action = GammaAction(np.asarray(mul), np.asarray(act))
    except ValueError as exc:
        raise InputError("input.group_table", str(exc)) from None
    modulus = _require(cfg, "modulus")
    # the solver eliminates in int64, which needs modulus < 2**31
    if not isinstance(modulus, int) or not 1 <= modulus < 2**31:
        raise InputError("input.modulus", "expected an integer in [1, 2**31)")
    exponents = _require(cfg, "tau_exponents")
    try:
        table = _integer_table(exponents, "tau exponents")
        tau = TauCocycle(np.exp(2j * np.pi * (table % modulus) / modulus))
    except (ValueError, TypeError) as exc:
        raise InputError("input.tau_exponents", str(exc)) from None
    try:
        factor = solve_automorphy(action, tau, modulus)
    except ValueError as exc:
        raise InputError("input.tau_exponents", str(exc)) from None
    if factor is None:
        _write_output(args, json.dumps({"solvable": False}) + "\n")
        raise ToleranceFailure(f"no factor exists over Z/{modulus}")
    doc = {
        "solvable": True,
        "factor_re": [[repr(float(x)) for x in row] for row in factor.values.real],
        "factor_im": [[repr(float(x)) for x in row] for row in factor.values.imag],
    }
    _write_output(args, json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def cmd_suite(args) -> int:
    only = args.only if args.only else None
    try:
        results = acceptance.run_suite(only)
    except ValueError as exc:
        raise InputError("--only", str(exc)) from None
    lines = [r.line() for r in results]
    summary = {
        "total": len(results),
        "passed": sum(r.passed for r in results),
        "failed": sum(not r.passed for r in results),
    }
    text = "\n".join(lines) + "\n" + json.dumps(summary) + "\n"
    _write_output(args, text)
    if summary["failed"]:
        raise ToleranceFailure(f"{summary['failed']} criteria failed")
    return EXIT_OK


# ----------------------------------------------------------------------
# driver


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="startwist",
        description="Twisted star products, crossed-product models and "
        "window norm estimates at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", help="JSON config path (default: stdin)")
        p.add_argument("--output", help="output path (default: stdout)")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument(
            "--tolerance", type=float, default=None, help="tolerance override"
        )
        p.set_defaults(func=func)
        return p

    add("star", cmd_star, "twisted product of two element documents")
    add(
        "semiclassical",
        cmd_semiclassical,
        "defect table over an hbar sweep (CSV: hbar,defect)",
    )
    add(
        "kasprzak-verify",
        cmd_kasprzak_verify,
        "averaging-map homomorphism deviation over random projected pairs",
    )
    add(
        "heisenberg",
        cmd_heisenberg,
        "commutation phase per circle sample (CSV: y,phase_re,phase_im)",
    )
    add("norm", cmd_norm, "window norm estimates (CSV: window,estimate)")
    add(
        "automorphy-solve",
        cmd_automorphy_solve,
        "solve for a factor table with values in the M-th roots of unity",
    )
    suite = add("suite", cmd_suite, "run the acceptance battery")
    suite.add_argument(
        "--only",
        action="append",
        help="run only the named criterion (repeatable)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ToleranceFailure as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except (norms.PowerIterationDiverged, norms.MonotonicityError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
