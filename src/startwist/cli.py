"""Command-line surface: element documents, experiment subcommands, CSV tables.

Documents are JSON with integer coordinate vectors and decimal-string
coefficient parts, so serialized elements round-trip bit-exactly.  CSV output
uses '.' decimals, '\\n' line endings and a fixed header per subcommand.  Only
``kasprzak-verify`` draws random data, from its config's seed (default 0)
unless ``--seed`` overrides it, so reruns are byte-identical; it alone also
takes ``--tolerance`` (default 1e-10).  ``suite`` uses the battery's own seed
and reads no config.

Every config field is read by ``_integer`` (a JSON integer, never a boolean),
``_number`` (a finite number, never a boolean) or ``_list`` (a nonempty list
read item by item); a rejected field exits 1 with ``error: <path>: ...``, for
instance ``error: input.windows[0]: ...``.  Windows whose box holds more than
2**20 points, and crossed-product contexts whose tables would, are rejected
the same way, as is an unreadable ``--input`` or unwritable ``--output`` file.
Each subcommand maps its config to its output text; ``main`` loads, writes and
maps exceptions to exit codes: 0 success, 1 validation or command-line usage
error, 2 assertion or tolerance failure, 3 internal numeric failure (for
instance power-iteration non-convergence).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from typing import Any

import numpy as np

from . import acceptance, crossed, deform, norms, paramdeform
from .abelian import GroupContext
from .automorphy import GammaAction, TauCocycle, integer_table, solve_automorphy
from .cocycles import Bicharacter, SkewForm, is_nondegenerate
from .deform import FourierElement
from .modarith import check_modulus

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_TOLERANCE = 2
EXIT_NUMERIC = 3


class InputError(ValueError):
    """Validation failure; the message names the offending field."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")


class ToleranceFailure(RuntimeError):
    """Tolerance failure; ``text`` is still written before exiting 2."""

    def __init__(self, message: str, text: str) -> None:
        super().__init__(message)
        self.text = text


# ----------------------------------------------------------------------
# field readers


def _at_least(what: str, minimum) -> str:
    return f"expected {what}" + ("" if minimum is None else f" >= {minimum}")


def _integer(value: Any, path: str, minimum: int | None = None) -> int:
    """A JSON integer (not a boolean), optionally bounded below."""
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or (minimum is not None and value < minimum)
    ):
        raise InputError(path, _at_least("an integer", minimum))
    return value


def _number(value: Any, path: str, minimum: float | None = None) -> float:
    """A finite JSON number (not a boolean) as a float, optionally bounded below."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not abs(value) <= sys.float_info.max
        or (minimum is not None and value < minimum)
    ):
        raise InputError(path, _at_least("a finite number", minimum))
    return float(value)


def _list(value: Any, path: str, length: int | None = None, item=None, **bounds) -> list:
    """A nonempty list, of ``length`` items if given, each read by ``item``."""
    if not isinstance(value, list) or not value or length not in (None, len(value)):
        expected = "a nonempty list" if length is None else f"{length} items"
        raise InputError(path, f"expected {expected}")
    if item is None:
        return value
    return [item(x, f"{path}[{i}]", **bounds) for i, x in enumerate(value)]


def _array(value: Any, path: str, shape: list, item, depth: int = 0) -> list:
    """A rectangular nested list, entries read by ``item``; a None length in
    ``shape`` is set by the first list at that level."""
    if depth == len(shape):
        return item(value, path)
    rows = _list(value, path, shape[depth])
    shape[depth] = len(rows)
    return [
        _array(row, f"{path}[{i}]", shape, item, depth + 1) for i, row in enumerate(rows)
    ]


def _table_entry(value: Any, path: str) -> int | float:
    """A finite JSON number (not a boolean), kept as given; the table checks integrality."""
    _number(value, path)
    return value


@contextmanager
def _field(path: str):
    """Report a library's or the OS's rejection of a value in the block on ``path``."""
    try:
        yield
    except (TypeError, ValueError, OverflowError, OSError) as exc:
        raise InputError(path, str(exc)) from None


def _require(cfg: Any, field: str, path: str = "input") -> Any:
    if not isinstance(cfg, dict):
        raise InputError(path, "expected an object")
    if field not in cfg:
        raise InputError(f"{path}.{field}", "missing required field")
    return cfg[field]


# ----------------------------------------------------------------------
# document layer


def context_to_doc(ctx: GroupContext) -> dict:
    if ctx.is_finite:
        return {"rank": ctx.rank, "mode": "finite", "moduli": list(ctx.moduli)}
    return {"rank": ctx.rank, "mode": "lattice"}


def context_from_doc(doc: Any, path: str = "context") -> GroupContext:
    rank = _integer(_require(doc, "rank", path), f"{path}.rank", minimum=1)
    mode = doc.get("mode")
    if mode == "lattice":
        return GroupContext.lattice(rank)
    if mode == "finite":
        moduli = _list(doc.get("moduli"), f"{path}.moduli", rank, _integer, minimum=2)
        return GroupContext.finite(moduli)
    raise InputError(f"{path}.mode", "expected 'lattice' or 'finite'")


def element_to_doc(a: FourierElement) -> dict:
    coefficients = [
        {"coords": list(p.coords), "re": repr(v.real), "im": repr(v.imag)}
        for p, v in a.coeffs.items()
    ]
    return {"context": context_to_doc(a.context), "coefficients": coefficients}


def element_from_doc(doc: Any, path: str = "element") -> FourierElement:
    ctx = context_from_doc(_require(doc, "context", path), f"{path}.context")
    raw = doc.get("coefficients")
    if not isinstance(raw, list):
        raise InputError(f"{path}.coefficients", "expected a list")
    coeffs = {}
    for i, entry in enumerate(raw):
        epath = f"{path}.coefficients[{i}]"
        coords = _require(entry, "coords", epath)
        point = ctx.point(_list(coords, f"{epath}.coords", ctx.rank, _integer))
        try:
            re, im = (float(str(entry.get(part, "0"))) for part in ("re", "im"))
        except ValueError:
            re = im = math.nan
        if not (math.isfinite(re) and math.isfinite(im)):
            raise InputError(epath, "re/im must be finite decimal strings")
        coeffs[point] = coeffs.get(point, 0j) + complex(re, im)
    return FourierElement(ctx, coeffs)


def cocycle_from_doc(doc: Any, ctx: GroupContext, path: str = "cocycle") -> Bicharacter:
    if not isinstance(doc, dict):
        raise InputError(path, "expected an object")
    matrix = doc.get("matrix", doc.get("exponent"))
    item = _integer if ctx.is_finite else _number
    matrix = _array(matrix, f"{path}.matrix", [ctx.rank] * 2, item)
    hbar = None if ctx.is_finite else _number(doc.get("hbar"), f"{path}.hbar")
    with _field(path):
        return Bicharacter(ctx, matrix, hbar)


def skew_from_doc(doc: Any, rank: int, path: str = "form") -> SkewForm:
    matrix = _array(doc, path, [rank] * 2, _number)
    with _field(path):
        return SkewForm(np.asarray(matrix))


# ----------------------------------------------------------------------
# io helpers


def _load_config(args) -> Any:
    if args.input:
        with _field("--input"), open(args.input, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = sys.stdin.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("input", f"invalid JSON ({exc})") from None


def _write_output(args, text: str) -> None:
    if args.output:
        with _field("--output"), open(
            args.output, "w", encoding="utf-8", newline=""
        ) as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _csv(header: str, rows) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


def _pair(cfg: Any) -> tuple[FourierElement, FourierElement]:
    a = element_from_doc(_require(cfg, "a"), "input.a")
    b = element_from_doc(_require(cfg, "b"), "input.b")
    if a.context != b.context:
        raise InputError("input.b.context", "does not match input.a.context")
    return a, b


# ----------------------------------------------------------------------
# subcommands: each maps a parsed config to its output text


def cmd_star(cfg: Any, args) -> str:
    a, b = _pair(cfg)
    sigma = cocycle_from_doc(_require(cfg, "cocycle"), a.context, "input.cocycle")
    return json.dumps(element_to_doc(deform.star(a, b, sigma)), indent=2) + "\n"


def cmd_semiclassical(cfg: Any, args) -> str:
    a, b = _pair(cfg)
    if a.context.is_finite:
        raise InputError("input.a.context", "semiclassical scans need a lattice context")
    gamma = skew_from_doc(_require(cfg, "form"), a.context.rank, "input.form")
    hbars = _list(_require(cfg, "hbar_list"), "input.hbar_list", item=_number)
    if 0.0 in hbars:
        raise InputError("input.hbar_list", "expected nonzero numbers")
    window = _integer(cfg.get("window", 8), "input.window", minimum=1)
    with _field("input.window"):
        rows = [
            (hbar, deform.semiclassical_defect(a, b, gamma, hbar, window))
            for hbar in sorted(hbars, reverse=True)
        ]
    return _csv("hbar,defect", rows)


def cmd_kasprzak_verify(cfg: Any, args) -> str:
    moduli = _list(_require(cfg, "moduli"), "input.moduli", item=_integer, minimum=2)
    ctx = GroupContext.finite(moduli)
    sigma = _require(cfg, "cocycle_matrix")
    sigma = _array(sigma, "input.cocycle_matrix", [ctx.rank] * 2, _integer)
    e = cfg.get("e_matrix", np.eye(ctx.rank, dtype=int).tolist())
    e = _array(e, "input.e_matrix", [ctx.rank] * 2, _integer)
    with _field("input.cocycle_matrix"):
        sigma, e = Bicharacter(ctx, sigma), Bicharacter(ctx, e)
    # T = sigma^1 o e^1 is invertible exactly when both factors are
    for path, cocycle in (("input.cocycle_matrix", sigma), ("input.e_matrix", e)):
        if not is_nondegenerate(cocycle):
            raise InputError(path, "degenerate, so the composed map T is singular")
    with _field("input.moduli"):
        data = crossed.DeformedActionData(sigma, e)
    trials = _integer(cfg.get("trials", 50), "input.trials", minimum=1)
    if args.seed is None:
        seed = _integer(cfg.get("seed", 0), "input.seed", minimum=0)
    else:
        seed = _integer(args.seed, "--seed", minimum=0)
    tolerance = _number(
        1e-10 if args.tolerance is None else args.tolerance, "--tolerance", minimum=0
    )
    pairs = crossed.random_projected_pairs(data, np.random.default_rng(seed), trials)
    worst = float(np.max([crossed.verify_I_homomorphism(a, b, data) for a, b in pairs]))
    text = f"trials={trials} max_deviation={worst!r} tolerance={tolerance!r}\n"
    if not worst <= tolerance:
        raise ToleranceFailure(f"max deviation {worst} exceeds {tolerance}", text)
    return text


def cmd_heisenberg(cfg: Any, args) -> str:
    grid_size = _integer(_require(cfg, "grid_size"), "input.grid_size", minimum=1)
    hbar = _number(_require(cfg, "hbar"), "input.hbar")
    grid = paramdeform.BaseGrid.circle(grid_size)
    phases = paramdeform.heisenberg_phases(hbar, grid)
    rows = [(y, phase.real, phase.imag) for y, phase in zip(grid.samples, phases)]
    return _csv("y,phase_re,phase_im", rows)


def cmd_norm(cfg: Any, args) -> str:
    a = element_from_doc(_require(cfg, "element"), "input.element")
    if a.context.is_finite:
        raise InputError("input.element.context", "window norms need a lattice context")
    gamma = skew_from_doc(_require(cfg, "form"), a.context.rank, "input.form")
    hbar = _number(cfg.get("hbar", 0.0), "input.hbar")
    windows = _list(_require(cfg, "windows"), "input.windows", item=_integer, minimum=1)
    sigma = Bicharacter.from_skew(a.context, gamma, hbar)
    with _field("input.windows"):
        return _csv("window,estimate", norms.norm_convergence(a, sigma, windows))


def cmd_automorphy_solve(cfg: Any, args) -> str:
    mul = _array(_require(cfg, "group_table"), "input.group_table", [None] * 2, _table_entry)
    act = _array(_require(cfg, "action"), "input.action", [None] * 2, _table_entry)
    with _field("input.group_table"):
        action = GammaAction(np.asarray(mul), np.asarray(act))
    modulus = _integer(_require(cfg, "modulus"), "input.modulus")
    with _field("input.modulus"):
        check_modulus(modulus)
    exponents = _require(cfg, "tau_exponents")
    exponents = _array(exponents, "input.tau_exponents", [None] * 3, _table_entry)
    with _field("input.tau_exponents"):
        table = integer_table(exponents, "tau exponents")
        tau = TauCocycle(np.exp(2j * np.pi * (table % modulus) / modulus))
        factor = solve_automorphy(action, tau, modulus)
    if factor is None:
        text = json.dumps({"solvable": False}) + "\n"
        raise ToleranceFailure(f"no factor exists over Z/{modulus}", text)
    doc = {
        "solvable": True,
        "factor_re": [[repr(float(x)) for x in row] for row in factor.values.real],
        "factor_im": [[repr(float(x)) for x in row] for row in factor.values.imag],
    }
    return json.dumps(doc, indent=2) + "\n"


def cmd_suite(cfg: Any, args) -> str:
    with _field("--only"):
        results = acceptance.run_suite(args.only)
    failed = sum(not r.passed for r in results)
    summary = {"total": len(results), "passed": len(results) - failed, "failed": failed}
    text = "".join(r.line() + "\n" for r in results) + json.dumps(summary) + "\n"
    if failed:
        raise ToleranceFailure(f"{failed} criteria failed", text)
    return text


# ----------------------------------------------------------------------
# driver


class _Parser(argparse.ArgumentParser):
    """Reports usage errors with the validation exit code, not argparse's 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="startwist",
        description="Twisted star products, crossed-product models and "
        "window norm estimates at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", help="JSON config path (default: stdin)")
        p.add_argument("--output", help="output path (default: stdout)")
        p.set_defaults(func=func)
        return p

    add("star", cmd_star, "twisted product of two element documents")
    add(
        "semiclassical",
        cmd_semiclassical,
        "defect table over an hbar sweep (CSV: hbar,defect)",
    )
    kasprzak = add(
        "kasprzak-verify",
        cmd_kasprzak_verify,
        "averaging-map homomorphism deviation over random projected pairs",
    )
    kasprzak.add_argument("--seed", type=int, help="seed override")
    kasprzak.add_argument("--tolerance", type=float, help="tolerance override")
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
        try:
            # suite reads no config, so it must not wait on stdin
            cfg = None if args.command == "suite" else _load_config(args)
            text, code = args.func(cfg, args), EXIT_OK
        except ToleranceFailure as exc:
            print(f"failure: {exc}", file=sys.stderr)
            text, code = exc.text, EXIT_TOLERANCE
        _write_output(args, text)
        return code
    except (norms.PowerIterationDiverged, norms.MonotonicityError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:  # InputError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
