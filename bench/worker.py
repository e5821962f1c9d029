"""One workload in its own process: set-up, timed passes, program outputs.

    python3 bench/worker.py --workload NAME --seed N --seconds S [--trace] [--probe]

Prints ``ready`` once the inputs are built (the parent times interpreter start
to that line), then runs whole passes over the check list until the next pass
would end past ``--seconds`` (at least MIN_PASSES), and writes a pickled
result after a marker line.  ``--probe`` exits right after ``ready``.  The
process holds nothing but the program and its inputs, so its peak resident
set is the workload's.
"""

from __future__ import annotations

import argparse
import os
import pickle
import resource
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402

MIN_PASSES = 3
RESULT_MARKER = b"\n#worker-result#\n"


def suite_checks():
    from startwist import acceptance

    return [
        (name, lambda name=name: acceptance.run_suite([name])[0], False)
        for name in acceptance.CRITERIA
    ]


def window_norms_checks(seed: int):
    from startwist import cli, deform, norms
    from startwist.cocycles import Bicharacter, SkewForm

    form = SkewForm(np.array(inputs.SYMPLECTIC))
    checks, extras = [], []
    for spec in inputs.window_norms(seed):
        a = cli.element_from_doc(spec["a"])
        if spec["kind"] == "norm":
            sigma = Bicharacter.from_skew(a.context, form, spec["hbar"])
            fn = lambda a=a, s=sigma, w=spec["windows"]: norms.norm_convergence(a, s, w)
        else:
            b = cli.element_from_doc(spec["b"], "b")
            fn = lambda a=a, b=b, h=spec["hbar"], w=spec["window"]: deform.semiclassical_defect(
                a, b, form, h, w
            )
            extras.append((spec["name"], a, b, Bicharacter.from_skew(a.context, form, spec["hbar"])))
        checks.append((spec["name"], fn, spec.get("expect_fail", False)))
    return checks, extras


def finite_exact_checks(seed: int):
    from startwist import automorphy, crossed, deform
    from startwist.abelian import FiniteVector, GroupContext
    from startwist.automorphy import GammaAction, TauCocycle
    from startwist.cocycles import Bicharacter

    data_in = inputs.finite_exact(seed)
    checks = []
    for entry in data_in["contexts"]:
        name, moduli = entry["name"], entry["moduli"]
        ctx = GroupContext.finite(moduli)
        data = crossed.DeformedActionData.from_cocycles(
            Bicharacter(ctx, entry["sigma"]), Bicharacter(ctx, entry["e"])
        )
        fixed = [crossed.CrossedElement(ctx, oracle.project(t, moduli, entry["sigma"], entry["e"]))
                 for t in entry["pair"]]
        raw = crossed.CrossedElement(ctx, entry["project_in"])
        checks += [
            (f"verify_I:{name}",
             lambda f=fixed, d=data: crossed.verify_I_homomorphism(f[0], f[1], d), False),
            (f"spectral_project:{name}",
             lambda r=raw, d=data: crossed.spectral_project(r, d), False),
            (f"fixed_point_dimension:{name}",
             lambda d=data: crossed.fixed_point_dimension(d), False),
        ]
        if "rieffel" in entry:
            x, y = (FiniteVector(ctx, v) for v in entry["rieffel"])
            checks.append((f"rieffel:{name}",
                           lambda x=x, y=y, d=data: deform.rieffel_product_finite(x, y, d.e, d.t),
                           False))
        if "twisted" in entry:
            ta, tb, s_hat = entry["twisted"]
            ea, eb = crossed.CrossedElement(ctx, ta), crossed.CrossedElement(ctx, tb)
            sh = Bicharacter(ctx, s_hat)
            checks.append((f"twisted_dual:{name}",
                           lambda a=ea, b=eb, s=sh: crossed.twisted_crossed_dual(a, b, s), False))
    for system in data_in["systems"]:
        action = getattr(GammaAction, system["constructor"])(*system["args"])
        m = system["modulus"]
        tau = TauCocycle(np.exp(2j * np.pi * system["tau_exponents"] / m))
        checks.append((f"solve:{system['name']}",
                       lambda a=action, t=tau, m=m: automorphy.solve_automorphy(a, t, m), False))
    z2 = GammaAction.cyclic(2)
    tau = TauCocycle(inputs.OBSTRUCTION_TAU)
    for m, _ in inputs.OBSTRUCTION_MODULI:
        checks.append((f"obstruction:M{m}",
                       lambda t=tau, m=m: automorphy.solve_automorphy(z2, t, m), False))
    return checks


def build(workload: str, seed: int):
    """Import the program and build the seeded check list: (name, call, expect_fail)."""
    if workload == "suite":
        return suite_checks(), []
    if workload == "window-norms":
        return window_norms_checks(seed)
    return finite_exact_checks(seed), []


def plain(out):
    """Program output as plain data (arrays, floats, lists, dicts) for the oracle."""
    if out is None or isinstance(out, (int, float, np.integer, np.floating)):
        return out
    if hasattr(out, "passed"):
        return {"passed": out.passed, "value": out.value, "tolerance": out.tolerance}
    if hasattr(out, "coeffs"):
        return {p.coords: complex(v) for p, v in out.coeffs.items()}
    if hasattr(out, "table"):
        return np.array(out.table)
    if hasattr(out, "values"):
        return np.array(out.values)
    if isinstance(out, (list, tuple)):
        return [tuple(row) for row in out]
    raise TypeError(f"no plain form for {type(out).__name__}")


def same(x, y) -> bool:
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return isinstance(x, np.ndarray) and isinstance(y, np.ndarray) and np.array_equal(x, y)
    if isinstance(x, dict):
        return isinstance(y, dict) and x.keys() == y.keys() and all(same(x[k], y[k]) for k in x)
    return x == y


_REF_TABLE = np.arange(576, dtype=np.complex128).reshape(24, 24)


def reference_kernel() -> None:
    """Fixed work in the program's style: tuple-keyed dict updates, small numpy ops."""
    acc: dict = {}
    for i in range(2000):
        key = (i % 37, i % 41)
        acc[key] = acc.get(key, 0j) + complex(i, 1) * 0.5
    x = _REF_TABLE
    for _ in range(50):
        x = np.roll(x, 1, axis=0) * 0.5 + _REF_TABLE * 0.5


def run_passes(checks, seconds: float, tracer=None):
    """Whole passes until the next would end after `seconds`; one time list per check.

    The reference kernel runs before every check; its times sample the host's
    speed across the run.
    """
    samples = [[] for _ in checks]
    ref: list[float] = []
    errors: list[list[str | None]] = []
    outputs: list = [None] * len(checks)
    drift: list[str] = []
    if tracer is not None:
        checks = [(name, tracer.wrap(f"check.{name}", fn), x) for name, fn, x in checks]
    clock = time.perf_counter
    start = clock()
    shortest = float("inf")
    while True:
        if tracer is not None:
            tracer.phase = f"pass{len(errors)}"
        pass_start = clock()
        errs: list[str | None] = []
        for i, (name, fn, _) in enumerate(checks):
            t0 = clock()
            reference_kernel()
            ref.append(clock() - t0)
            t0 = clock()
            try:
                out, err = fn(), None
            except Exception as exc:  # a failed check is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            samples[i].append(clock() - t0)
            errs.append(err)
            if err is None:
                value = plain(out)
                if not errors:
                    outputs[i] = value
                elif not same(outputs[i], value):
                    drift.append(name)
        errors.append(errs)
        now = clock()
        shortest = min(shortest, now - pass_start)
        if len(errors) >= MIN_PASSES and now - start + shortest > seconds:
            return samples, errors, outputs, drift, ref


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--spans", help="where the traced run writes its spans")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    checks, extras = build(args.workload, args.seed)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.probe:
        return 0

    samples, errors, outputs, drift, ref = run_passes(checks, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layer_metrics = None
    if tracer is not None:
        tracer.uninstall()
        layer_metrics = tracer.metrics()
        if args.spans:
            tracer.write(args.spans)

    from startwist import deform
    from startwist.cocycles import Bicharacter

    products = {}
    for name, a, b, sigma in extras:
        products[name] = {
            "deformed": plain(deform.star(a, b, sigma)),
            "commutative": plain(deform.star(a, b, Bicharacter.trivial(a.context))),
        }
    result = {
        "names": [c[0] for c in checks],
        "expect_fail": [c[2] for c in checks],
        "samples": samples,
        "ref_samples": ref,
        "errors": errors,
        "outputs": outputs,
        "drift": drift,
        "products": products,
        "peak_rss_mb": peak_rss_mb,
        "layer_metrics": layer_metrics,
    }
    sys.stdout.flush()
    sys.stdout.buffer.write(RESULT_MARKER + pickle.dumps(result))
    sys.stdout.buffer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
