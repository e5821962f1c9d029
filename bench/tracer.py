"""Spans around the public functions of each `startwist` layer.

`Tracer.install` rebinds every traced function wherever the package binds it
(for example ``star`` in ``deform``, ``norms``, ``paramdeform`` and
``acceptance``) and wraps ``GammaAction.__post_init__`` for construction.
Spans stay in memory as tuples and are written out once, at the end of the
run; per-layer metrics are aggregated from them.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

LAYERS = {
    "deform": ("star", "poisson_bracket", "involution", "translate",
               "iterated_star_check", "semiclassical_defect", "rieffel_product_finite"),
    "norms": ("left_mult_matrix", "op_norm_estimate", "norm_convergence"),
    "crossed": ("spectral_project", "crossed_conv", "twisted_crossed_dual",
                "fixed_point_test", "fixed_point_dimension", "verify_I_homomorphism"),
    "paramdeform": ("param_star", "monodromy_transport", "linearity_check",
                    "equivariant_product_closure"),
    "automorphy": ("tau_cocycle_check", "coboundary", "solve_automorphy"),
    "modarith": ("solve_mod_system",),
    "cli": ("element_from_doc",),
}

CRITERIA = (
    "delta-relation", "associativity", "involution", "semiclassical-limit",
    "iterated-deformation", "translation-automorphisms", "kasprzak-equivalence",
    "rieffel-duality", "c0x-linearity", "heisenberg-field", "non-principal-model",
    "norm-oracle", "automorphy",
)

# name -> unit, in the order they are reported
METRICS = {
    "deform.star.calls": "count",
    "deform.star.pairs": "count",
    "deform.star.busy_s": "s",
    "deform.star.ns_per_pair": "ns",
    "deform.poisson_bracket.busy_s": "s",
    "deform.involution.busy_s": "s",
    "deform.translate.busy_s": "s",
    "deform.iterated_star_check.self_s": "s",
    "deform.semiclassical_defect.self_s": "s",
    "deform.rieffel_product_finite.calls": "count",
    "deform.rieffel_product_finite.busy_s": "s",
    "norms.left_mult_matrix.busy_s": "s",
    "norms.left_mult_matrix.bytes": "B",
    "norms.op_norm_estimate.dense.calls": "count",
    "norms.op_norm_estimate.dense.busy_s": "s",
    "norms.op_norm_estimate.dense.self_s": "s",
    "norms.op_norm_estimate.iterative.calls": "count",
    "norms.op_norm_estimate.iterative.busy_s": "s",
    "norms.op_norm_estimate.iterative.failed": "count",
    "norms.norm_convergence.self_s": "s",
    "crossed.spectral_project.busy_s": "s",
    "crossed.crossed_conv.busy_s": "s",
    "crossed.twisted_crossed_dual.busy_s": "s",
    "crossed.fixed_point_test.busy_s": "s",
    "crossed.fixed_point_dimension.busy_s": "s",
    "crossed.verify_I_homomorphism.self_s": "s",
    "paramdeform.param_star.busy_s": "s",
    "paramdeform.monodromy_transport.busy_s": "s",
    "paramdeform.linearity_check.self_s": "s",
    "paramdeform.equivariant_product_closure.self_s": "s",
    "automorphy.GammaAction.busy_s": "s",
    "automorphy.tau_cocycle_check.busy_s": "s",
    "automorphy.coboundary.busy_s": "s",
    "automorphy.solve_automorphy.self_s": "s",
    "automorphy.solve_automorphy.unknowns": "count",
    "modarith.solve_mod_system.busy_s": "s",
    "modarith.solve_mod_system.rows": "count",
    **{f"acceptance.{c}.busy_s": "s" for c in CRITERIA},
    "cli.element_from_doc.busy_s": "s",
}


def _extra(name: str, args) -> int:
    """Work count recorded with a span: coefficient pairs, matrix bytes, rows, unknowns."""
    if name == "deform.star":
        return len(args[0].coeffs) * len(args[1].coeffs)
    if name == "norms.left_mult_matrix":
        w = args[2] if isinstance(args[2], int) else args[2].radius
        return ((2 * w + 1) ** args[0].context.rank) ** 2 * 16
    if name == "modarith.solve_mod_system":
        return len(args[0])
    if name == "automorphy.solve_automorphy":
        return args[0].order * args[0].n_points
    return 0


class Tracer:
    """Records (id, name, parent, phase, start_ns, end_ns, child_ns, failed, extra, kids)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.phase = "setup"
        self._restore: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            sid = len(spans)
            spans.append(None)
            frame = [sid, 0, set()]
            stack.append(frame)
            failed = False
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                    stack[-1][2].add(name)
                spans[sid] = (sid, name, parent, self.phase, t0, t1, frame[1], failed,
                              _extra(name, args), frame[2])

        return traced

    def install(self) -> None:
        from startwist import acceptance, automorphy

        targets = {}
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"startwist.{layer}")
            for fn_name in names:
                original = getattr(module, fn_name)
                targets[id(original)] = (original, self.wrap(f"{layer}.{fn_name}", original))
        for crit, fn in acceptance.CRITERIA.items():
            wrapped = self.wrap(f"acceptance.{crit}", fn)
            targets[id(fn)] = (fn, wrapped)
            self._set(acceptance.CRITERIA, crit, wrapped, item=True)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "startwist" or mod_name.startswith("startwist."):
                for attr, value in list(vars(module).items()):
                    if id(value) in targets and targets[id(value)][0] is value:
                        self._set(module, attr, targets[id(value)][1])
        post_init = automorphy.GammaAction.__post_init__
        self._set(automorphy.GammaAction, "__post_init__",
                  self.wrap("automorphy.GammaAction", post_init))

    def _set(self, owner, key, value, item: bool = False) -> None:
        if item:
            self._restore.append((owner, key, owner[key], True))
            owner[key] = value
        else:
            self._restore.append((owner, key, getattr(owner, key), False))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value, item in reversed(self._restore):
            if item:
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore.clear()

    def write(self, path) -> None:
        """One JSON object per span; times in ns relative to the first span."""
        t_base = min((s[4] for s in self.spans if s), default=0)
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, parent, phase, t0, t1, child, failed, extra, _ in self.spans:
                handle.write(json.dumps({
                    "id": sid, "name": name, "parent": parent, "trace": phase,
                    "start_ns": t0 - t_base, "end_ns": t1 - t_base,
                    "self_ns": t1 - t0 - child, "failed": failed, "work": extra,
                }) + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: the set-up total plus the median over passes of each pass total."""
        per_phase: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid, name, parent, phase, t0, t1, child, failed, extra, kids in self.spans:
            m = per_phase[phase]
            busy = (t1 - t0) / 1e9
            own = busy - child / 1e9
            if name == "norms.op_norm_estimate":
                path = "dense" if "norms.left_mult_matrix" in kids else "iterative"
                m[f"{name}.{path}.calls"] += 1
                m[f"{name}.{path}.busy_s"] += busy
                m[f"{name}.{path}.self_s"] += own
                m[f"{name}.{path}.failed"] += failed
                continue
            m[f"{name}.calls"] += 1
            m[f"{name}.busy_s"] += busy
            m[f"{name}.self_s"] += own
            if name == "deform.star":
                m[f"{name}.pairs"] += extra
            elif name == "norms.left_mult_matrix":
                m[f"{name}.bytes"] += extra
            elif name == "modarith.solve_mod_system":
                m[f"{name}.rows"] += extra
            elif name == "automorphy.solve_automorphy":
                m[f"{name}.unknowns"] += extra
        for m in per_phase.values():
            if m["deform.star.pairs"]:
                m["deform.star.ns_per_pair"] = m["deform.star.busy_s"] / m["deform.star.pairs"] * 1e9
        setup = per_phase.pop("setup", {})
        passes = list(per_phase.values())
        out = {}
        for key in METRICS:
            median = statistics.median(p.get(key, 0.0) for p in passes) if passes else 0.0
            out[key] = median if key.endswith("ns_per_pair") else setup.get(key, 0.0) + median
        return out
