import copy
import hashlib
import io
import json
import time
import warnings

import numpy as np
import pytest

from startwist.abelian import GroupContext
from startwist.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_TOLERANCE,
    EXIT_VALIDATION,
    context_from_doc,
    element_from_doc,
    element_to_doc,
    main,
)
from startwist.deform import FourierElement

LATTICE2 = GroupContext.lattice(2)

HEISENBERG_7 = """y,phase_re,phase_im
0.0,1.0,0.0
0.14285714285714285,0.9453561084395689,-0.32603961145234184
0.2857142857142857,0.787396343528012,-0.6164470765594701
0.42857142857142855,0.5433837777948057,-0.8394844072580772
0.5714285714285714,0.23998600360256592,-0.9707763481229181
0.7142857142857143,-0.08963930890343359,-0.995974293995239
0.8571428571428571,-0.4094681400588906,-0.9123244172314543
"""

SUITE_TEXT = """\
PASS delta-relation: worst l1 deviation 0.000e+00 (tol 1e-12) over 200 pairs
PASS associativity: worst l1 deviation 8.335e-13 (tol 1e-10) over 5 x 100 triples
PASS involution: worst l1 deviation 4.468e-14 (tol 1e-12) over 100 pairs
PASS semiclassical-limit: ratio(0.01)=0.5036; ratio(0.001)=0.5000; closed-form gap 8.674e-19 (tol 1e-12)
PASS iterated-deformation: worst deviation 9.727e-15 (tol 1e-12); undeformation exact: True
PASS translation-automorphisms: worst deviation 8.094e-15 (tol 1e-12) over 100 draws
PASS kasprzak-equivalence: worst homomorphism deviation 8.951e-16 (tol 1e-10); projection idempotence 3.140e-16 (tol 1e-12); fixed-space dimensions exact: True
PASS rieffel-duality: worst deviation 8.921e-16 (tol 1e-10) over 2 x 50 pairs
PASS c0x-linearity: worst deviation 2.483e-16 (tol 1e-12) over 50 triples
PASS heisenberg-field: worst phase deviation 2.220e-16 (tol 1e-12); rational fibers are exact roots of unity: True
PASS non-principal-model: shear accepted: True; diag(2,1) rejected: True; closure deviation 0.000e+00 (tol 1e-12); negative control deviation 1.445e+00 (> 1e-3)
PASS norm-oracle: estimate at W=64 is 1.999416 (gap 5.84e-04, tol 1e-3); monotone in W; delta estimates exactly 1: True
PASS automorphy: worst coboundary deviation 6.664e-16 (tol 1e-12); obstruction unsolvable at M=2: True; solved at M=4 and verified: True; U identity: True
{"total": 13, "passed": 13, "failed": 0}
"""


# Fixed configs whose outputs were captured as bytes before the CLI refactor.
def lattice2_doc(*terms):
    return {
        "context": {"rank": 2, "mode": "lattice"},
        "coefficients": [{"coords": c, "re": re, "im": im} for c, re, im in terms],
    }


STAR_CONFIG = {
    "a": lattice2_doc(([1, 0], "0.5", "0.0"), ([0, 1], "0.25", "-1.0")),
    "b": lattice2_doc(([0, 1], "1.0", "0.0"), ([-1, 2], "0.0", "0.75")),
    "cocycle": {"exponent": [[0.0, 1.0], [-1.0, 0.0]], "hbar": 0.3},
}
FINITE55 = {"rank": 2, "mode": "finite", "moduli": [5, 5]}
STAR_FINITE_CONFIG = {
    "a": {
        "context": FINITE55,
        "coefficients": [
            {"coords": [1, 0], "re": "0.5", "im": "0.0"},
            {"coords": [2, 4], "re": "0.25", "im": "-1.0"},
        ],
    },
    "b": {
        "context": FINITE55,
        "coefficients": [
            {"coords": [0, 1], "re": "1.0", "im": "0.0"},
            {"coords": [1, 1], "re": "0.0", "im": "0.75"},
        ],
    },
    "cocycle": {"matrix": [[0, 1], [2, 0]]},
}
SEMICLASSICAL_CONFIG = {
    "a": lattice2_doc(([1, 0], "1.0", "0.0"), ([0, -1], "0.5", "0.5")),
    "b": lattice2_doc(([0, 1], "1.0", "0.0")),
    "form": [[0.0, 1.0], [-1.0, 0.0]],
    "hbar_list": [0.1, 0.001, 0.01],
    "window": 4,
}
SEMICLASSICAL_TEXT = """hbar,defect
0.1,0.49212879899877715
0.01,0.049346669116236544
0.001,0.004934800847593776
"""
NORM_CONFIG = {
    "element": lattice2_doc(
        ([1, 0], "1.0", "0.0"),
        ([-1, 0], "1.0", "0.0"),
        ([0, 1], "0.0", "0.5"),
        ([0, -1], "0.0", "-0.5"),
    ),
    "form": [[0.0, 1.0], [-1.0, 0.0]],
    "hbar": 0.3,
    "windows": [5, 2, 3],
}
NORM_TEXT = """window,estimate
2,1.989268790681508
3,2.0738118235160194
5,2.135931322626819
"""
AUTOMORPHY_CONFIG = {
    "group_table": [[0, 1], [1, 0]],
    "action": [[0], [0]],
    "tau_exponents": [[[0], [0]], [[0], [2]]],
    "modulus": 4,
}
KASPRZAK_CONFIG = {"moduli": [5], "cocycle_matrix": [[1]], "trials": 2}
# The translate kernels gather several u at once on (Z/5)^2 and one at a time
# on (Z/5)^3, where a single translate is 5**6 entries; both lines are pinned.
KASPRZAK_GOLDENS = {
    "Z5xZ5": (
        {"moduli": [5, 5], "cocycle_matrix": [[0, 1], [-1, 0]], "trials": 3, "seed": 0},
        "trials=3 max_deviation=4.965068306494546e-16 tolerance=1e-10\n",
    ),
    "Z5^3": (
        {"moduli": [5, 5, 5], "cocycle_matrix": [[3, 0, 0], [0, 3, 0], [0, 0, 3]], "trials": 3, "seed": 0},
        "trials=3 max_deviation=4.344434768182728e-16 tolerance=1e-10\n",
    ),
}
HEISENBERG_CONFIG = {"grid_size": 3, "hbar": 0.5}


def run(args, config, tmp_path, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    out = tmp_path / "out.txt"
    code = main(args + ["--input", str(path), "--output", str(out)])
    return code, out.read_text() if out.exists() else ""


def random_element(ctx, rng, max_support=6, box=4):
    n = int(rng.integers(1, max_support + 1))
    if ctx.is_finite:
        n = min(n, ctx.size)
    coeffs = {}
    while len(coeffs) < n:
        p = ctx.point(tuple(rng.integers(-box, box + 1, size=ctx.rank)))
        coeffs[p] = complex(rng.standard_normal(), rng.standard_normal())
    return FourierElement(ctx, coeffs)


class TestSerialization:
    def test_round_trip_500_per_context(self):
        rng = np.random.default_rng(0)
        for ctx in (LATTICE2, GroupContext.finite(5), GroupContext.finite([4, 4])):
            for _ in range(500):
                a = random_element(ctx, rng)
                doc = element_to_doc(a)
                back = element_from_doc(json.loads(json.dumps(doc)))
                assert back == a  # bit-exact through repr round-trip

    def test_finite_decimal_coefficients_bit_exact(self):
        a = FourierElement(
            LATTICE2, {LATTICE2.point(1, -2): complex(0.125, -3.5)}
        )
        assert element_from_doc(element_to_doc(a)) == a

    def test_round_trip_bitwise(self):
        rng = np.random.default_rng(1)
        for ctx in (LATTICE2, GroupContext.finite([4, 4])):
            for _ in range(100):
                a = random_element(ctx, rng)
                back = element_from_doc(json.loads(json.dumps(element_to_doc(a))))
                assert back.coords.tobytes() == a.coords.tobytes()
                assert back.values.tobytes() == a.values.tobytes()
        # signed zero parts are kept as written: a lone coefficient's, and the
        # -0.0 of -1 * (1j d_0 + d_e1) at the origin through the reader's sums
        for a in (
            FourierElement.from_arrays(LATTICE2, [[2, -1]], [complex(-0.0, 0.5)]),
            -1 * FourierElement.from_arrays(LATTICE2, [[0, 0], [1, 0]], [1j, 1.0]),
        ):
            assert np.signbit(a.values[0].real)
            back = element_from_doc(json.loads(json.dumps(element_to_doc(a))))
            assert back.coords.tobytes() == a.coords.tobytes()
            assert back.values.tobytes() == a.values.tobytes()

    def test_context_doc_round_trip(self):
        for ctx in (LATTICE2, GroupContext.finite([3, 9])):
            from startwist.cli import context_to_doc

            assert context_from_doc(context_to_doc(ctx)) == ctx


class TestStarCommand:
    def _docs(self):
        a = element_to_doc(FourierElement.delta(LATTICE2.point(1, 0)))
        b = element_to_doc(FourierElement.delta(LATTICE2.point(0, 1)))
        return a, b

    def test_delta_product(self, tmp_path):
        a, b = self._docs()
        cocycle = {"exponent": [[0.0, 1.0], [-1.0, 0.0]], "hbar": 0.5}
        code, text = run(["star"], {"a": a, "b": b, "cocycle": cocycle}, tmp_path)
        assert code == EXIT_OK
        doc = json.loads(text)
        out = element_from_doc(doc)
        assert out.coeff(LATTICE2.point(1, 1)) == pytest.approx(-1j)

    def test_huge_finite_modulus(self, tmp_path):
        # finite phases come from their exponents, taken exactly mod N, not
        # from a table of N roots; x . B y here is far beyond int64
        n, x, y, b = 10**12, 10**11 + 7, 10**12 - 3, 123_456_789
        ctx = GroupContext.finite(n)
        a_doc = element_to_doc(FourierElement.delta(ctx.point(x)))
        b_doc = element_to_doc(FourierElement.delta(ctx.point(y)))
        cfg = {"a": a_doc, "b": b_doc, "cocycle": {"matrix": [[b]]}}
        code, text = run(["star"], cfg, tmp_path)
        assert code == EXIT_OK
        out = element_from_doc(json.loads(text))
        expected = np.exp(2j * np.pi * (x * b * y % n) / n)
        assert out.coeff(ctx.point(x + y)) == pytest.approx(expected, abs=1e-12)

    def test_hbar_zero_is_convolution(self, tmp_path):
        a, b = self._docs()
        cocycle = {"exponent": [[0.0, 1.0], [-1.0, 0.0]], "hbar": 0.0}
        code, text = run(["star"], {"a": a, "b": b, "cocycle": cocycle}, tmp_path)
        assert code == EXIT_OK
        out = element_from_doc(json.loads(text))
        assert out.coeff(LATTICE2.point(1, 1)) == 1.0

    def test_malformed_vector_names_index(self, tmp_path, capsys):
        a, b = self._docs()
        a["coefficients"][0]["coords"] = [1]
        cocycle = {"exponent": [[0.0, 0.0], [0.0, 0.0]], "hbar": 1.0}
        code, _ = run(["star"], {"a": a, "b": b, "cocycle": cocycle}, tmp_path)
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "coefficients[0]" in err


class TestSemiclassicalCommand:
    def test_csv_shape_and_header(self, tmp_path):
        cfg = {
            "a": element_to_doc(FourierElement.delta(LATTICE2.point(1, 0))),
            "b": element_to_doc(FourierElement.delta(LATTICE2.point(0, 1))),
            "form": [[0.0, 1.0], [-1.0, 0.0]],
            "hbar_list": [1e-1, 1e-3, 1e-2],
            "window": 4,
        }
        code, text = run(["semiclassical"], cfg, tmp_path)
        assert code == EXIT_OK
        lines = text.strip().split("\n")
        assert lines[0] == "hbar,defect"
        hbars = [float(line.split(",")[0]) for line in lines[1:]]
        assert hbars == sorted(hbars, reverse=True)

    def test_commuting_pair_zero_column(self, tmp_path):
        cfg = {
            "a": element_to_doc(FourierElement.delta(LATTICE2.point(1, 0))),
            "b": element_to_doc(FourierElement.delta(LATTICE2.point(2, 0))),
            "form": [[0.0, 1.0], [-1.0, 0.0]],
            "hbar_list": [1e-1, 1e-2],
            "window": 4,
        }
        code, text = run(["semiclassical"], cfg, tmp_path)
        assert code == EXIT_OK
        for line in text.strip().split("\n")[1:]:
            assert float(line.split(",")[1]) <= 1e-14

    def test_stepwise_ratio(self, tmp_path):
        cfg = {
            "a": element_to_doc(FourierElement.delta(LATTICE2.point(1, 0))),
            "b": element_to_doc(FourierElement.delta(LATTICE2.point(0, 1))),
            "form": [[0.0, 1.0], [-1.0, 0.0]],
            "hbar_list": [1e-1, 1e-2, 1e-3],
            "window": 4,
        }
        code, text = run(["semiclassical"], cfg, tmp_path)
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        defects = [float(r[1]) for r in rows]
        assert 0.08 <= defects[1] / defects[0] <= 0.12
        assert 0.08 <= defects[2] / defects[1] <= 0.12


class TestKasprzakCommand:
    def test_z5_passes(self, tmp_path):
        cfg = {"moduli": [5], "cocycle_matrix": [[1]], "trials": 10, "seed": 1}
        code, text = run(["kasprzak-verify"], cfg, tmp_path)
        assert code == EXIT_OK
        assert "max_deviation" in text

    def test_z7_passes(self, tmp_path):
        cfg = {"moduli": [7], "cocycle_matrix": [[3]], "trials": 10}
        code, _ = run(["kasprzak-verify"], cfg, tmp_path)
        assert code == EXIT_OK

    def test_singular_t_is_clean_validation_error(self, tmp_path, capsys):
        cfg = {"moduli": [5], "cocycle_matrix": [[0]], "trials": 5}
        code, _ = run(["kasprzak-verify"], cfg, tmp_path)
        assert code == EXIT_VALIDATION
        assert "singular" in capsys.readouterr().err

    def test_golden_line(self, tmp_path):
        cfg = {"moduli": [7], "cocycle_matrix": [[3]], "trials": 20, "seed": 5}
        code, text = run(["kasprzak-verify"], cfg, tmp_path)
        assert code == EXIT_OK
        assert text == "trials=20 max_deviation=7.021666937153402e-16 tolerance=1e-10\n"

    @pytest.mark.parametrize("name", list(KASPRZAK_GOLDENS))
    def test_golden_line_per_block_regime(self, tmp_path, name):
        cfg, golden = KASPRZAK_GOLDENS[name]
        code, text = run(["kasprzak-verify"], cfg, tmp_path)
        assert code == EXIT_OK
        assert text == golden

    def test_boolean_trials_rejected(self, tmp_path, capsys):
        cfg = {"moduli": [5], "cocycle_matrix": [[1]], "trials": True}
        code, _ = run(["kasprzak-verify"], cfg, tmp_path)
        assert code == EXIT_VALIDATION
        assert "error: input.trials:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, seed, field",
        [
            (["--tolerance", "nan"], 0, "--tolerance"),
            (["--tolerance", "inf"], 0, "--tolerance"),
            (["--tolerance=-0.5"], 0, "--tolerance"),
            ([], "x", "input.seed"),
            ([], 1.5, "input.seed"),
            ([], -1, "input.seed"),
            ([], True, "input.seed"),
            (["--seed", "-1"], 0, "--seed"),
        ],
    )
    def test_bad_seed_or_tolerance_named(self, tmp_path, capsys, flags, seed, field):
        cfg = {"moduli": [5], "cocycle_matrix": [[1]], "trials": 2, "seed": seed}
        code, text = run(["kasprzak-verify"] + flags, cfg, tmp_path)
        assert code == EXIT_VALIDATION
        assert text == ""
        assert f"error: {field}:" in capsys.readouterr().err


class TestHeisenbergCommand:
    def test_phase_rows(self, tmp_path):
        cfg = {"grid_size": 4, "hbar": 1.0}
        code, text = run(["heisenberg"], cfg, tmp_path)
        assert code == EXIT_OK
        lines = text.strip().split("\n")
        assert lines[0] == "y,phase_re,phase_im"
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(1.0)
        assert float(first[2]) == pytest.approx(0.0)
        half = [line for line in lines[1:] if line.startswith("0.5,")][0]
        assert float(half.split(",")[1]) == pytest.approx(-1.0)

    def test_zero_grid_rejected(self, tmp_path):
        code, _ = run(["heisenberg"], {"grid_size": 0, "hbar": 1.0}, tmp_path)
        assert code == EXIT_VALIDATION

    def test_golden_bytes(self, tmp_path):
        _, text = run(["heisenberg"], {"grid_size": 7, "hbar": 0.37}, tmp_path)
        assert text == HEISENBERG_7
        _, text = run(["heisenberg"], {"grid_size": 32, "hbar": 1.0}, tmp_path)
        assert hashlib.md5(text.encode()).hexdigest() == "9400ba5cc0192e6ac88dc00fab17d086"


class TestNormCommand:
    def test_constant_element_flat_column(self, tmp_path):
        cfg = {
            "element": element_to_doc(FourierElement.delta(LATTICE2.point(0, 0), 2.0)),
            "form": [[0.0, 1.0], [-1.0, 0.0]],
            "hbar": 0.5,
            "windows": [2, 4, 6],
        }
        code, text = run(["norm"], cfg, tmp_path)
        assert code == EXIT_OK
        lines = text.strip().split("\n")
        assert lines[0] == "window,estimate"
        for line in lines[1:]:
            assert float(line.split(",")[1]) == pytest.approx(2.0)

    def test_cos_oracle_approaches_two(self, tmp_path):
        ctx1 = GroupContext.lattice(1)
        a = FourierElement(ctx1, {ctx1.point(1): 1.0, ctx1.point(-1): 1.0})
        cfg = {
            "element": element_to_doc(a),
            "form": [[0.0]],
            "hbar": 0.0,
            "windows": [4, 16, 64],
        }
        code, text = run(["norm"], cfg, tmp_path)
        assert code == EXIT_OK
        last = float(text.strip().split("\n")[-1].split(",")[1])
        assert abs(last - 2.0) <= 1e-3

    def test_shift_pair_beyond_dense_limit_exits_0(self, tmp_path):
        # Lanczos on a degenerate top value at W = 16 and 17; the compression
        # has top singular value 2 cos(pi/(4W+2))
        cfg = {
            "element": lattice2_doc(([1, 0], "1.0", "0.0"), ([0, 1], "1.0", "0.0")),
            "form": [[0.0, 0.0], [0.0, 0.0]],
            "windows": [8, 16, 17],
        }
        code, text = run(["norm"], cfg, tmp_path)
        assert code == EXIT_OK
        lines = text.strip().split("\n")
        assert lines[:3] == ["window,estimate", "8,1.9914683525900694", "16,1.9977346783660161"]
        rows = [line.split(",") for line in lines[1:]]
        assert [int(w) for w, _ in rows] == [8, 16, 17]
        for w, estimate in rows:
            exact = 2.0 * np.cos(np.pi / (4 * int(w) + 2))
            assert abs(float(estimate) - exact) <= 1e-15 * exact

    @pytest.mark.parametrize(
        "re, im",
        [
            ("0.39512206018200824", "0.42986369482223"),
            ("395122.06018200824", "429863.69482223"),
            ("395122060182.00824", "429863694822.23"),
        ],
        ids=["scale-1", "scale-1e6", "scale-1e12"],
    )
    def test_one_term_repeat_across_dense_limit_exits_0(self, tmp_path, re, im):
        # both rows are clamped to |c|, a repeat at every scale (the absolute
        # 1e-12 guard once refused a one-ulp repeat at 1e6)
        cfg = {
            "element": lattice2_doc(([-1, 1], re, im)),
            "form": [[0.0, 1.0], [-1.0, 0.0]],
            "hbar": 0.3,
            "windows": [8, 9],
        }
        code, text = run(["norm"], cfg, tmp_path)
        assert code == EXIT_OK
        rows = [line.split(",") for line in text.strip().split("\n")]
        assert [w for w, _ in rows] == ["window", "8", "9"]
        modulus = abs(complex(float(re), float(im)))
        assert float(rows[1][1]) == float(rows[2][1]) == modulus

    def test_window_too_small_is_validation_error(self, tmp_path):
        ctx1 = GroupContext.lattice(1)
        a = FourierElement(ctx1, {ctx1.point(3): 1.0})
        cfg = {
            "element": element_to_doc(a),
            "form": [[0.0]],
            "windows": [1],
        }
        code, _ = run(["norm"], cfg, tmp_path)
        assert code == EXIT_VALIDATION

    def test_monotonicity_violation_exits_3(self, tmp_path, monkeypatch):
        import startwist.norms as norms_mod

        calls = {"n": 0}

        def broken(a, sigma, window):
            calls["n"] += 1
            return 2.0 if calls["n"] == 1 else 1.0

        monkeypatch.setattr(norms_mod, "op_norm_estimate", broken)
        cfg = {
            "element": element_to_doc(FourierElement.delta(LATTICE2.point(0, 0))),
            "form": [[0.0, 0.0], [0.0, 0.0]],
            "windows": [2, 4],
        }
        code, _ = run(["norm"], cfg, tmp_path)
        assert code == EXIT_NUMERIC

    def test_out_of_range_coordinate_named(self, tmp_path, capsys):
        cfg = _set(NORM_CONFIG, COEFF0 + ("coords",), [4294967296, 0])
        code, text = run(["norm"], cfg, tmp_path)
        assert code == EXIT_VALIDATION and text == ""
        assert capsys.readouterr().err == (
            "error: input.element.coefficients: "
            "lattice coordinates must stay below 2**31 in magnitude\n"
        )

    def test_linalg_failure_exits_3(self, tmp_path, monkeypatch):
        # raised inside the block that reads input.windows, yet not a rejected value
        import startwist.norms as norms_mod

        def broken(a, sigma, window):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(norms_mod, "op_norm_estimate", broken)
        cfg = {
            "element": element_to_doc(FourierElement.delta(LATTICE2.point(0, 0))),
            "form": [[0.0, 0.0], [0.0, 0.0]],
            "windows": [2],
        }
        code, _ = run(["norm"], cfg, tmp_path)
        assert code == EXIT_NUMERIC


class TestAutomorphySolveCommand:
    def test_obstructed_instance(self, tmp_path):
        mul = [[0, 1], [1, 0]]
        act = [[0], [0]]
        tau = [[[0], [0]], [[0], [2]]]  # exponents mod 4; tau(g,g) = -1
        cfg = {"group_table": mul, "action": act, "tau_exponents": tau, "modulus": 4}
        code, text = run(["automorphy-solve"], cfg, tmp_path)
        assert code == EXIT_OK
        doc = json.loads(text)
        assert doc["solvable"] is True

    def test_unsolvable_reports_and_exits_2(self, tmp_path):
        mul = [[0, 1], [1, 0]]
        act = [[0], [0]]
        tau = [[[0], [0]], [[0], [1]]]  # tau(g,g) = -1 over Z/2
        cfg = {"group_table": mul, "action": act, "tau_exponents": tau, "modulus": 2}
        code, text = run(["automorphy-solve"], cfg, tmp_path)
        assert code == EXIT_TOLERANCE
        assert json.loads(text) == {"solvable": False}

    @pytest.mark.parametrize(
        "field, value",
        [
            ("group_table", [[0, 1.7], [1.2, 0]]),
            ("action", [[0], [0.5]]),
            ("tau_exponents", [[[0], [0]], [[0], [0.6]]]),
            ("modulus", 0),
            ("modulus", 2**40),
        ],
    )
    def test_bad_input_named(self, tmp_path, capsys, field, value):
        cfg = {
            "group_table": [[0, 1], [1, 0]],
            "action": [[0], [0]],
            "tau_exponents": [[[0], [0]], [[0], [0]]],
            "modulus": 2,
        }
        cfg[field] = value
        code, _ = run(["automorphy-solve"], cfg, tmp_path)
        assert code == EXIT_VALIDATION
        named = "input.group_table" if field == "action" else f"input.{field}"
        assert capsys.readouterr().err.startswith(f"error: {named}:")

    @pytest.mark.parametrize(
        "order, n_points, line",
        [
            (129, 1, "input.group_table: group tables of order**2 * max(order, points) = "
             f"{129**3} entries, above the limit of {2**21}"),
            (2, 600, "input.tau_exponents: coboundary forms and system of "
             f"{3 * 600 * 601} entries, above the limit of {2**20}"),
        ],
        ids=["group_table", "system"],
    )
    def test_size_limits_named(self, tmp_path, capsys, order, n_points, line):
        g = np.arange(order)
        cfg = {
            "group_table": ((g[:, None] + g) % order).tolist(),
            "action": [list(range(n_points))] * order,
            "tau_exponents": np.zeros((order, order, n_points), dtype=int).tolist(),
            "modulus": 2,
        }
        code, text = run(["automorphy-solve"], cfg, tmp_path)
        assert (code, text) == (EXIT_VALIDATION, "")
        assert capsys.readouterr().err == f"error: {line}\n"

    def test_integer_valued_floats_accepted(self, tmp_path):
        cfg = {
            "group_table": [[0.0, 1.0], [1.0, 0.0]],
            "action": [[0.0], [0.0]],
            "tau_exponents": [[[0.0], [0.0]], [[0.0], [2.0]]],
            "modulus": 4,
        }
        code, text = run(["automorphy-solve"], cfg, tmp_path)
        assert code == EXIT_OK
        assert json.loads(text)["solvable"] is True


class TestSuiteCommand:
    def test_subset_runs_and_passes(self, tmp_path):
        code, text = run(
            ["suite", "--only", "delta-relation", "--only", "automorphy"],
            {},
            tmp_path,
        )
        assert code == EXIT_OK
        lines = text.strip().split("\n")
        assert lines[0].startswith("PASS delta-relation")
        assert lines[1].startswith("PASS automorphy")
        summary = json.loads(lines[-1])
        assert summary == {"total": 2, "passed": 2, "failed": 0}

    def test_unknown_criterion_rejected(self, tmp_path, capsys):
        code, _ = run(["suite", "--only", "nonsense"], {}, tmp_path)
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: --only: unknown criteria: nonsense\n"

    def test_raising_criterion_is_numeric_failure(self, tmp_path, monkeypatch, capsys):
        # NaN products make semiclassical-limit's window estimate raise LinAlgError,
        # which is a numeric failure, not a rejected --only value
        import startwist.deform as deform_mod

        convolve = deform_mod._convolve

        def nan_convolve(pairs, weight):
            return [
                FourierElement.from_arrays(out.context, out.coords, out.values * np.nan)
                for out in convolve(pairs, weight)
            ]

        monkeypatch.setattr(deform_mod, "_convolve", nan_convolve)
        code, _ = run(["suite", "--only", "semiclassical-limit"], {}, tmp_path)
        assert code == EXIT_NUMERIC
        assert capsys.readouterr().err.startswith("numeric failure:")

    def test_full_suite_text(self, tmp_path):
        code, text = run(["suite"], {}, tmp_path)
        assert code == EXIT_OK
        assert text == SUITE_TEXT

    def test_deterministic_byte_identical(self, tmp_path):
        _, first = run(["suite", "--only", "involution"], {}, tmp_path, "a.json")
        _, second = run(["suite", "--only", "involution"], {}, tmp_path, "b.json")
        assert first == second


class TestGoldenOutputs:
    @pytest.mark.parametrize(
        "command, config, digest",
        [
            ("star", STAR_CONFIG, "9d53111b6107f24dea79354352bcef14"),
            ("star", STAR_FINITE_CONFIG, "5addda7d760465fcbf152056f8ecd45e"),
            ("automorphy-solve", AUTOMORPHY_CONFIG, "1cc08356289e6c7d381e5863a2cfad63"),
        ],
        ids=["star-lattice", "star-finite", "automorphy-solve"],
    )
    def test_json_bytes(self, tmp_path, command, config, digest):
        code, text = run([command], config, tmp_path)
        assert code == EXIT_OK
        assert hashlib.md5(text.encode()).hexdigest() == digest

    def test_semiclassical_bytes(self, tmp_path):
        code, text = run(["semiclassical"], SEMICLASSICAL_CONFIG, tmp_path)
        assert code == EXIT_OK
        assert text == SEMICLASSICAL_TEXT

    def test_norm_bytes(self, tmp_path):
        code, text = run(["norm"], NORM_CONFIG, tmp_path)
        assert code == EXIT_OK
        assert text == NORM_TEXT


def _set(config, keys, value):
    config = copy.deepcopy(config)
    target = config
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return config


NAN, INF = float("nan"), float("inf")
COEFF0 = ("element", "coefficients", 0)

# (command, valid config, keys of the field to replace, bad value, path named)
BAD_FIELDS = [
    ("heisenberg", HEISENBERG_CONFIG, ("grid_size",), True, "input.grid_size"),
    ("heisenberg", HEISENBERG_CONFIG, ("grid_size",), 2.0, "input.grid_size"),
    ("heisenberg", HEISENBERG_CONFIG, ("grid_size",), 2**16 + 1, "input.grid_size"),
    ("heisenberg", HEISENBERG_CONFIG, ("hbar",), NAN, "input.hbar"),
    ("heisenberg", HEISENBERG_CONFIG, ("hbar",), INF, "input.hbar"),
    ("heisenberg", HEISENBERG_CONFIG, ("hbar",), True, "input.hbar"),
    ("heisenberg", HEISENBERG_CONFIG, ("hbar",), 10**400, "input.hbar"),
    ("star", STAR_CONFIG, ("a", "context", "rank"), True, "input.a.context.rank"),
    ("star", STAR_CONFIG, ("a", "coefficients", 0, "coords"), [True, 0],
     "input.a.coefficients[0].coords[0]"),
    ("star", STAR_CONFIG, ("cocycle", "hbar"), NAN, "input.cocycle.hbar"),
    ("star", STAR_CONFIG, ("cocycle", "exponent", 0), [0.0, True],
     "input.cocycle.matrix[0][1]"),
    ("star", STAR_FINITE_CONFIG, ("a", "context", "moduli"), [5, True],
     "input.a.context.moduli[1]"),
    ("star", STAR_FINITE_CONFIG, ("cocycle", "matrix", 1), [2, 0.5],
     "input.cocycle.matrix[1][1]"),
    ("semiclassical", SEMICLASSICAL_CONFIG, ("form", 0, 1), True, "input.form[0][1]"),
    ("semiclassical", SEMICLASSICAL_CONFIG, ("form", 1, 0), NAN, "input.form[1][0]"),
    ("semiclassical", SEMICLASSICAL_CONFIG, ("hbar_list",), [0.1, NAN], "input.hbar_list[1]"),
    ("semiclassical", SEMICLASSICAL_CONFIG, ("hbar_list",), [0.1, 0], "input.hbar_list"),
    ("semiclassical", SEMICLASSICAL_CONFIG, ("hbar_list",), [], "input.hbar_list"),
    ("semiclassical", SEMICLASSICAL_CONFIG, ("window",), True, "input.window"),
    ("semiclassical", SEMICLASSICAL_CONFIG, ("window",), 100_000, "input.window"),
    ("norm", NORM_CONFIG, ("windows",), [True], "input.windows[0]"),
    ("norm", NORM_CONFIG, ("windows",), [2, 100_000], "input.windows"),
    ("norm", NORM_CONFIG, ("hbar",), True, "input.hbar"),
    ("norm", NORM_CONFIG, ("form", 0, 1), True, "input.form[0][1]"),
    ("norm", NORM_CONFIG, COEFF0 + ("re",), "nan", "input.element.coefficients[0]"),
    ("norm", NORM_CONFIG, COEFF0 + ("im",), "inf", "input.element.coefficients[0]"),
    ("norm", NORM_CONFIG, COEFF0 + ("re",), "1e999", "input.element.coefficients[0]"),
    ("norm", NORM_CONFIG, COEFF0 + ("coords",), [2**31, 0], "input.element.coefficients"),
    ("norm", NORM_CONFIG, COEFF0 + ("coords",), [0, 2**63], "input.element.coefficients"),
    ("norm", NORM_CONFIG, COEFF0 + ("coords",), [-(2**70), 0], "input.element.coefficients"),
    ("star", STAR_FINITE_CONFIG, ("a", "coefficients", 1, "coords"), [2**70, 0],
     "input.a.coefficients"),
    ("kasprzak-verify", KASPRZAK_CONFIG, ("moduli",), [True], "input.moduli[0]"),
    ("kasprzak-verify", KASPRZAK_CONFIG, ("cocycle_matrix",), [[True]],
     "input.cocycle_matrix[0][0]"),
    ("kasprzak-verify", KASPRZAK_CONFIG, ("cocycle_matrix",), [[10**30]],
     "input.cocycle_matrix"),
    ("kasprzak-verify", KASPRZAK_CONFIG, ("e_matrix",), [[1.5]], "input.e_matrix[0][0]"),
    ("kasprzak-verify", KASPRZAK_CONFIG, ("e_matrix",), [[5]], "input.e_matrix"),
    ("kasprzak-verify", KASPRZAK_CONFIG, ("trials",), 0, "input.trials"),
    ("automorphy-solve", AUTOMORPHY_CONFIG, ("modulus",), True, "input.modulus"),
    ("automorphy-solve", AUTOMORPHY_CONFIG, ("modulus",), 4.0, "input.modulus"),
    ("automorphy-solve", AUTOMORPHY_CONFIG, ("modulus",), 2**31, "input.modulus"),
    ("kasprzak-verify", KASPRZAK_CONFIG, ("moduli",), [100_003], "input.moduli"),
    ("automorphy-solve", AUTOMORPHY_CONFIG, ("tau_exponents", 1, 1), [None],
     "input.tau_exponents[1][1][0]"),
    ("automorphy-solve", AUTOMORPHY_CONFIG, ("tau_exponents", 1, 1), [True],
     "input.tau_exponents[1][1][0]"),
    ("automorphy-solve", AUTOMORPHY_CONFIG, ("tau_exponents", 1), [[0]],
     "input.tau_exponents[1]"),
    ("automorphy-solve", AUTOMORPHY_CONFIG, ("group_table",), [[0, True], [True, 0]],
     "input.group_table[0][1]"),
    ("automorphy-solve", AUTOMORPHY_CONFIG, ("group_table", 1), [1], "input.group_table[1]"),
    ("automorphy-solve", AUTOMORPHY_CONFIG, ("action", 1), ["0"], "input.action[1][0]"),
]


class TestBadFields:
    @pytest.mark.parametrize(
        "command, config, keys, value, path",
        BAD_FIELDS,
        ids=[f"{c[0]}:{c[4]}={c[3]!r}"[:60] for c in BAD_FIELDS],
    )
    def test_rejected_by_path(self, tmp_path, capsys, command, config, keys, value, path):
        code, text = run([command], _set(config, keys, value), tmp_path)
        assert code == EXIT_VALIDATION
        assert text == ""
        assert not (tmp_path / "out.txt").exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, config, keys, line",
        [
            ("automorphy-solve", AUTOMORPHY_CONFIG, ("tau_exponents", 1, 1, 0),
             "error: input.tau_exponents: tau exponents must fit in int64"),
            ("automorphy-solve", AUTOMORPHY_CONFIG, ("group_table", 1, 1),
             "error: input.group_table: multiplication table must fit in int64"),
            ("kasprzak-verify", KASPRZAK_CONFIG, ("cocycle_matrix", 0, 0),
             "error: input.cocycle_matrix: exponent matrix must fit in int64"),
        ],
        ids=["tau_exponents", "group_table", "cocycle_matrix"],
    )
    def test_integer_beyond_int64_named(self, tmp_path, capsys, command, config, keys, line):
        # the table's own name, not the cast's "Python int too large to convert to C long"
        code, text = run([command], _set(config, keys, 2**70), tmp_path)
        assert (code, text) == (EXIT_VALIDATION, "")
        assert capsys.readouterr().err == line + "\n"

    def test_base_configs_are_valid(self, tmp_path):
        for command, config, *_ in BAD_FIELDS:
            assert run([command], config, tmp_path)[0] == EXIT_OK, command

    def test_huge_window_rejected_fast(self, tmp_path):
        start = time.perf_counter()
        code, _ = run(["norm"], _set(NORM_CONFIG, ("windows",), [100_000]), tmp_path)
        assert code == EXIT_VALIDATION
        assert time.perf_counter() - start < 1.0

    def test_huge_grid_rejected_fast(self, tmp_path, capsys):
        start = time.perf_counter()
        code, _ = run(["heisenberg"], _set(HEISENBERG_CONFIG, ("grid_size",), 10**8), tmp_path)
        assert code == EXIT_VALIDATION
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err == "error: input.grid_size: 100000000 samples, above the limit of 65536\n"

    def test_oversized_crossed_model_rejected_fast(self, tmp_path):
        start = time.perf_counter()
        code, _ = run(["kasprzak-verify"], _set(KASPRZAK_CONFIG, ("moduli",), [100_003]), tmp_path)
        assert code == EXIT_VALIDATION
        assert time.perf_counter() - start < 1.0

    def test_missing_input_named(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["heisenberg", "--input", str(missing)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: --input:") and "Traceback" not in err

    def test_unwritable_output_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(HEISENBERG_CONFIG))
        out = tmp_path / "no-such-dir" / "out.csv"
        assert main(["heisenberg", "--input", str(cfg), "--output", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: --output:") and "Traceback" not in err

    def test_suite_reads_no_config(self, tmp_path, monkeypatch):
        class NoStdin(io.StringIO):
            def read(self, *args):
                raise AssertionError("suite read stdin")

        monkeypatch.setattr("sys.stdin", NoStdin())
        out = tmp_path / "out.txt"
        assert main(["suite", "--only", "delta-relation", "--output", str(out)]) == EXIT_OK
        assert out.read_text().startswith("PASS delta-relation")


# at hbar = 1e308 the lattice and circle phases overflow to NaN
NONFINITE_CONFIGS = {
    "heisenberg": {"grid_size": 4, "hbar": 1e308},
    "norm": {
        "element": lattice2_doc(([1, 0], "1.0", "0.0"), ([0, 1], "1.0", "0.0")),
        "form": [[0.0, 1.0], [-1.0, 0.0]],
        "hbar": 1e308,
        "windows": [2, 3],
    },
    "star": _set(STAR_CONFIG, ("cocycle", "hbar"), 1e308),
}


class TestNonFiniteResults:
    @pytest.mark.parametrize("action", ["error", "ignore"])
    @pytest.mark.parametrize("command", NONFINITE_CONFIGS)
    def test_exits_3_without_output(self, tmp_path, capsys, command, action):
        with warnings.catch_warnings():
            warnings.simplefilter(action)  # as PYTHONWARNINGS would set it
            code, text = run([command], NONFINITE_CONFIGS[command], tmp_path)
        assert code == EXIT_NUMERIC
        assert text == "" and not (tmp_path / "out.txt").exists()
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and err.count("\n") == 1


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [["suite", "--bogus"], [], ["heisenberg", "--seed", "1"]],
        ids=["unknown-flag", "no-subcommand", "seed-outside-kasprzak"],
    )
    def test_usage_error_exits_1(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_VALIDATION


class TestDeterminism:
    def test_kasprzak_reruns_byte_identical(self, tmp_path):
        cfg = {"moduli": [5], "cocycle_matrix": [[2]], "trials": 5, "seed": 7}
        _, first = run(["kasprzak-verify"], cfg, tmp_path, "a.json")
        _, second = run(["kasprzak-verify"], cfg, tmp_path, "b.json")
        assert first == second

    def test_csv_line_endings(self, tmp_path):
        cfg = {"grid_size": 3, "hbar": 0.5}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out.csv"
        assert main(["heisenberg", "--input", str(path), "--output", str(out)]) == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
