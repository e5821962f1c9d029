import json

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


class TestNormCommand:
    def test_constant_element_flat_column(self, tmp_path):
        cfg = {
            "element": element_to_doc(FourierElement.delta(LATTICE2.zero(), 2.0)),
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
            "element": element_to_doc(FourierElement.delta(LATTICE2.zero())),
            "form": [[0.0, 0.0], [0.0, 0.0]],
            "windows": [2, 4],
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

    def test_unknown_criterion_rejected(self, tmp_path):
        code, _ = run(["suite", "--only", "nonsense"], {}, tmp_path)
        assert code == EXIT_VALIDATION

    def test_deterministic_byte_identical(self, tmp_path):
        _, first = run(["suite", "--only", "involution"], {}, tmp_path, "a.json")
        _, second = run(["suite", "--only", "involution"], {}, tmp_path, "b.json")
        assert first == second


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
