"""Runs every acceptance criterion at its pinned tolerance.

Each test prints the criterion's pass/fail line so a verbose run doubles as
the acceptance report.  A mutation control at the bottom checks that the
battery actually has teeth.
"""

import math

import numpy as np
import pytest

import startwist.crossed
import startwist.deform
import startwist.norms
from startwist.abelian import GroupContext
from startwist.acceptance import CRITERIA, _random_elements
from startwist.cocycles import Bicharacter, LinearMap, sigma_one
from startwist.deform import FourierElement


@pytest.mark.parametrize("name", list(CRITERIA))
def test_criterion(monkeypatch, name):
    # every window estimate a criterion takes must match the dense SVD of
    # its window matrix, the independent route to the same value
    calls = []
    estimate = startwist.norms.op_norm_estimate

    def spy(a, sigma, window):
        calls.append((a, sigma, window, estimate(a, sigma, window)))
        return calls[-1][-1]

    monkeypatch.setattr(startwist.norms, "op_norm_estimate", spy)
    result = CRITERIA[name]()
    print(result.line())
    assert result.passed, result.detail
    for a, sigma, window, est in calls:
        mat = startwist.norms.left_mult_matrix(a, sigma, window)
        dense = np.linalg.svd(mat, compute_uv=False)[0] if a.values.size else 0.0
        assert abs(est - dense) <= 1e-12 * dense, (a, window)


def spy_collect(monkeypatch) -> list:
    """Record the (coords, values, counts) of every ``deform._collect`` call."""
    calls = []
    collect = startwist.deform._collect

    def spy(ctx, coords, values, counts=None):
        calls.append((coords.copy(), values.copy(), None if counts is None else list(counts)))
        return collect(ctx, coords, values, counts)

    monkeypatch.setattr(startwist.deform, "_collect", spy)
    return calls


DRAW_CONTEXTS = [
    (GroupContext.lattice(2), 9, 3),
    (GroupContext.finite(5), 5, 5),
    (GroupContext.finite([3, 4]), 7, 4),
]


@pytest.mark.parametrize("ctx, max_support, box", DRAW_CONTEXTS)
def test_random_elements_are_from_arrays_of_their_rows(monkeypatch, ctx, max_support, box):
    calls = spy_collect(monkeypatch)
    elements = _random_elements(ctx, np.random.default_rng(3), 200, max_support, box)
    ((coords, values, counts),) = calls
    monkeypatch.undo()
    bounds = np.cumsum([0, *counts])
    assert len(elements) == len(counts) == 200
    for element, lo, hi in zip(elements, bounds, bounds[1:]):
        alone = FourierElement.from_arrays(ctx, coords[lo:hi], values[lo:hi])
        assert element == alone
        assert element.values.tobytes() == alone.values.tobytes()


@pytest.mark.parametrize("ctx, max_support, box", DRAW_CONTEXTS)
def test_random_elements_ranges(monkeypatch, ctx, max_support, box):
    calls = spy_collect(monkeypatch)
    elements = _random_elements(ctx, np.random.default_rng(4), 200, max_support, box)
    ((coords, values, counts),) = calls
    # the row counts span [1, max_support], both ends included
    assert set(counts) == set(range(1, max_support + 1))
    assert len(coords) == sum(counts)
    assert (np.abs(coords) <= box).all()
    assert (np.abs(values) <= 1.0).all()
    for element, size in zip(elements, counts):
        assert 1 <= len(element.values) <= size
        if ctx.is_finite:
            assert ((0 <= element.coords) & (element.coords < np.array(ctx.moduli))).all()
        else:
            assert (np.abs(element.coords) <= box).all()


def test_random_elements_never_merge(monkeypatch):
    ctx = GroupContext.lattice(2)
    # every row of every member lands on the origin
    singles = _random_elements(ctx, np.random.default_rng(5), 30, max_support=1, box=0)
    assert [e.coords.tolist() for e in singles] == [[[0, 0]]] * 30
    calls = spy_collect(monkeypatch)
    stacked = _random_elements(ctx, np.random.default_rng(6), 30, max_support=4, box=0)
    ((_, values, counts),) = calls
    bounds = np.cumsum([0, *counts])
    for element, lo, hi in zip(stacked, bounds, bounds[1:]):
        assert element.coords.tolist() == [[0, 0]]
        assert element.values[0] == pytest.approx(values[lo:hi].sum(), abs=1e-15)
    members = FourierElement._from_rows(ctx, [[0, 0]] * 4, [1.0, 2.0, 3.0, 4.0], [1, 1, 2])
    assert [e.values.tolist() for e in members] == [[1.0], [2.0], [7.0]]


def test_associativity_collect_calls(monkeypatch):
    # 5 cocycles x 10 batches, each one draw, four product batches and one
    # batch of distances; a per-element draw would add 1 500 calls
    calls = spy_collect(monkeypatch)
    assert CRITERIA["associativity"]().passed
    assert len(calls) == 300


def test_mutation_control_non_cocycle(monkeypatch):
    # a twist that is no longer a 2-cocycle must break associativity
    eval_many = Bicharacter.eval_many

    def skewed(self, x, y):
        bend = (x * x).sum(axis=-1) * (y * y).sum(axis=-1)
        return eval_many(self, x, y) * np.exp(0.3j * bend)

    monkeypatch.setattr(Bicharacter, "eval_many", skewed)
    result = CRITERIA["associativity"]()
    assert not result.passed
    assert result.value > result.tolerance


def test_mutation_control_semiclassical(monkeypatch):
    # a wrong convention constant must trip the semiclassical criterion
    monkeypatch.setattr(startwist.deform, "SEMICLASSICAL_SCALE", 1.0)
    result = CRITERIA["semiclassical-limit"]()
    assert not result.passed


def test_mutation_control_iterated(monkeypatch):
    # dropping sigma2 from the composed cocycle must show up against the
    # iterated route, which evaluates sigma1 and sigma2 on its own
    monkeypatch.setattr(startwist.deform, "compose_cocycles", lambda s1, s2: s1)
    result = CRITERIA["iterated-deformation"]()
    assert result.value > 1e-12
    assert not result.passed


def test_mutation_control_norm_closed_form(monkeypatch):
    # a rank-1 estimate off by 1e-10 keeps the sup gap, monotonicity and the
    # rank-2 delta estimates, so only the closed-form rows can catch it
    estimate = startwist.norms.op_norm_estimate

    def skewed(a, sigma, window):
        est = estimate(a, sigma, window)
        return est * (1.0 + 1e-10) if a.context.rank == 1 else est

    monkeypatch.setattr(startwist.norms, "op_norm_estimate", skewed)
    result = CRITERIA["norm-oracle"]()
    assert not result.passed
    assert result.value <= result.tolerance
    assert result.detail.endswith("delta estimates exactly 1: True")


def test_mutation_control_norm_dense_oracle(monkeypatch):
    # a multi-term rank-2 estimate off by 1e-10 keeps every printed value and
    # the delta and closed-form rows, so only the dense SVD route can catch it
    expected = CRITERIA["norm-oracle"]()
    estimate = startwist.norms.op_norm_estimate

    def skewed(a, sigma, window):
        est = estimate(a, sigma, window)
        return est * (1.0 + 1e-10) if a.context.rank == 2 and len(a.values) > 1 else est

    monkeypatch.setattr(startwist.norms, "op_norm_estimate", skewed)
    result = CRITERIA["norm-oracle"]()
    assert expected.passed and not result.passed
    assert result.detail == expected.detail


@pytest.mark.parametrize("offset, passes", [(2.0**-52, True), (1e-12, False)])
def test_norm_oracle_delta_rounding_allowance(monkeypatch, offset, passes):
    # a delta estimate one ulp above 1 is rounding and passes; 1e-12 above is not
    estimate = startwist.norms.op_norm_estimate

    def nudged(a, sigma, window):
        est = estimate(a, sigma, window)
        return est + offset if len(a.values) == 1 else est

    monkeypatch.setattr(startwist.norms, "op_norm_estimate", nudged)
    result = CRITERIA["norm-oracle"]()
    assert result.passed is passes
    assert result.detail.endswith(f"delta estimates exactly 1: {passes}")


def test_mutation_control_deformed_dual_action(monkeypatch):
    # a negated shift in the deformed dual action moves its average off the
    # spectral projection; the printed line does not show that route
    expected = CRITERIA["kasprzak-equivalence"]()

    def negated(sigma):
        return LinearMap(-sigma_one(sigma).matrix, sigma.context.uniform_modulus)

    monkeypatch.setattr(startwist.crossed, "sigma_one", negated)
    result = CRITERIA["kasprzak-equivalence"]()
    assert expected.passed and not result.passed
    assert result.detail == expected.detail


NAN_EXPOSED = [
    "delta-relation",
    "associativity",
    "involution",
    "iterated-deformation",
    "translation-automorphisms",
    "rieffel-duality",
    "c0x-linearity",
    "heisenberg-field",
    "non-principal-model",
]


@pytest.mark.parametrize("name", NAN_EXPOSED)
def test_mutation_control_nan_products(monkeypatch, name):
    # a product kernel that returns NaN coefficients must fail every criterion
    # built on it, rather than drop the NaN while folding the worst deviation;
    # the kernel takes a batch of pairs, so every member of it turns NaN
    convolve = startwist.deform._convolve

    def nan_convolve(pairs, weight):
        return [
            FourierElement.from_arrays(out.context, out.coords, out.values * np.nan)
            for out in convolve(pairs, weight)
        ]

    monkeypatch.setattr(startwist.deform, "_convolve", nan_convolve)
    result = CRITERIA[name]()
    assert not result.passed
    assert math.isnan(result.value)
    assert type(result.value) is float and type(result.passed) is bool
