"""Runs every acceptance criterion at its pinned tolerance.

Each test prints the criterion's pass/fail line so a verbose run doubles as
the acceptance report.  A mutation control at the bottom checks that the
battery actually has teeth.
"""

import math

import numpy as np
import pytest

import startwist.deform
import startwist.norms
from startwist.acceptance import CRITERIA
from startwist.deform import FourierElement


@pytest.mark.parametrize("name", list(CRITERIA))
def test_criterion(monkeypatch, name):
    # every window in the battery holds at most 289 points, so the printed
    # norm values are dense SVDs and never come from Lanczos
    def no_iteration(*args):
        raise AssertionError("Lanczos started")

    monkeypatch.setattr(startwist.norms, "_lanczos_norm", no_iteration)
    result = CRITERIA[name]()
    print(result.line())
    assert result.passed, result.detail


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
