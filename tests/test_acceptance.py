"""Runs every acceptance criterion at its pinned tolerance.

Each test prints the criterion's pass/fail line so a verbose run doubles as
the acceptance report.  A mutation control at the bottom checks that the
battery actually has teeth.
"""

import math

import numpy as np
import pytest

import startwist.deform
from startwist.acceptance import CRITERIA
from startwist.deform import FourierElement


@pytest.mark.parametrize("name", list(CRITERIA))
def test_criterion(name):
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


NAN_EXPOSED = [
    "delta-relation",
    "associativity",
    "involution",
    "iterated-deformation",
    "translation-automorphisms",
    "c0x-linearity",
    "heisenberg-field",
]


@pytest.mark.parametrize("name", NAN_EXPOSED)
def test_mutation_control_nan_products(monkeypatch, name):
    # a product kernel that returns NaN coefficients must fail every criterion
    # built on it, rather than drop the NaN while folding the worst deviation
    convolve = startwist.deform._convolve

    def nan_convolve(a, b, weight):
        out = convolve(a, b, weight)
        return FourierElement.from_arrays(out.context, out.coords, out.values * np.nan)

    monkeypatch.setattr(startwist.deform, "_convolve", nan_convolve)
    result = CRITERIA[name]()
    assert not result.passed
    assert math.isnan(result.value)
    assert type(result.value) is float and type(result.passed) is bool
