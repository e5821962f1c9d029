"""Runs every acceptance criterion at its pinned tolerance.

Each test prints the criterion's pass/fail line so a verbose run doubles as
the acceptance report.  A mutation control at the bottom checks that the
battery actually has teeth.
"""

import pytest

import startwist.deform
from startwist.acceptance import CRITERIA


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
