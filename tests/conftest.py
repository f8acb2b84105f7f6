"""Hypothesis profiles and shared targets.  ``HYPOTHESIS_PROFILE=ci``
derandomizes every property, so a CI run draws the same examples each
time and cannot flake."""

import os

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def no_lp(monkeypatch):
    """Make any LP that bellsim.signaling solves fail the test."""
    import bellsim.signaling

    def fail(*args, **kwargs):
        raise AssertionError("an LP ran")

    monkeypatch.setattr(bellsim.signaling, "linprog", fail)


@pytest.fixture
def lp_needing_target():
    """(amplitudes as [re, im] pairs, angles) of a random state at (2, 2, 2)
    settings that no spectator-outcome model fits with the pair (1, 2)
    cut, so its witness comes from the centred LP (t* = 0.0158)."""
    amplitudes = [
        [-0.07314445433961346, -0.18995636372550412],
        [0.23869217563415976, -0.36839359699056334],
        [-0.24570535306826552, -0.03047419048108368],
        [0.07588782752701248, -0.19611797529562847],
        [0.2647821283257598, 0.01183230000408141],
        [-0.01565477934645971, -0.2846979037556557],
        [0.09461880765464463, -0.074354697774202],
        [-0.306769097907384, 0.6326306075877763],
    ]
    angles = [
        [5.746325576544188, 1.9258299530013374],
        [4.61699683692408, 4.72433274254885],
        [0.7549597136921934, 3.523372913500048],
    ]
    return amplitudes, angles
