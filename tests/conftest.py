"""Hypothesis profiles.  ``HYPOTHESIS_PROFILE=ci`` derandomizes every
property, so a CI run draws the same examples each time and cannot flake."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
