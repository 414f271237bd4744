"""One hypothesis profile for the whole suite: every property test draws the
same examples on every run, and none fails on a slow example."""

from hypothesis import settings

settings.register_profile("moduliq", derandomize=True, deadline=None)
settings.load_profile("moduliq")
