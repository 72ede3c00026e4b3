"""Shared test settings.

Every hypothesis property test runs under one derandomized profile: the
same 50 examples every run, so a tier-1 failure reproduces.
"""

from hypothesis import settings

settings.register_profile("srifkit", max_examples=50, deadline=None,
                          derandomize=True)
settings.load_profile("srifkit")
