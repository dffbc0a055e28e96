"""Shared test set-up: every hypothesis property test draws the same
examples on every run (derandomized) and has no per-example deadline, so
runs are deterministic and host speed cannot fail a test.  Each test still
sets its own ``max_examples``."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
