"""One hypothesis profile for the whole suite, so every run draws the same
examples: derandomized, without the per-example deadline, and without the
example database (a failure found on one machine does not replay on
another)."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")
