"""Shared test settings: one hypothesis profile for every property test."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # reproducible runs: the same examples every time, none kept on disk,
    # and no per-example deadline for the slower linear algebra
    settings.register_profile("unruh", derandomize=True, database=None, deadline=None)
    settings.load_profile("unruh")
