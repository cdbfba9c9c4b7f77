"""Test-session setup: Hypothesis draws the same examples on every run.

``derandomize=True`` seeds each property test from its own source, and
``database=None`` neither replays nor stores examples from earlier runs, so
two checkouts of the same source run the same examples.  Hypothesis still
caches the literals it reads from the source under ``.hypothesis/``; that
cache is keyed by the source, not by earlier runs.  Each test keeps its own
``max_examples`` and ``deadline``.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
