"""Hypothesis settings for the property tests.

Identical work can run 20-60% slower on a busy shared host, so no
example has a deadline.  A fixed example count keeps the property tests
to a few seconds of the suite.
"""

from hypothesis import settings

settings.register_profile("kkcrystals", deadline=None, max_examples=40)
settings.load_profile("kkcrystals")
