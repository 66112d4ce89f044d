"""Hypothesis settings for the property tests, and a fixture that patches
a function in every module that imported it by name.

Identical work can run 20-60% slower on a busy shared host, so no
example has a deadline.  A fixed example count keeps the property tests
to a few seconds of the suite.  The examples are 2-regular partitions of
100-2,000 boxes, where shrinking a failure takes minutes, so there is no
shrink phase (and no explain phase, which follows it): a failing test
reports the first failing example it drew, and its assertion message
names the case.
"""

import sys

import pytest
from hypothesis import Phase, settings

settings.register_profile(
    "kkcrystals", deadline=None, max_examples=40,
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
settings.load_profile("kkcrystals")


@pytest.fixture
def patch_everywhere(monkeypatch):
    """patch(module, name, value) sets `name` to `value` in every
    `kkcrystals` module that binds the object `module.name` holds, so that
    a module that imported it by name gets the patch too."""
    def patch(module, name, value):
        original = getattr(module, name)
        for user_name, user in list(sys.modules.items()):
            if (user_name.split(".")[0] == "kkcrystals"
                    and getattr(user, name, None) is original):
                monkeypatch.setattr(user, name, value)
    return patch
