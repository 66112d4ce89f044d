"""Hypothesis settings for the property tests, and three fixtures:

- `patch_everywhere(module, name, value)` replaces a library function in
  every module that imported it by name: use it to break or swap one;
- `record_calls(module, name)` wraps one the same way and returns the
  list of its calls: use it to count or inspect the work a call does;
- `child_env` is the environment of a child Python that imports this
  checkout: use it where only a fresh process shows the behaviour (under
  `python -O`, a closed stdout, a run that might not end).

Identical work can run 20-60% slower on a busy shared host, so no
example has a deadline.  A fixed example count keeps the property tests
to a few seconds of the suite.  The examples are 2-regular partitions of
100-2,000 boxes, where shrinking a failure takes minutes, so there is no
shrink phase (and no explain phase, which follows it): a failing test
reports the first failing example it drew, and its assertion message
names the case.
"""

import os
import sys
from pathlib import Path

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


@pytest.fixture
def record_calls(monkeypatch, patch_everywhere):
    """record(module, name) wraps `module.name` wherever patch_everywhere
    patches, or in `module` alone with everywhere=False, and returns the
    list of its calls' argument tuples, or with returns=True their results."""
    def record(module, name, everywhere=True, returns=False):
        calls, original = [], getattr(module, name)

        def recorded(*args):
            result = original(*args)
            calls.append(result if returns else args)
            return result

        (patch_everywhere if everywhere else monkeypatch.setattr)(
            module, name, recorded)
        return calls
    return record


@pytest.fixture
def child_env():
    """The environment for a child Python that imports kkcrystals from
    this checkout's `src` and writes UTF-8."""
    return dict(os.environ, PYTHONIOENCODING="utf-8",
                PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
