"""Fixtures shared across the tier-1 suite."""

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` spies on ``owner.name`` for the test
    and returns the list its calls' positional arguments are logged to."""

    def install(owner, name):
        real = getattr(owner, name)
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
        return calls

    return install
