import os

import pytest

from sdoflab import simulate


@pytest.fixture
def uncapped_workers(monkeypatch):
    """Report 64 usable CPUs to ``sweep``, which caps its worker processes at ``usable_cpus()``.

    A test that passes ``threads > 1`` then runs the worker count, and so the
    chunking, that it names on any host.
    """
    monkeypatch.setattr(simulate, "usable_cpus", lambda: 64)


@pytest.fixture
def forks(monkeypatch):
    """The worker processes forked from now on, one entry each, as this process sees them."""
    forked = []
    real = os.fork

    def fork():
        forked.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forked


@pytest.fixture
def in_process(monkeypatch):
    """Run every share of ``simulate._in_workers`` in this process, where a test's recorders see it."""
    monkeypatch.setattr(simulate, "_can_fork", lambda: False)
