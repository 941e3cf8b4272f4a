import pytest

from sdoflab import simulate


@pytest.fixture
def uncapped_workers(monkeypatch):
    """Report 64 usable CPUs to ``sweep``, which caps its worker threads at ``usable_cpus()``.

    A test that passes ``threads > 1`` then runs the worker count, and so the
    chunking, that it names on any host.
    """
    monkeypatch.setattr(simulate, "usable_cpus", lambda: 64)
