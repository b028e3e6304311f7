import multiprocessing

import pytest


@pytest.fixture
def no_pool(monkeypatch):
    """Swap the fork `Pool` for one that fails when constructed, so that the
    test starts no worker process whatever the code under test attempts."""

    def refuse(*args, **kwargs):
        raise AssertionError(f"a worker pool was started: {args} {kwargs}")

    monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool", refuse)
