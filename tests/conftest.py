import os

import pytest


@pytest.fixture(autouse=True)
def _forking_tests_are_marked(request, monkeypatch):
    """Fail a test that calls os.fork without the forks marker.

    CI's threaded-BLAS step selects the marker, so an unmarked pooled-sweep test would
    silently drop out of it.
    """
    if request.node.get_closest_marker("forks") is None:
        def fork():
            pytest.fail(f"{request.node.nodeid} calls os.fork but is not marked forks")

        monkeypatch.setattr(os, "fork", fork)
