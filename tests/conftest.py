import os

import pytest


def pytest_collection_modifyitems(config, items):
    if os.environ.get("PEAKALG_DEEP") == "1":
        return
    skip = pytest.mark.skip(reason="deep checks disabled (set PEAKALG_DEEP=1)")
    for item in items:
        if "deep" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def fresh_transform_rows():
    """Rebuild the cached transform rows, and the per-rank result of the
    increasing-class products read on them, around a test that alters maps."""
    from peakalg import hopf, mr

    hopf.transform_coords.cache_clear()
    mr.bstilde_failure.cache_clear()
    yield
    hopf.transform_coords.cache_clear()
    mr.bstilde_failure.cache_clear()
