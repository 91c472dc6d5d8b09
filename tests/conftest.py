"""Suite-wide checks."""

import gc

import pytest


@pytest.fixture(autouse=True)
def collector_state_is_kept():
    """Fail a test that leaves the cyclic garbage collector on or off other
    than it found it, as an in-process ``main`` call or a helper could."""
    enabled = gc.isenabled()
    yield
    if gc.isenabled() is not enabled:
        (gc.enable if enabled else gc.disable)()
        pytest.fail(f"the test left the cyclic garbage collector "
                    f"{'off' if enabled else 'on'}", pytrace=False)
