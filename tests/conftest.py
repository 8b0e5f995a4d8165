import gc

import pytest


@pytest.fixture(autouse=True)
def collector_stays_on():
    """Fail a test after which the cyclic garbage collector is off though it
    was on before: a path that pauses it must restore it, also on an error."""
    enabled = gc.isenabled()
    yield
    if enabled and not gc.isenabled():
        gc.enable()
        pytest.fail("the garbage collector was left disabled")
