"""Shared fixtures for the simulator test suites.

The ``engine`` fixture parametrizes a test over every execution engine
(:data:`repro.sim.engine.ENGINES` — reference, fused)
so behavioural suites exercise each one without hand-rolled loops; a new
engine added to the registry is picked up by every migrated test
automatically.
"""

import pytest

from repro.sim.engine import ENGINES


@pytest.fixture(params=ENGINES)
def engine(request):
    """Each registered execution engine in turn."""
    return request.param
