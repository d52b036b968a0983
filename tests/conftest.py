import pytest
from hypothesis import settings

from briberysim import GameParams
from helpers import uniform_params

# every run of the suite draws the same examples, and none fails on timing
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def p3() -> GameParams:
    """Three-node reference fixture: powers 2/5, 7/20, 1/4 with t = 1/2."""
    return uniform_params(("2/5", "7/20", "1/4"), "1/2", 2, -1, 5, -3)
