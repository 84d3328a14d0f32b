import sys, pathlib

import pytest

from squarm import config

sys.path.insert(0, str(pathlib.Path(__file__).parent))


@pytest.fixture(autouse=True)
def fresh_setup_memos():
    """Each test starts with no graph and no objective held, so what it
    builds and counts does not depend on the tests run before it."""
    config._last_topology.clear()
    config._last_objective.clear()
