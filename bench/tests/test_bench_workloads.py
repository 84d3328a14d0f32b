import pytest

from squarm import config
from workloads import DEFAULT_SEED, WORKLOADS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_resolves_with_its_recorded_warnings(name):
    workload = WORKLOADS[name]
    cfg, warnings = config.build_run_config(workload.flat(DEFAULT_SEED))
    assert tuple(warnings) == workload.warnings
    assert cfg.T == workload.T
    assert cfg.seed == DEFAULT_SEED
    assert cfg.accounting == "broadcast"
    assert not cfg.parallel


def test_seed_reaches_the_config_and_nothing_else():
    workload = WORKLOADS["paper_ring"]
    a, b = workload.flat(1), workload.flat(2)
    assert (a.pop("seed"), b.pop("seed")) == (1, 2)
    assert a == b

