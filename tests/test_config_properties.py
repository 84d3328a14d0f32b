"""Property tests over squarm.config.KEYS: whatever a flat config holds, it
resolves or is refused with a ConfigError, and `squarm run` never ends in a
traceback."""

import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from squarm.cli import main
from squarm.config import KEYS, UNSET, build_run_config, merged
from squarm.errors import ConfigError

# sizes that allocate (n x n, d x d, n x samples x d and batch x d arrays) stay small
SIZES = {"topology.n": 6, "objective.d": 6, "objective.samples_per_node": 6, "objective.batch_size": 6}
JUNK = st.sampled_from(["abc", True, [1.0], {"a": 1}, math.inf, 10**400])


def bounds(interval):
    """"(0, 1]" as (0.0, 1.0, True, False): the bounds and whether each is open."""
    lo, hi = interval[1:-1].split(",")
    return float(lo), float(hi), interval[0] == "(", interval[-1] == ")"


def in_range(key, spec):
    if isinstance(spec.valid, tuple):
        return st.sampled_from(spec.valid)
    if spec.type is bool:
        return st.booleans()
    if spec.type is int:
        lo = int(bounds(spec.valid)[0])
        huge = [SIZES[key]] if key in SIZES else [2**64, 10**300]
        return st.integers(lo, SIZES.get(key, lo + 20)) | st.sampled_from(huge)
    if spec.type is float:
        lo, hi, lo_open, hi_open = bounds(spec.valid or "(-inf, inf)")
        return st.floats(
            lo if math.isfinite(lo) else None,
            hi if math.isfinite(hi) else None,
            exclude_min=lo_open and math.isfinite(lo),
            exclude_max=hi_open and math.isfinite(hi),
            allow_nan=False,
            allow_infinity=False,
        )
    if spec.type is str:  # objective.dataset_path
        return st.sampled_from(["", "missing-dataset.csv"])
    if key == "topology.edges":
        return st.lists(st.lists(st.integers(-1, 6), min_size=2, max_size=2), max_size=8)
    return st.lists(st.floats(-0.5, 1.5), max_size=8)


def out_of_range(spec):
    if isinstance(spec.valid, tuple):
        return st.just("bogus")
    if not spec.valid:
        return JUNK
    lo, hi, lo_open, hi_open = bounds(spec.valid)
    if spec.type is int:  # no count has an upper bound
        return st.integers(max_value=int(lo) - (not lo_open))
    outside = st.floats(max_value=lo, exclude_max=not lo_open, allow_nan=False)
    if math.isfinite(hi):
        outside |= st.floats(min_value=hi, exclude_min=not hi_open, allow_nan=False)
    return outside


def good(key, spec):
    return st.one_of(st.none(), in_range(key, spec)) if spec.default is UNSET else in_range(key, spec)


def bad(key):
    return st.tuples(st.just(key), st.one_of(out_of_range(KEYS[key]), JUNK))


# in-range values for any subset of the keys, and at most one value that is not
CONFIGS = st.builds(
    lambda layer, wrong: {**layer, **dict(wrong)},
    st.fixed_dictionaries({}, optional={key: good(key, spec) for key, spec in KEYS.items()}),
    st.lists(st.sampled_from(sorted(KEYS)).flatmap(bad), max_size=1),
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(CONFIGS)
def test_any_config_resolves_or_raises_config_error(layer):
    try:
        build_run_config(merged(layer))
    except ConfigError:
        pass


@settings(max_examples=150, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(CONFIGS, st.integers(1, 4))
def test_any_run_argv_exits_0_1_or_2(tmp_path, layer, T):
    # in process, an exception escaping main is what prints a traceback
    flags = [f"--{key}={json.dumps(v)}" for key, v in {**layer, "T": T}.items()]
    assert main(["run", "--out", str(tmp_path), *flags]) in (0, 1, 2)
