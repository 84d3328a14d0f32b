"""squarm.config's library entry point and its set-up memos.

build_run_config lays any flat config over KEYS' defaults and refuses a key
not in KEYS, as merged does. A config reuses the graph the previous one
built while every topology key is unchanged, and the objective the previous
one built while the seed, the node count and every objective key are
unchanged; every config-built objective is read-only."""

import re

import numpy as np
import pytest

from squarm import config
from squarm.cli import main
from squarm.config import KEYS, build_run_config, merged
from squarm.engine import metrics_csv, run, summary_json
from squarm.errors import ConfigError

BASE = {"topology.n": 4, "objective.d": 6, "objective.samples_per_node": 5, "T": 10, "seed": 3}
SAMPLE_KINDS = ("least_squares", "least_squares_nonconvex", "logistic_l2")


def objective(**overrides):
    cfg, _ = build_run_config(merged(BASE, overrides))
    return cfg.objective


def arrays(obj):
    quad = [a for a in (obj.quad_a, obj.quad_b, obj.quad_const) if a is not None]
    return [*quad, *obj.feats, *obj.labels]


def as_bytes(obj):
    """Every field of obj, each array as its raw bytes."""
    fields = {name: value for name, value in vars(obj).items() if name not in ("feats", "labels")}
    fields = {name: v.tobytes() if isinstance(v, np.ndarray) else v for name, v in fields.items()}
    return fields, [a.tobytes() for a in obj.feats], [a.tobytes() for a in obj.labels]


def write_dataset(path, seed):
    data = np.random.default_rng(seed).standard_normal((12, 4))
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in data) + "\n")


class TestBuildRunConfig:
    def test_an_unknown_key_is_refused(self):
        with pytest.raises(ConfigError, match=re.escape("unknown config key 'bogus.key'")):
            build_run_config(merged() | {"bogus.key": 3})

    def test_a_partial_config_takes_the_defaults(self):
        partial = {"topology.n": 4, "T": 30, "seed": 2}
        outputs = []
        for flat in (partial, merged(partial)):
            result = run(build_run_config(flat)[0])
            outputs.append((metrics_csv(result), summary_json(result)))
        assert outputs[0] == outputs[1]


class TestObjectiveMemo:
    def test_an_equal_key_returns_the_same_object(self):
        first = objective()
        assert objective() is first
        # keys outside the objective's do not go into the memo's key
        assert objective(T=20, H=5, x0_scale=1.0, **{"compressor.kind": "top_k", "compressor.k": 2}) is first

    @pytest.mark.parametrize("kind", ["quadratic", *SAMPLE_KINDS])
    def test_a_hit_is_bitwise_a_fresh_build(self, kind):
        hit = objective(**{"objective.kind": kind})
        assert objective(**{"objective.kind": kind}) is hit
        config._last_objective.clear()
        fresh = objective(**{"objective.kind": kind})
        assert fresh is not hit
        assert as_bytes(hit) == as_bytes(fresh)

    # one changed value for every key the objective is built from
    CHANGED = {
        "seed": 4,
        "topology.n": 5,
        "objective.kind": "least_squares",
        "objective.d": 7,
        "objective.noise_sigma": 0.3,
        "objective.mu": 0.5,
        "objective.L": 12.0,
        "objective.hetero_scale": 2.0,
        "objective.samples_per_node": 6,
        "objective.batch_size": 2,
        "objective.alpha": 0.2,
        "objective.l2_reg": 0.02,
        "objective.partition_mode": "sorted_by_label",
    }

    def test_every_objective_key_is_changed_below(self):
        # a dataset objective is never held: test_a_dataset_objective_reads_its_file_again
        keys = {key for key in KEYS if key.startswith("objective.")} - {"objective.dataset_path"}
        assert keys <= set(self.CHANGED)

    @pytest.mark.parametrize("key, value", list(CHANGED.items()) + [("objective.noise_sigma", -0.0)])
    def test_a_changed_key_value_rebuilds(self, key, value):
        first = objective()
        changed = objective(**{key: value})
        assert changed is not first
        assert objective() is not changed  # and changing it back rebuilds again

    def test_only_the_last_objective_is_held(self):
        objective()
        last = objective(seed=4)
        assert [held is last for held in config._last_objective.values()] == [True]

    def test_negative_zero_builds_its_own_objective(self):
        assert repr(objective(**{"objective.noise_sigma": -0.0}).noise_sigma) == "-0.0"
        assert repr(objective(**{"objective.noise_sigma": 0.0}).noise_sigma) == "0.0"

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"objective.L": 1.7e308}, "objective.L: 1.7e+308 is too large, the curvature matrix overflows"),
            ({"objective.d": 10**10}, "objective.d: 10000000000 is too large"),
        ],
        ids=["overflowing_L", "oversized_d"],
    )
    def test_a_failing_build_raises_again(self, overrides, message):
        objective()
        for _ in range(2):
            with pytest.raises(ConfigError, match=re.escape(message)):
                objective(**overrides)

    def test_a_dataset_objective_reads_its_file_again(self, tmp_path):
        data = tmp_path / "data.csv"
        overrides = {"objective.kind": "least_squares", "objective.dataset_path": str(data)}
        write_dataset(data, 0)
        first = objective(**overrides)
        write_dataset(data, 1)
        second = objective(**overrides)
        assert not np.array_equal(np.concatenate(first.feats), np.concatenate(second.feats))
        assert config._last_objective == {}


# a four-node cycle with its weights given edge by edge
CUSTOM = {
    "topology.kind": "custom",
    "topology.edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
    "topology.edge_weights": [0.25, 0.25, 0.25, 0.25],
    "topology.self_weights": [0.5, 0.5, 0.5, 0.5],
}
GRAPHS = {"ring": {}, "complete": {"topology.kind": "complete"}, "custom": CUSTOM}


def graph(**overrides):
    cfg, _ = build_run_config(merged(BASE, overrides))
    return cfg.topology


def graph_bytes(topo):
    return topo.n, topo.w.tobytes(), topo.delta, topo.lambda_dev, topo.adjacency


class TestTopologyMemo:
    @pytest.mark.parametrize("kind", GRAPHS)
    def test_an_equal_key_returns_the_same_graph_bitwise_a_fresh_build(self, kind):
        hit = graph(**GRAPHS[kind])
        # keys outside the graph's do not go into the memo's key
        others = {"T": 20, "seed": 4, "objective.d": 7, "compressor.kind": "top_k", "compressor.k": 2}
        assert graph(**GRAPHS[kind] | others) is hit
        config._last_topology.clear()
        fresh = graph(**GRAPHS[kind])
        assert fresh is not hit
        assert graph_bytes(fresh) == graph_bytes(hit)

    # one changed value for every key a graph is built from, each on a graph that reads it
    CHANGED = {
        "ring-kind": ({}, "topology.kind", "complete"),
        "ring-n": ({}, "topology.n", 5),
        "ring-self_weight": ({}, "topology.self_weight", 0.5),
        "complete-n": ({"topology.kind": "complete"}, "topology.n", 5),
        "custom-kind": (CUSTOM, "topology.kind", "ring"),
        # the same graph with one edge listed the other way round
        "custom-edges": (CUSTOM, "topology.edges", [[0, 1], [1, 2], [2, 3], [0, 3]]),
        "custom-edge_weights": (CUSTOM, "topology.edge_weights", [0.2, 0.3, 0.2, 0.3]),
        # within the row-sum tolerance
        "custom-self_weights": (CUSTOM, "topology.self_weights", [0.5, 0.5, 0.5, 0.5 + 1e-12]),
    }

    def test_every_topology_key_is_changed_below(self):
        assert {key for _, key, _ in self.CHANGED.values()} == {key for key in KEYS if key.startswith("topology.")}

    @pytest.mark.parametrize("base, key, value", CHANGED.values(), ids=CHANGED)
    def test_a_changed_key_value_rebuilds(self, base, key, value):
        first = graph(**base)
        changed = graph(**base | {key: value})
        assert changed is not first
        assert graph(**base) is not changed  # and changing it back rebuilds again

    def test_a_seed_change_keeps_the_graph_and_rebuilds_the_objective(self):
        first, _ = build_run_config(merged(BASE))
        second, _ = build_run_config(merged(BASE, {"seed": 4}))
        assert second.topology is first.topology
        assert second.objective is not first.objective

    def test_a_self_weight_change_keeps_the_objective_and_rebuilds_the_graph(self):
        first, _ = build_run_config(merged(BASE))
        second, _ = build_run_config(merged(BASE, {"topology.self_weight": 0.5}))
        assert second.objective is first.objective
        assert second.topology is not first.topology

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"topology.self_weight": 1.0}, "topology.self_weight: self_weight must be in (0, 1), got 1.0"),
            ({**CUSTOM, "topology.self_weights": [0.5, 0.5, 0.5, 0.4]}, "topology.self_weights: rows/columns"),
            ({"topology.n": 10**10}, "topology.n: 10000000000 is too large"),
        ],
        ids=["ring", "custom", "oversized_n"],
    )
    def test_a_refused_graph_leaves_nothing_held(self, overrides, message):
        graph()
        for _ in range(2):
            with pytest.raises(ConfigError, match=re.escape(message)):
                graph(**overrides)
            assert config._last_topology == {}

    def test_a_T_sweep_builds_its_ring_once(self, tmp_path, monkeypatch):
        calls = []
        build = config.build_ring
        monkeypatch.setattr(config, "build_ring", lambda *args: calls.append(args) or build(*args))
        assert main(["sweep", "--axis", "T", "--values", "10,20,30", "--out", str(tmp_path)]) == 0
        assert calls == [(KEYS["topology.n"].default, KEYS["topology.self_weight"].default)]


class TestReadOnly:
    @pytest.mark.parametrize("kind", ["quadratic", *SAMPLE_KINDS])
    def test_every_array_is_read_only_on_a_miss_and_a_hit(self, kind):
        for _ in range(2):
            obj = objective(**{"objective.kind": kind})
            assert all(not a.flags.writeable for a in arrays(obj))

    def test_a_write_to_the_curvature_matrix_raises(self):
        cfg, _ = build_run_config(merged(BASE))
        with pytest.raises(ValueError, match="read-only"):
            cfg.objective.quad_a[0, 0] = 1.0

    def test_a_dataset_objective_is_read_only(self, tmp_path):
        data = tmp_path / "data.csv"
        write_dataset(data, 0)
        obj = objective(**{"objective.kind": "logistic_l2", "objective.dataset_path": str(data)})
        assert all(not a.flags.writeable for a in arrays(obj))
