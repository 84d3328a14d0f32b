"""squarm.config's library entry point and its set-up memos.

build_run_config lays any flat config over KEYS' defaults and refuses a key
not in KEYS, as merged does. A config reuses the graph the previous one
built while the node count, the graph's kind and the keys READS says that
kind reads are unchanged, and the objective the previous one built while the
seed, the node count, the objective's kind, its dimension and the keys that
kind reads are unchanged; every config-built objective is read-only.
A library type or builder refuses the value of a field whose rule it owns
exactly as a config refuses it for the key that takes that rule."""

import math
import re

import numpy as np
import pytest

from squarm import compress, config, objective as obj_ops, schedule
from squarm.cli import main
from squarm.compress import CompressorSpec
from squarm.config import KEYS, READS, build_run_config, merged
from squarm.engine import metrics_csv, run, summary_json
from squarm.errors import ConfigError, ParameterError
from squarm.schedule import LrSchedule, ThresholdSchedule

BASE = {"topology.n": 4, "objective.d": 6, "objective.samples_per_node": 5, "T": 10, "seed": 3}
SAMPLE_KINDS = ("least_squares", "least_squares_nonconvex", "logistic_l2")


def objective(**overrides):
    cfg, _ = build_run_config(merged(BASE, overrides))
    return cfg.objective


def arrays(obj):
    quad = [a for a in (obj.quad_a, obj.quad_b) if a is not None]
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
        # a regularizer the kind does not read is no part of the held objective either
        unread = {"objective.l2_reg" if kind == "least_squares_nonconvex" else "objective.alpha": 0.3}
        assert objective(**{"objective.kind": kind} | unread) is hit
        config._last_objective.clear()
        fresh = objective(**{"objective.kind": kind} | unread)
        assert fresh is not hit
        assert as_bytes(hit) == as_bytes(fresh)

    # one changed value for every key the objective is built from, each set on the
    # first kind that reads it
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
    }

    def test_every_objective_key_is_changed_below(self):
        # a dataset objective is never held (test_a_dataset_objective_reads_its_file_again),
        # and only a dataset build reads partition_mode
        unkeyed = {"objective.dataset_path", "objective.partition_mode"}
        read = {key for keys in READS["objective.kind"].values() for key in keys} - unkeyed
        assert {"seed", "topology.n", "objective.kind", "objective.d"} | read == set(self.CHANGED)

    @pytest.mark.parametrize("key, value", list(CHANGED.items()) + [("objective.noise_sigma", -0.0)])
    def test_a_changed_key_value_rebuilds(self, key, value):
        base = {"objective.kind": next((kind for kind, keys in READS["objective.kind"].items() if key in keys),
                                       "quadratic")}
        first = objective(**base)
        changed = objective(**base | {key: value})
        assert changed is not first
        assert objective(**base) is not changed  # and changing it back rebuilds again

    @pytest.mark.parametrize("kind, key, value", [("quadratic", "objective.alpha", 0.2),
                                                  ("quadratic", "objective.batch_size", 2),
                                                  ("least_squares", "objective.l2_reg", 0.02),
                                                  ("logistic_l2", "objective.mu", 0.5),
                                                  ("least_squares", "objective.partition_mode", "sorted_by_label")])
    def test_a_key_the_kind_does_not_read_keeps_the_held_object(self, kind, key, value):
        first = objective(**{"objective.kind": kind})
        assert objective(**{"objective.kind": kind, key: value}) is first

    @pytest.mark.parametrize("kind, key, value", [("quadratic", "objective.dataset_path", "data.csv"),
                                                  ("least_squares", "objective.noise_sigma", 0.1)])
    def test_a_misread_key_is_refused_on_a_hit_too(self, kind, key, value):
        objective(**{"objective.kind": kind})
        with pytest.raises(ConfigError, match=re.escape(f"{key}: only")):
            objective(**{"objective.kind": kind, key: value})

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
        read = {key for keys in READS["topology.kind"].values() for key in keys}
        assert {key for _, key, _ in self.CHANGED.values()} == {"topology.n", "topology.kind"} | read

    @pytest.mark.parametrize("base, key, value", [({}, "topology.edges", CUSTOM["topology.edges"]),
                                                  ({"topology.kind": "complete"}, "topology.self_weight", 0.5)],
                                                  ids=["ring-edges", "complete-self_weight"])
    def test_a_key_the_kind_does_not_read_keeps_the_held_graph(self, base, key, value):
        first = graph(**base)
        assert graph(**base | {key: value}) is first

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


class TestMemoryGuard:
    """A d is refused when the arrays its build holds at once outgrow the
    machine's memory, here patched to a few (d, d) matrices; nothing is
    allocated to find out."""

    D = 20
    MATRIX = 8 * D * D  # bytes

    @pytest.mark.parametrize("matrices", [1, 2, 3, 4 - 1 / MATRIX])
    def test_a_quadratic_needs_room_for_four_matrices(self, monkeypatch, matrices):
        monkeypatch.setattr(config, "_MEMORY_BYTES", int(matrices * self.MATRIX))
        with pytest.raises(ConfigError, match=f"^objective.d: {self.D} is too large, the build it sizes holds 1.28e"):
            objective(**{"objective.d": self.D})
        assert config._last_objective == {}

    def test_four_matrices_hold_the_quadratic_build(self, monkeypatch):
        monkeypatch.setattr(config, "_MEMORY_BYTES", 4 * self.MATRIX)
        assert objective(**{"objective.d": self.D}).quad_a.shape == (self.D, self.D)

    @pytest.mark.parametrize("kind", SAMPLE_KINDS)
    def test_a_sample_based_kind_needs_room_for_one(self, monkeypatch, kind):
        monkeypatch.setattr(config, "_MEMORY_BYTES", self.MATRIX - 1)
        with pytest.raises(ConfigError, match=f"^objective.d: {self.D} is too large"):
            objective(**{"objective.kind": kind, "objective.d": self.D})
        monkeypatch.setattr(config, "_MEMORY_BYTES", self.MATRIX)
        assert objective(**{"objective.kind": kind, "objective.d": self.D}).d == self.D


def shards():
    rng = np.random.default_rng(0)
    return [rng.standard_normal((3, 2)) for _ in range(2)], [rng.standard_normal(3) for _ in range(2)]


def quadratic(**kw):
    return obj_ops.quadratic_objective(2, 2, np.random.default_rng(0), **kw)


# each key whose rule a library module owns: that module, its rule table, and a
# builder that passes the key's last part as a keyword to the type that reads it
OWNED = {
    "threshold.c0": (schedule, "THRESHOLD_RULES", lambda **kw: ThresholdSchedule("poly", **kw)),
    "threshold.epsilon": (schedule, "THRESHOLD_RULES", lambda **kw: ThresholdSchedule("const_eta", **kw)),
    "threshold.init": (schedule, "THRESHOLD_RULES", lambda **kw: ThresholdSchedule("piecewise", **kw)),
    "threshold.step": (schedule, "THRESHOLD_RULES", lambda **kw: ThresholdSchedule("piecewise", **kw)),
    "threshold.period": (schedule, "THRESHOLD_RULES", lambda **kw: ThresholdSchedule("piecewise", **kw)),
    "lr.eta": (schedule, "LR_RULES", lambda **kw: LrSchedule("constant", **kw)),
    "lr.b": (schedule, "LR_RULES", lambda **kw: LrSchedule("decaying", **{"a": 2.0} | kw)),
    "lr.a": (schedule, "LR_RULES", lambda **kw: LrSchedule("decaying", **{"b": 1.0} | kw)),
    "compressor.k": (compress, "COUNT_RULES", lambda **kw: CompressorSpec("qsgd_top_k", **{"s": 2} | kw)),
    "compressor.s": (compress, "COUNT_RULES", lambda **kw: CompressorSpec("qsgd_top_k", **{"k": 2} | kw)),
    "compressor.value_bits": (compress, "COUNT_RULES", lambda **kw: CompressorSpec("identity", **kw)),
    "objective.noise_sigma": (obj_ops, "ARG_RULES", quadratic),
    "objective.batch_size": (obj_ops, "ARG_RULES", lambda **kw: obj_ops.from_shards("least_squares", *shards(), **kw)),
    "objective.alpha": (obj_ops, "ARG_RULES",
                        lambda **kw: obj_ops.from_shards("least_squares_nonconvex", *shards(), **kw)),
    "objective.l2_reg": (obj_ops, "ARG_RULES", lambda **kw: obj_ops.from_shards("logistic_l2", *shards(), **kw)),
    "objective.mu": (obj_ops, "ARG_RULES", quadratic),
    "objective.L": (obj_ops, "ARG_RULES", quadratic),
    "gamma.omega": (schedule, "ARG_RULES", lambda **kw: schedule.gamma_strong(delta=0.5, lam=1.0, **kw)),
    "lr.mu": (schedule, "ARG_RULES", lambda **kw: schedule.min_a_strongly_convex(1, 0.1, 10.0, beta=0.0, **kw)),
}


def outside(key):
    """Values the rule of key refuses: nan, +-inf, the nearest value past each
    finite bound, and for an int two values between integers in range."""
    spec = KEYS[key]
    lo, hi = (float(bound) for bound in spec.valid[1:-1].split(","))
    past_lo = lo if spec.valid[0] == "(" else lo - 1 if spec.type is int else math.nextafter(lo, -math.inf)
    values = [math.nan, math.inf, -math.inf, spec.type(past_lo)]
    if math.isfinite(hi):
        values.append(hi if spec.valid[-1] == ")" else math.nextafter(hi, math.inf))
    return values + ([lo + 0.5, lo + 1.5] if spec.type is int else [])


class TestSharedRules:
    @pytest.mark.parametrize("key, value", [(key, value) for key in OWNED for value in outside(key)])
    def test_a_library_type_refuses_what_a_config_refuses(self, key, value):
        field = key.rsplit(".", 1)[1]
        with pytest.raises(ParameterError) as library:
            OWNED[key][2](**{field: value})
        with pytest.raises(ConfigError) as configured:
            build_run_config(merged(BASE, {key: value}))
        assert str(library.value).startswith(f"{field}: ")
        assert str(configured.value) == key + str(library.value)[len(field):]

    @pytest.mark.parametrize("key", OWNED)
    def test_the_key_takes_its_rule_from_the_owning_module(self, key):
        module, table, _ = OWNED[key]
        assert KEYS[key] is getattr(module, table)[key.rsplit(".", 1)[1]]
