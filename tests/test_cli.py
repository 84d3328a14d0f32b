import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from squarm import objective, verify
from squarm.cli import main
from squarm.config import KEYS, UNSET, build_run_config
from squarm.engine import Diagnostics, run
from test_config_properties import bounds

SRC = Path(__file__).resolve().parent.parent / "src"
UNSTABLE = ("warning: {key}: the momentum step's stability limit 2 (1 + beta) / (1 + 2 beta) = {limit} is at or"
            " below eta_0 L {eta_L}; the quadratic objective's run can diverge")
# `python -c PEAK_RSS_WRAPPER PATH ARGS...` runs `squarm ARGS...` and, however
# it ends, writes the VmHWM line of its own /proc/self/status to PATH
PEAK_RSS_WRAPPER = """
import sys
from squarm.cli import main
try:
    code = main(sys.argv[2:])
finally:
    with open("/proc/self/status") as status, open(sys.argv[1], "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""


@pytest.fixture
def base_config(tmp_path):
    cfg = {
        "topology.n": 8,
        "objective.d": 10,
        "objective.mu": 0.5,
        "objective.L": 4.0,
        "objective.noise_sigma": 0.2,
        "T": 80,
        "seed": 3,
        "lr.kind": "auto_constant",
        "x0_scale": 1.0,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def strict_json(path):
    """The JSON object in path, refusing the NaN and Infinity tokens strict JSON lacks."""

    def reject(token):
        raise AssertionError(f"{path.name} holds the non-JSON token {token}")

    return json.loads(path.read_text(), parse_constant=reject)


def just_outside(spec):
    """A value just past each finite end of the key's valid interval, or a
    string that is none of its choices."""
    if isinstance(spec.valid, tuple):
        return ["bogus"]
    if not spec.valid:
        return []
    lo, hi, lo_open, hi_open = bounds(spec.valid)

    def past(end, way):
        return int(end) + way if spec.type is int else math.nextafter(end, way * math.inf)

    ends = [(lo, lo_open, -1), (hi, hi_open, 1)]
    return [spec.type(end) if is_open else past(end, way) for end, is_open, way in ends if math.isfinite(end)]


class TestRun:
    def test_preset_run_writes_outputs(self, tmp_path, base_config, capsys):
        out = tmp_path / "out"
        code = main(
            ["run", "--preset", "dpsgd", "--config", str(base_config), "--out", str(out)]
        )
        assert code == 0
        assert (out / "metrics.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["derived"]["gamma"] == 1.0
        printed = capsys.readouterr().out
        assert "final" in printed and "bits" in printed

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"topology.kindd": "ring"}))
        code = main(["run", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "topology.kindd" in capsys.readouterr().err

    def test_unparseable_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: config {bad} must be a JSON object\n"

    def test_argument_that_is_not_a_key_value_flag_exits_2(self, tmp_path, capsys):
        assert main(["run", "--out", str(tmp_path), "bogus"]) == 2
        assert capsys.readouterr().err == "error: unrecognized argument 'bogus' (expected --key=value)\n"

    def test_seed_repeat_byte_identical(self, tmp_path, base_config):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert (
                main(
                    [
                        "run",
                        "--preset",
                        "squarm",
                        "--config",
                        str(base_config),
                        "--out",
                        str(out),
                        "--seed=7",
                    ]
                )
                == 0
            )
            outs.append((out / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_flag_overrides_win(self, tmp_path, base_config):
        out = tmp_path / "o"
        assert (
            main(
                [
                    "run",
                    "--config",
                    str(base_config),
                    "--out",
                    str(out),
                    "--T=5",
                    "--eval_every=1",
                ]
            )
            == 0
        )
        rows = list(csv.DictReader((out / "metrics.csv").read_text().splitlines()))
        assert rows[-1]["t"] == "4"

    def test_dataset_file_objective(self, tmp_path):
        rng = __import__("numpy").random.default_rng(0)
        rows = []
        for _ in range(64):
            feats = rng.standard_normal(3)
            label = feats @ [1.0, -1.0, 0.5] + 0.1 * rng.standard_normal()
            rows.append(",".join(f"{v:.6f}" for v in [*feats, label]))
        data = tmp_path / "data.csv"
        data.write_text("\n".join(rows) + "\n")
        cfg = {
            "topology.n": 4,
            "objective.kind": "least_squares",
            "objective.dataset_path": str(data),
            "objective.partition_mode": "sorted_by_label",
            "compressor.kind": "top_k",
            "compressor.k": 1,
            "threshold.kind": "always",
            "H": 2,
            "T": 50,
            "seed": 1,
            "lr.kind": "constant",
            "lr.eta": 0.05,
        }
        path = tmp_path / "ds_config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "dsout"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        rows = list(csv.DictReader((out / "metrics.csv").read_text().splitlines()))
        assert float(rows[-1]["loss"]) < float(rows[0]["loss"])

    @pytest.mark.parametrize(
        "content",
        ["1,2,3\n4,nan,6\n7,8,9\n", "1,2,3\n4,1e300,6\n7,8,9\n", "1,2,3\n4,5,1e300\n7,8,9\n", ""],
        ids=["nan", "overflowing_feature", "overflowing_label", "empty"],
    )
    def test_dataset_that_is_not_finite_or_empty_exits_2(self, tmp_path, content):
        data = tmp_path / "data.csv"
        data.write_text(content)
        proc = subprocess.run(
            [sys.executable, "-m", "squarm", "run", "--objective.kind=least_squares",
             f"--objective.dataset_path={data}", "--topology.n=3", "--T=5", "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120, env={"PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 2, proc.stderr
        # one line: no warning before the error
        assert proc.stderr.startswith("error: objective.dataset_path: ") and proc.stderr.count("\n") == 1

    def test_output_file_that_is_a_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "summary.json").mkdir(parents=True)
        assert main(["run", "--T=5", "--out", str(out)]) == 2
        assert f"error: --out: [Errno 21] Is a directory: '{out / 'summary.json'}'" in capsys.readouterr().err

    def test_outputs_do_not_depend_on_a_squarm_seed_variable(self, tmp_path, base_config):
        # the config sets no seed, so only its default of 0 may decide the run
        cfg = json.loads(base_config.read_text())
        del cfg["seed"]
        base_config.write_text(json.dumps(cfg))
        commands = {
            "run": (["run"], ("metrics.csv", "summary.json")),
            "sweep": (["sweep", "--axis", "T", "--values", "40,80"], ("sweep.csv",)),
        }
        outs = {}
        for label, extra_env in [("unset", {}), ("42", {"SQUARM_SEED": "42"}), ("abc", {"SQUARM_SEED": "abc"})]:
            for command, (args, names) in commands.items():
                out = tmp_path / label / command
                proc = subprocess.run(
                    [sys.executable, "-m", "squarm", *args, "--config", str(base_config), "--out", str(out)],
                    capture_output=True, text=True, timeout=120, env={"PYTHONPATH": str(SRC), **extra_env},
                )
                assert proc.returncode == 0, (label, command, proc.stderr)
                outs[label, command] = [(out / name).read_bytes() for name in names]
        assert json.loads(outs["unset", "run"][1])["config"]["seed"] == 0
        for command in commands:
            assert outs["42", command] == outs["unset", command], command
            assert outs["abc", command] == outs["unset", command], command

    @pytest.mark.parametrize(
        "args",
        [
            ["--preset", "squarm", "--topology.n=16", "--objective.d=200", "--T=600", "--seed=3",
             "--objective.noise_sigma=0.1", "--x0_scale=1"],
            ["--objective.kind=least_squares", "--topology.n=16", "--objective.d=50", "--T=300",
             "--seed=3", "--x0_scale=1", "--objective.batch_size=8", "--lr.kind=constant",
             "--lr.eta=0.01", "--beta=0.5", "--compressor.kind=top_k", "--compressor.k=5",
             "--gamma.value=0.5", "--threshold.kind=poly", "--threshold.c0=1", "--threshold.epsilon=0.5"],
        ],
        ids=["squarm_quadratic_d200", "least_squares_d50"],
    )
    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path, args):
        # the thread count is set in the children only: this process's BLAS has already started
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "squarm", "run", *args, "--out", str(out)],
                capture_output=True, text=True, timeout=120,
                env={"PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
            outs.append([(out / name).read_bytes() for name in ("metrics.csv", "summary.json")])
        assert outs[0] == outs[1]

    def test_divergence_between_eval_rows_writes_partial_outputs(self, tmp_path):
        # the blow-up happens long before the second metrics row
        out = tmp_path / "div"
        proc = subprocess.run(
            [sys.executable, "-m", "squarm", "run", "--lr.kind=constant", "--lr.eta=50",
             "--T=20000", "--eval_every=5000", "--out", str(out)],
            capture_output=True, text=True, timeout=120, env={"PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert "diverged" in proc.stderr
        rows = list(csv.DictReader((out / "metrics.csv").read_text().splitlines()))
        assert rows[0]["t"] == "0" and 0 < int(rows[-1]["t"]) < 4999
        summary = strict_json(out / "summary.json")
        assert summary["final"]["t"] == int(rows[-1]["t"])
        assert summary["final"]["loss"] is None

    def test_weighted_average_that_overflows_exits_1_with_partial_outputs(self, tmp_path):
        # the weights (a + t)^2 overflow, so the weighted average is inf / inf
        out = tmp_path / "wavg"
        proc = subprocess.run(
            [sys.executable, "-m", "squarm", "run", "--objective.L=1.0474849945267654e+152",
             "--lr.kind=auto_decaying", "--x0_scale=1.0", "--T=1", "--out", str(out)],
            capture_output=True, text=True, timeout=120, env={"PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert "run diverged: weighted average diverged at t=0" in proc.stderr
        rows = list(csv.DictReader((out / "metrics.csv").read_text().splitlines()))
        assert [row["t"] for row in rows] == ["0"]
        summary = strict_json(out / "summary.json")
        assert summary["final"]["t"] == 0

    def test_loss_that_overflows_exits_1_with_partial_outputs(self, tmp_path):
        # X stays finite, but its loss under the 1e300 curvature does not
        out = tmp_path / "loss"
        proc = subprocess.run(
            [sys.executable, "-m", "squarm", "run", "--objective.mu=1e-300", "--objective.L=1e300",
             "--T=5", "--out", str(out)],
            capture_output=True, text=True, timeout=120, env={"PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert "run diverged: loss diverged at t=0" in proc.stderr
        rows = list(csv.DictReader((out / "metrics.csv").read_text().splitlines()))
        assert [row["t"] for row in rows] == ["0"]
        summary = strict_json(out / "summary.json")
        assert summary["final"]["t"] == 0
        assert summary["final"]["loss"] is None

    def test_bad_values_name_their_key(self, tmp_path, capsys):
        bad = {int: ["abc", 2.5, True], float: ["abc", "nan", [1.0]], bool: ["yes", 2], str: [5], list: [5]}
        for key, spec in KEYS.items():
            # null unsets a key, which only keys without a default may be
            unset = [] if spec.default is UNSET else [None]
            for value in bad[spec.type] + unset + just_outside(spec):
                flag = f"--{key}={json.dumps(value)}"
                assert main(["run", "--out", str(tmp_path), "--T=1", flag]) == 2, flag
                err = capsys.readouterr().err
                assert err.startswith(f"error: {key}") and "Traceback" not in err, (flag, err)

    @pytest.mark.parametrize(
        "key, flags",
        [
            ("objective.d", ["--objective.d=0"]),
            (
                "topology.edges",
                ["--topology.kind=custom", "--topology.n=2", "--topology.edges=5",
                 "--topology.edge_weights=[0.5]", "--topology.self_weights=[0.5,0.5]"],
            ),
            ("objective.batch_size", ["--objective.batch_size=0", "--objective.kind=least_squares"]),
            ("beta", ["--beta=1.5"]),
            ("compressor.value_bits", ["--compressor.value_bits=0"]),
            ("lr.eta", ["--lr.kind=constant", "--lr.eta=-1"]),
            ("threshold.epsilon", ["--threshold.kind=poly", "--threshold.c0=1", "--threshold.epsilon=2"]),
            ("objective.L", ["--objective.L=0.5"]),
            ("grad_clip", ["--grad_clip=-1"]),
            ("eval_every", ["--eval_every=-3", "--T=10"]),
            ("topology.n", ["--topology.n=2"]),
            ("gamma.omega", ["--gamma.kind=auto_relaxed", "--gamma.omega=1e-110", "--lr.kind=auto_decaying"]),
            (
                "topology.edges",
                ["--topology.kind=custom", "--topology.n=3", "--topology.edges=[[0,5]]",
                 "--topology.edge_weights=[0.5]", "--topology.self_weights=[0.5,0.5,1]"],
            ),
            ("objective.dataset_path", ["--objective.kind=least_squares", "--objective.dataset_path={tmp}/missing.csv"]),
            ("objective.dataset_path", ["--objective.kind=least_squares", "--objective.dataset_path={tmp}/words.csv"]),
            ("objective.L", ["--objective.L=1.5e308", "--T=2"]),
            ("objective.hetero_scale", ["--objective.hetero_scale=1e308", "--T=2"]),
            ("topology.n", ["--topology.n=10000000000", "--T=2"]),
            ("objective.samples_per_node", ["--objective.kind=logistic_l2", "--objective.samples_per_node=100000000000"]),
            ("parallel", ["--parallel=true", "--T=5"]),
            ("objective.noise_sigma", ["--objective.noise_sigma=-0.5", "--T=5"]),
            # the quadratic kind reads no dataset: a path set with it is refused, not ignored
            ("objective.dataset_path", ["--objective.dataset_path=/nonexistent/data.csv", "--T=5"]),
            # auto_decaying's b = 16 (1 - beta) / mu, or the a_min an unset lr.a takes, past the float range
            ("objective.mu", ["--lr.kind=auto_decaying", "--objective.mu=1e-310", "--T=5"]),
            ("objective.l2_reg", ["--lr.kind=auto_decaying", "--objective.kind=logistic_l2", "--objective.l2_reg=1e-310"]),
            ("lr.mu", ["--lr.kind=auto_decaying", "--objective.kind=least_squares", "--lr.mu=1e-310"]),
            ("lr.a", ["--lr.kind=auto_decaying", "--beta=0.9", "--objective.L=1e200", "--T=5"]),
            # p = gamma delta / 8 underflows to 0: decaying's 5H/p and auto_decaying's p are named by gamma's key
            ("gamma.value", ["--T=5", "--gamma.value=5e-324", "--lr.kind=decaying", "--lr.a=10", "--lr.b=1"]),
            ("gamma.value", ["--T=5", "--gamma.value=5e-324", "--lr.kind=auto_decaying"]),
            ("gamma.omega", ["--T=5", "--gamma.kind=auto_strong", "--gamma.omega=1e-320", "--lr.kind=auto_decaying"]),
            # a key the kind does not read keeps its range check
            ("topology.self_weight", ["--topology.kind=complete", "--topology.self_weight=1.5"]),
            # a sample-based kind's gradient noise is its minibatch: a noise scale set with it is refused, not ignored
            ("objective.noise_sigma", ["--objective.kind=least_squares", "--objective.noise_sigma=5", "--T=50",
                                       "--lr.kind=constant", "--lr.eta=0.01"]),
        ],
    )
    def test_out_of_range_values_exit_2_naming_their_key(self, tmp_path, key, flags):
        (tmp_path / "words.csv").write_text("a,b\nc,d\n")
        proc = subprocess.run(
            [sys.executable, "-m", "squarm", "run", "--out", str(tmp_path),
             *(flag.format(tmp=tmp_path) for flag in flags)],
            capture_output=True, text=True, timeout=120, env={"PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"error: {key}:") and proc.stderr.count("\n") == 1, proc.stderr
        assert "compressor.kind" not in proc.stderr and "Warning" not in proc.stderr

    @pytest.mark.parametrize(
        "key, flags",
        [
            ("objective.d", ["--objective.d=10000000000", "--T=2"]),
            ("objective.batch_size", ["--objective.kind=least_squares", "--objective.batch_size=100000000000", "--T=2"]),
        ],
    )
    def test_sizes_too_large_to_allocate_exit_2_before_allocating(self, tmp_path, key, flags):
        # the child reports its own peak RSS (VmHWM, which starts afresh at
        # exec); a child's ru_maxrss would include this process's peak
        peak = tmp_path / "vmhwm"
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_WRAPPER, str(peak), "run", "--out", str(tmp_path), *flags],
            capture_output=True, text=True, timeout=120, env={"PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"error: {key}") and "Traceback" not in proc.stderr, proc.stderr
        label, kib, unit = peak.read_text().split()
        assert (label, unit) == ("VmHWM:", "kB")
        assert int(kib) < 200_000, kib  # KiB: no trial allocation of the array

    @pytest.mark.parametrize(
        "kind, key",
        [
            ("--compressor.kind=top_k", "compressor.k"),
            ("--compressor.kind=qsgd", "compressor.s"),
            ("--lr.kind=constant", "lr.eta"),
            ("--lr.kind=decaying", "lr.b"),
            # each threshold kind's parameters, each refused while the ones before it are set
            ("--threshold.kind=poly", "threshold.c0"),
            ("--threshold.kind=poly --threshold.c0=1", "threshold.epsilon"),
            ("--threshold.kind=const_eta", "threshold.c0"),
            ("--threshold.kind=const_eta --threshold.c0=1", "threshold.epsilon"),
            ("--threshold.kind=piecewise", "threshold.init"),
            ("--threshold.kind=piecewise --threshold.init=1", "threshold.step"),
            ("--threshold.kind=piecewise --threshold.init=1 --threshold.step=1", "threshold.period"),
            ("--topology.kind=custom", "topology.edges"),
            # mu of an objective that is not strongly convex is left to lr.mu
            ("--lr.kind=auto_decaying --objective.kind=least_squares", "lr.mu"),
        ],
    )
    def test_keys_a_kind_requires_are_named(self, tmp_path, capsys, kind, key):
        assert main(["run", "--out", str(tmp_path), "--T=1", *kind.split()]) == 2
        assert capsys.readouterr().err == f"error: missing config key {key!r}\n"

    def test_unknown_threshold_kind_lists_the_kinds(self, tmp_path, capsys):
        assert main(["run", "--out", str(tmp_path), "--T=1", "--threshold.kind=bogus"]) == 2
        assert capsys.readouterr().err == (
            "error: threshold.kind: expected one of always, never, poly, const_eta, piecewise, got 'bogus'\n"
        )

    def test_disconnected_custom_graph_names_its_edges(self, tmp_path, capsys):
        flags = ["--topology.kind=custom", "--topology.n=4", "--topology.edges=[[0,1],[2,3]]",
                 "--topology.edge_weights=[0.5,0.5]", "--topology.self_weights=[0.5,0.5,0.5,0.5]"]
        assert main(["run", "--out", str(tmp_path), "--T=2", *flags]) == 2
        assert capsys.readouterr().err == "error: topology.edges: communication graph is not connected\n"

    def test_ring_without_spectral_gap_names_self_weight(self, tmp_path, capsys):
        # an even ring's lowest eigenvalue 2s - 1 rounds to -1 at s = 1e-17
        assert main(["run", "--out", str(tmp_path), "--T=2", "--topology.self_weight=1e-17"]) == 2
        assert capsys.readouterr().err == (
            "error: topology.self_weight: spectral gap is not positive (delta=0.000e+00)\n"
        )

    def test_custom_topology_lists_are_shape_checked(self, tmp_path, capsys):
        custom = ["run", "--out", str(tmp_path), "--T=2", "--topology.kind=custom", "--topology.n=3",
                  "--topology.edges=[[0,1],[1,2]]", "--topology.edge_weights=[0.5,0.5]",
                  "--topology.self_weights=[0.5,0.0,0.5]"]
        assert main(custom) == 0
        capsys.readouterr()
        for flag in ["--topology.edges=[[0,1,2]]", '--topology.edges=[[0,"a"]]',
                     "--topology.edge_weights=[0.5]", '--topology.edge_weights=[0.5,"x"]',
                     "--topology.self_weights=[0.5,0.5]", "--topology.self_weights=1.0"]:
            assert main([*custom, flag]) == 2, flag
            err = capsys.readouterr().err
            assert flag[2:].partition("=")[0] in err and "Traceback" not in err, (flag, err)


    @pytest.mark.parametrize("flags", [[], ["--compressor.kind=qsgd", "--compressor.s=2"],
                                       ["--compressor.kind=scaled_sign"]], ids=["identity", "qsgd", "scaled_sign"])
    def test_a_k_that_the_kind_does_not_read_is_ignored(self, tmp_path, flags):
        # d = 20: k = 50 would be refused as past d by a kind that reads k
        outputs = []
        for k_flags in ([], ["--compressor.k=5"], ["--compressor.k=50"]):
            out = tmp_path / str(len(outputs))
            assert main(["run", "--out", str(out), "--T=3", *flags, *k_flags]) == 0, k_flags
            outputs.append((out / "metrics.csv").read_bytes())
        assert outputs[1:] == outputs[:1] * 2

    def test_a_k_past_d_is_refused_for_a_kind_that_reads_k(self, tmp_path, capsys):
        assert main(["run", "--out", str(tmp_path), "--T=3", "--compressor.kind=top_k", "--compressor.k=50"]) == 2
        assert capsys.readouterr().err == "error: compressor.k: must be <= d=20, got 50\n"

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--topology.edge_weights=[0.5]", "topology.edge_weights: edges and edge_weights must have equal length"),
            ("--topology.self_weights=[0.5,0.5]", "topology.self_weights: self_weights must have one entry per node"),
        ],
    )
    def test_short_custom_topology_lists_name_their_key(self, tmp_path, capsys, flag, message):
        custom = ["run", "--out", str(tmp_path), "--T=2", "--topology.kind=custom", "--topology.n=3",
                  "--topology.edges=[[0,1],[1,2]]", "--topology.edge_weights=[0.5,0.5]",
                  "--topology.self_weights=[0.5,0.0,0.5]"]
        assert main([*custom, flag]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "flags, warning",
        [
            # auto_decaying's admissibility minimum already includes 5H/p: one warning, not two
            (["--lr.kind=auto_decaying", "--lr.a=2"], "lr.a=2.0 below the admissibility minimum 1280.0"),
            (
                ["--lr.kind=decaying", "--lr.b=1", "--lr.a=2"],
                "lr.a below 5H/p; the step-size ratio eta_t <= 2 eta_{t+H} may fail",
            ),
        ],
    )
    def test_lr_a_below_its_minimum_warns_once(self, tmp_path, capsys, flags, warning):
        assert main(["run", "--out", str(tmp_path), "--T=5", *flags]) == 0
        # the decaying eta_0 L = b L / a = 5 is also at or above the stability limit 2 at beta = 0
        unstable = [UNSTABLE.format(key="lr.b", eta_L="5", limit="2")] if "--lr.kind=decaying" in flags else []
        assert capsys.readouterr().err.splitlines() == [f"warning: {warning}", *unstable]

    @pytest.mark.parametrize("eta, warns", [("0.13843", True), ("0.13296", False)], ids=["1.02x", "0.98x"])
    def test_an_eta_past_the_momentum_stability_limit_warns(self, tmp_path, capsys, eta, warns):
        # beta = 0.9 and L = 10: the limit on eta L is 2 (1 + beta) / (1 + 2 beta) = 1.357
        flags = ["--beta=0.9", "--threshold.kind=never", "--objective.noise_sigma=0.1", "--x0_scale=1", "--seed=1",
                 "--lr.kind=constant", f"--lr.eta={eta}"]
        assert main(["run", "--out", str(tmp_path), "--T=3000", *flags]) == 0
        loss = float(capsys.readouterr().out.split()[2].partition("=")[2])
        assert main(["run", "--out", str(tmp_path), "--T=3", *flags]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == ([UNSTABLE.format(key="lr.eta", eta_L="1.384", limit="1.357")] if warns else [])
        assert (loss > 1e100) == warns  # the warned run blows up, the other converges

    @pytest.mark.parametrize(
        "flags, warning",
        [
            ([], "T=5 below the non-convex admissibility minimum, which overflows a float"),
            (["--lr.kind=auto_decaying", "--lr.a=2"], "lr.a=2.0 below the admissibility minimum, which overflows a float"),
        ],
        ids=["auto_constant", "auto_decaying"],
    )
    def test_admissibility_minimum_that_overflows_is_not_printed_as_inf(self, tmp_path, flags, warning):
        # the minimum overflows under the 1e300 curvature, and both runs then diverge at t=0
        proc = subprocess.run(
            [sys.executable, "-m", "squarm", "run", "--objective.mu=1e-300", "--objective.L=1e300",
             "--T=5", *flags, "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=120, env={"PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.splitlines()[0] == f"warning: {warning}"
        assert "inf" not in proc.stderr.split() and "Traceback" not in proc.stderr, proc.stderr

class TestVerify:
    def test_spectral_suite_passes(self, capsys):
        assert main(["verify", "--suite", "spectral"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out and "FAIL" not in out

    def test_schedules_suite_passes(self):
        assert main(["verify", "--suite", "schedules"]) == 0

    @pytest.mark.parametrize("suite", ["compression", "identities"])
    def test_suite_passes(self, suite, capsys):
        assert main(["verify", "--suite", suite]) == 0
        out = capsys.readouterr().out
        assert "pass" in out and "FAIL" not in out

    def test_failed_check_exits_1_naming_it(self, capsys, monkeypatch):
        checks = [("holds", True, "1 vs bound 2"), ("breaks", False, "3 vs bound 2")]
        monkeypatch.setitem(verify.SUITES, "schedules", lambda: checks)
        assert main(["verify", "--suite", "schedules"]) == 1
        out, err = capsys.readouterr()
        assert out == "holds   pass\nbreaks  FAIL  (3 vs bound 2)\n1/2 checks passed\n"
        assert err == "first failure: breaks 3 vs bound 2\n"


class TestSweep:
    def test_sweep_h_axis(self, tmp_path, base_config):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--config",
                str(base_config),
                "--axis",
                "H",
                "--values",
                "1,5,20",
                "--out",
                str(out),
                "--compressor.kind=top_k",
                "--compressor.k=2",
            ]
        )
        assert code == 0
        rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
        assert [r["value"] for r in rows] == ["1", "5", "20"]
        # aggregate parses back as numbers (round trip)
        for r in rows:
            float(r["loss"])
            int(r["bits_cum"])

    def test_empty_values_usage_error(self, tmp_path, base_config):
        assert (
            main(
                [
                    "sweep",
                    "--config",
                    str(base_config),
                    "--axis",
                    "T",
                    "--values",
                    "",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 2
        )


    @pytest.mark.filterwarnings("error")  # no overflow warning escapes the runs
    def test_divergent_point_exits_1_and_keeps_finished_points(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        args = ["sweep", "--axis", "T", "--values", "1,100,3", "--out", str(out)]
        code = main([*args, "--lr.kind=constant", "--lr.eta=50"])
        assert code == 1
        rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
        assert [r["value"] for r in rows] == ["1"]
        assert "run diverged (T=100)" in capsys.readouterr().err


    def test_k_sweep_builds_its_objective_once_and_matches_fresh_runs(self, tmp_path, monkeypatch):
        calls = []
        build = objective.quadratic_objective
        monkeypatch.setattr(objective, "quadratic_objective", lambda *a, **kw: calls.append(a) or build(*a, **kw))
        flags = ["--preset", "squarm", "--topology.n=4", "--objective.d=300", "--T=40", "--seed=1",
                 "--objective.noise_sigma=0.1", "--x0_scale=1"]
        assert main(["sweep", *flags, "--axis", "k", "--values", "5,10,20", "--out", str(tmp_path / "sweep")]) == 0
        assert len(calls) == 1
        points = list(csv.DictReader((tmp_path / "sweep" / "sweep.csv").read_text().splitlines()))
        assert [point["value"] for point in points] == ["5", "10", "20"]
        for point in points:
            # a fresh process builds its own objective, under this process's BLAS settings
            value = point.pop("value")
            out = tmp_path / f"k{value}"
            proc = subprocess.run(
                [sys.executable, "-m", "squarm", "run", *flags, f"--compressor.k={value}", "--out", str(out)],
                capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)},
            )
            assert proc.returncode == 0, proc.stderr
            last = list(csv.DictReader((out / "metrics.csv").read_text().splitlines()))[-1]
            assert point == {name: last[name] for name in point}, value

    def test_a_point_is_released_before_the_next_one_builds(self, tmp_path, monkeypatch):
        results, dead = [], []

        def checked_build(flat):
            dead.append([ref() is None for ref in results])
            return build_run_config(flat)

        def kept_run(cfg):
            result = run(cfg)
            results.append(weakref.ref(result))
            return result

        monkeypatch.setattr("squarm.cli.build_run_config", checked_build)
        monkeypatch.setattr("squarm.cli.run", kept_run)
        args = ["sweep", "--axis", "k", "--values", "2,4,6", "--out", str(tmp_path),
                "--compressor.kind=top_k", "--T=30"]
        assert main(args) == 0
        assert dead == [[], [True], [True, True]]

    @pytest.mark.parametrize(
        "flags, kind",
        [([], "identity"), (["--compressor.kind=qsgd", "--compressor.s=2"], "qsgd"),
         (["--compressor.kind=scaled_sign"], "scaled_sign"),
         # the sweep sees the flags before they are checked: no kind at all, or not even hashable
         (["--compressor.kind=bogus"], "bogus"), (["--compressor.kind=[1]"], [1])],
        ids=["identity", "qsgd", "scaled_sign", "bogus", "unhashable"],
    )
    def test_k_axis_of_a_kind_that_reads_no_k_exits_2_before_running(self, tmp_path, capsys, monkeypatch, flags, kind):
        monkeypatch.setattr("squarm.cli.build_run_config", lambda flat: pytest.fail("a point started"))
        out = tmp_path / "sweep"
        assert main(["sweep", "--axis", "k", "--values", "1,2", "--T=3", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: --axis k: compressor.kind {kind!r} reads no k"
                       " (the kinds that do: top_k, rand_k, sign_top_k, qsgd_top_k)\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["top_k", "rand_k", "sign_top_k", "qsgd_top_k"])
    def test_k_axis_of_a_sparse_kind_sweeps_k(self, tmp_path, kind):
        flags = ["--topology.n=4", "--objective.d=10", "--T=20", "--seed=2", f"--compressor.kind={kind}",
                 "--compressor.s=4"]
        assert main(["sweep", *flags, "--axis", "k", "--values", "1,3", "--out", str(tmp_path / "sweep")]) == 0
        points = list(csv.DictReader((tmp_path / "sweep" / "sweep.csv").read_text().splitlines()))
        assert [point["value"] for point in points] == ["1", "3"]
        assert points[0]["bits_cum"] != points[1]["bits_cum"]
        for point in points:
            value = point.pop("value")
            out = tmp_path / f"k{value}"
            assert main(["run", *flags, f"--compressor.k={value}", "--out", str(out)]) == 0
            last = list(csv.DictReader((out / "metrics.csv").read_text().splitlines()))[-1]
            assert point == {name: last[name] for name in point}, value

    def test_refused_point_exits_2_and_keeps_finished_points(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--axis", "T", "--values", "5,0", "--out", str(out)]) == 2
        rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
        assert [r["value"] for r in rows] == ["5"]
        assert "error: T: must be in [1, inf), got 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run", "--T=5"], ["sweep", "--axis", "T", "--values", "5"]], ids=["run", "sweep"])
def test_out_under_a_file_exits_2_before_running(tmp_path, capsys, monkeypatch, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr("squarm.cli.run", lambda cfg: pytest.fail("a run started"))
    assert main([*command, "--out", str(blocker / "sub")]) == 2
    assert f"error: --out: [Errno 20] Not a directory: '{blocker / 'sub'}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["verify", "--suite", "spectral"], ["presets"]], ids=["verify", "presets"])
def test_extra_arguments_exit_2(capsys, command):
    assert main([*command, "extra"]) == 2
    assert capsys.readouterr() == ("", "error: unexpected arguments: ['extra']\n")


def test_run_and_sweep_outputs_agree(tmp_path, base_config):
    run_out, sweep_out = tmp_path / "run", tmp_path / "sweep"
    assert main(["run", "--config", str(base_config), "--out", str(run_out)]) == 0
    args = ["sweep", "--config", str(base_config), "--axis", "T", "--values", "80", "--out", str(sweep_out)]
    assert main(args) == 0
    last = list(csv.DictReader((run_out / "metrics.csv").read_text().splitlines()))[-1]
    summary = json.loads((run_out / "summary.json").read_text())
    (point,) = csv.DictReader((sweep_out / "sweep.csv").read_text().splitlines())
    assert point.pop("value") == "80"
    assert summary["final"].keys() == point.keys()
    for name, value in point.items():
        assert value == last[name], name
        assert float(value) == summary["final"][name], name
    assert last["t"] == "79"
    assert summary["diagnostics"].keys() == {f.name for f in dataclasses.fields(Diagnostics)}


def test_importing_the_package_loads_no_submodule_and_not_numpy():
    # the library is imported by module (`from squarm import config`); the package binds no names
    probe = "import sys, squarm; print(squarm.__file__); print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('squarm.')))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, env={"PYTHONPATH": str(SRC)}
    )
    assert proc.returncode == 0, proc.stderr
    path, loaded = proc.stdout.splitlines()
    assert Path(path).resolve() == SRC / "squarm" / "__init__.py"
    assert loaded == "[]"


class TestPresets:
    def test_listing(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in ("squarm", "sparq", "choco", "dpsgd", "local_sgd"):
            assert name in out


def test_auto_gamma_refused_for_sign_kinds(tmp_path, base_config, capsys):
    # sign compressors have input-dependent contraction; gamma.omega required
    out = tmp_path / "g"
    code = main(
        [
            "run",
            "--config",
            str(base_config),
            "--out",
            str(out),
            "--compressor.kind=sign_top_k",
            "--compressor.k=1",
            "--gamma.kind=auto_strong",
        ]
    )
    assert code == 2
    assert "gamma.omega" in capsys.readouterr().err
    # with an explicit omega the same config builds and runs
    code = main(
        [
            "run",
            "--config",
            str(base_config),
            "--out",
            str(out),
            "--compressor.kind=sign_top_k",
            "--compressor.k=1",
            "--gamma.kind=auto_strong",
            "--gamma.omega=0.05",
        ]
    )
    assert code == 0


def test_unknown_override_key_exits_2(tmp_path, base_config, capsys):
    # trace: a run's per-step trajectory is not an output, and no key asks for it
    for key, flag in (("bogus", "--bogus=1"), ("trace", "--trace=true")):
        assert main(["run", "--config", str(base_config), "--out", str(tmp_path), flag]) == 2
        assert capsys.readouterr().err == f"error: unknown config key {key!r}\n"
