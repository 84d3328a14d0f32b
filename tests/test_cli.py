import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from squarm.cli import main
from squarm.config import KEYS, UNSET
from test_config_properties import bounds

SRC = Path(__file__).resolve().parent.parent / "src"


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
        rows = list(csv.DictReader((out / "metrics.csv").open()))
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
        rows = list(csv.DictReader((out / "metrics.csv").open()))
        assert float(rows[-1]["loss"]) < float(rows[0]["loss"])

    def test_env_seed_fallback(self, tmp_path, base_config, monkeypatch):
        cfg = json.loads(base_config.read_text())
        del cfg["seed"]
        base_config.write_text(json.dumps(cfg))
        monkeypatch.setenv("SQUARM_SEED", "42")
        out = tmp_path / "envseed"
        assert main(["run", "--config", str(base_config), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["seed"] == 42


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

        def reject(token):
            raise AssertionError(f"summary.json holds the non-JSON token {token}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
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

        def reject(token):
            raise AssertionError(f"summary.json holds the non-JSON token {token}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert summary["final"]["t"] == 0

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
        assert proc.stderr.startswith(f"error: {key}") and "Traceback" not in proc.stderr, proc.stderr
        assert "compressor.kind" not in proc.stderr and "Warning" not in proc.stderr

    @pytest.mark.parametrize(
        "key, flags",
        [
            ("objective.d", ["--objective.d=10000000000", "--T=2"]),
            ("objective.batch_size", ["--objective.kind=least_squares", "--objective.batch_size=100000000000", "--T=2"]),
        ],
    )
    def test_sizes_too_large_to_allocate_exit_2_before_allocating(self, tmp_path, key, flags):
        proc = subprocess.Popen(
            [sys.executable, "-m", "squarm", "run", "--out", str(tmp_path), *flags],
            stderr=subprocess.PIPE, text=True, env={"PYTHONPATH": str(SRC)},
        )
        _, status, usage = os.wait4(proc.pid, 0)  # the rusage of this child alone
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.returncode == 2, stderr
        assert stderr.startswith(f"error: {key}") and "Traceback" not in stderr, stderr
        assert usage.ru_maxrss < 200_000, usage.ru_maxrss  # KiB: no trial allocation of the array

    @pytest.mark.parametrize(
        "kind, key",
        [
            ("--compressor.kind=top_k", "compressor.k"),
            ("--compressor.kind=qsgd", "compressor.s"),
            ("--lr.kind=constant", "lr.eta"),
            ("--lr.kind=decaying", "lr.b"),
            ("--threshold.kind=poly", "threshold.c0"),
            ("--threshold.kind=piecewise", "threshold.init"),
            ("--topology.kind=custom", "topology.edges"),
            # mu of an objective that is not strongly convex is left to lr.mu
            ("--lr.kind=auto_decaying --objective.kind=least_squares", "lr.mu"),
        ],
    )
    def test_keys_a_kind_requires_are_named(self, tmp_path, capsys, kind, key):
        assert main(["run", "--out", str(tmp_path), "--T=1", *kind.split()]) == 2
        assert capsys.readouterr().err == f"error: missing config key {key!r}\n"

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


class TestVerify:
    def test_spectral_suite_passes(self, capsys):
        assert main(["verify", "--suite", "spectral"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out and "FAIL" not in out

    def test_schedules_suite_passes(self):
        assert main(["verify", "--suite", "schedules"]) == 0


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
        rows = list(csv.DictReader((out / "sweep.csv").open()))
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
    assert (
        main(["run", "--config", str(base_config), "--out", str(tmp_path), "--bogus=1"])
        == 2
    )
    assert "bogus" in capsys.readouterr().err
