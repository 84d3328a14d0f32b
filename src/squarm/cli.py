"""Command-line entry point.

Commands:
  run      execute one experiment from a config file (plus overrides) and
           write metrics.csv / summary.json
  verify   run the property suites and print a pass/fail table
  sweep    repeat a run over one axis (T, n, H, k) and aggregate finals
  presets  list named baseline configurations

Configs are flat JSON objects with dotted keys; any key can be overridden
with --key=value (flags win over the file, the file wins over a preset).
Exit codes: 0 success, 1 verification/run failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .compress import SPARSE_KINDS
from .config import build_run_config, merged
from .engine import FINAL_FIELDS, RunResult, csv_line, derived_constants, metrics_csv, run, summary_json
from .errors import DivergenceError, SquarmError
from .presets import PRESETS, preset
from .verify import SUITES, run_suites

USAGE_EXIT = 2
FAIL_EXIT = 1
# sweep --axis: each axis name and the config key it sets
SWEEP_AXES = {"T": "T", "n": "topology.n", "H": "H", "k": "compressor.k"}


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_overrides(extras: list[str]) -> dict:
    out = {}
    for item in extras:
        if not item.startswith("--") or "=" not in item:
            raise SquarmError(f"unrecognized argument {item!r} (expected --key=value)")
        key, _, value = item[2:].partition("=")
        out[key] = _parse_value(value)
    return out


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SquarmError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise SquarmError(f"config {path} must be a JSON object")
    return data


def _assemble(args, extras: list[str]) -> dict:
    layers = []
    if getattr(args, "preset", None):
        layers.append(preset(args.preset))
    layers.append(_load_config_file(getattr(args, "config", None)))
    layers.append(_parse_overrides(extras))
    return merged(*layers)


def _run(flat: dict, label: str = "") -> tuple[RunResult, bool]:
    """(result, diverged) of one run; a divergent run yields its partial result."""
    cfg, warnings = build_run_config(flat)
    for w in warnings:
        print(f"warning{label}: {w}", file=sys.stderr)
    try:
        return run(cfg), False
    except DivergenceError as exc:
        print(f"run diverged{label}: {exc}", file=sys.stderr)
        return exc.partial, True


def _write(out_dir: str, files: dict[str, str]) -> None:
    """Create out_dir if it is missing and write each named file in it; a
    path that cannot be written is a usage error naming it."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text)
    except OSError as exc:
        raise SquarmError(f"--out: {exc}") from None


def cmd_run(args, extras) -> int:
    flat = _assemble(args, extras)
    _write(args.out, {})  # a bad --out fails before the run, not after it
    result, diverged = _run(flat)
    _write(args.out, {"metrics.csv": metrics_csv(result), "summary.json": summary_json(result)})
    if diverged:
        return FAIL_EXIT
    last = result.rows[-1]
    derived = derived_constants(result.config)
    print(f"final t={last.t} loss={last.loss:.6g} consensus={last.consensus:.6g} bits={result.total_bits}")
    print(
        "derived: "
        + " ".join(
            f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in derived.items()
        )
    )
    return 0


def cmd_verify(args, extras) -> int:
    if extras:
        raise SquarmError(f"unexpected arguments: {extras}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks = run_suites(names)
    width = max(len(name) for name, _, _ in checks)
    failed = [c for c in checks if not c[1]]
    for name, ok, detail in checks:
        status = "pass" if ok else "FAIL"
        line = f"{name:<{width}}  {status}"
        if detail and not ok:
            line += f"  ({detail})"
        print(line)
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    if failed:
        print(f"first failure: {failed[0][0]} {failed[0][2]}", file=sys.stderr)
        return FAIL_EXIT
    return 0


def cmd_sweep(args, extras) -> int:
    flat = _assemble(args, extras)
    axis_key = SWEEP_AXES[args.axis]
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise SquarmError("sweep needs a non-empty comma-separated --values list")
    if args.axis == "k" and flat["compressor.kind"] not in SPARSE_KINDS:
        raise SquarmError(
            f"--axis k: compressor.kind {flat['compressor.kind']!r} reads no k"
            f" (the kinds that do: {', '.join(SPARSE_KINDS)})"
        )
    _write(args.out, {})
    lines = [csv_line(("value", *FINAL_FIELDS))]
    code = 0
    try:
        for value in values:
            point = dict(flat)
            point[axis_key] = _parse_value(value)
            result, diverged = _run(point, f" ({args.axis}={value})")
            if diverged:
                code = FAIL_EXIT
                break
            last = result.rows[-1]
            lines.append(csv_line((value, *(getattr(last, name) for name in FINAL_FIELDS))))
            print(f"{args.axis}={value}: loss={last.loss:.6g} bits={last.bits_cum}")
            del result, last  # the next point builds and runs without this one's rows
    finally:  # a divergent or refused point keeps the points finished so far
        _write(args.out, {"sweep.csv": "\n".join(lines) + "\n"})
    return code


def cmd_presets(args, extras) -> int:
    if extras:
        raise SquarmError(f"unexpected arguments: {extras}")
    for name in sorted(PRESETS):
        keys = ", ".join(f"{k}={v}" for k, v in sorted(PRESETS[name].items()))
        print(f"{name}: {keys}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="squarm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("--config", help="flat JSON config file")
    p_run.add_argument("--preset", help="named baseline to start from")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run property suites")
    p_verify.add_argument(
        "--suite", default="all", choices=["all", *SUITES.keys()], help="which suite"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="run one config across an axis")
    p_sweep.add_argument("--config", help="flat JSON config file")
    p_sweep.add_argument("--preset", help="named baseline to start from")
    p_sweep.add_argument("--axis", required=True, choices=list(SWEEP_AXES))
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", default=".", help="output directory")
    p_sweep.set_defaults(func=cmd_sweep)

    p_presets = sub.add_parser("presets", help="list named baselines")
    p_presets.set_defaults(func=cmd_presets)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args, extras = parser.parse_known_args(argv)
    try:
        return args.func(args, extras)
    except SquarmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
