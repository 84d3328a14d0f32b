"""Benchmark loop, metrics and report.

One caller drives the library in a closed loop: each repeat makes the
three public calls in turn (set-up, engine.run, emission) and the next
repeat starts only after the previous one ends. Repeats continue until the
measuring time is spent. With --trace 0 every repeat is untraced and the
run reports the end-to-end metrics; with --trace 1 untraced and traced
repeats alternate and the run reports per-layer metrics from the traced
ones, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from squarm import config, engine, objective

import gate
import spans
from machine import machine_block
from workloads import DEFAULT_SEED, ROOT, SPEC, WORKLOADS, Workload

# name -> (unit, better), as BENCHMARK.json lists them
END_TO_END = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
_NODE_FUNCS = ("local_step", "should_trigger", "apply_incoming", "consensus_step", "encode_update")

WARMUP_T = 100  # steps of the untimed first repeat; shorter runs get a step size that diverges


@dataclass
class Repeat:
    cfg: engine.RunConfig
    warnings: list[str]
    result: engine.RunResult
    csv: str
    summary: str
    setup_s: float
    run_s: float
    emit_s: float


def one_repeat(workload: Workload, seed: int, T: int | None = None) -> Repeat:
    """One closed-loop run: set-up, engine.run and emission, each timed."""
    clock = time.perf_counter
    t0 = clock()
    cfg, warnings = config.build_run_config(workload.flat(seed, T))
    t1 = clock()
    result = engine.run(cfg)
    t2 = clock()
    csv_text = engine.metrics_csv(result)
    summary = engine.summary_json(result)
    t3 = clock()
    return Repeat(cfg, warnings, result, csv_text, summary, t1 - t0, t2 - t1, t3 - t2)


def traced_repeat(workload: Workload, seed: int, T: int | None = None) -> tuple[Repeat, dict, list[str]]:
    """one_repeat under the span wrappers: the repeat, span totals per name,
    and the patched attributes that were not restored afterwards."""
    before = spans.originals()
    log = spans.SpanLog()
    with spans.patched(log):
        rep = one_repeat(workload, seed, T)
    return rep, log.totals(), spans.not_restored(before)


def final_gap(rows, T: int, f_star: float) -> float:
    """Mean of f(xbar_t) - f* over the metric rows of the run's second half.

    One row alone spreads 8-80% across seeds (the stationary noise of xbar
    in d dimensions); the second-half mean spreads a few percent."""
    return statistics.fmean(r.loss for r in rows if r.t >= T // 2) - f_star


def layer_metrics(totals: dict, rep: Repeat) -> dict:
    """Per-layer metrics of one traced repeat (trace.overhead_s is added later)."""

    def get(span: str, key: str):
        return totals.get(span, {}).get(key, 0)

    last = rep.result.rows[-1]
    tests = get("node.should_trigger", "calls")
    out = {
        "objective.stochastic_grad.calls": get("objective.stochastic_grad", "calls"),
        "objective.stochastic_grad.self_s": get("objective.stochastic_grad", "self_s"),
        "objective.loss.self_s": get("objective.loss", "self_s"),
        "objective.full_grad_global.self_s": get("objective.full_grad_global", "self_s"),
        "objective.grad_bytes": get("objective.stochastic_grad", "calls") * rep.cfg.objective.quad_a.nbytes,
        "objective.quadratic_objective.s": get("objective.quadratic_objective", "total_s"),
        "topology.spectral_quantities.s": get("topology.spectral_quantities", "total_s"),
        "config.build_run_config.self_s": get("config.build_run_config", "self_s"),
    }
    for f in _NODE_FUNCS:
        out[f"node.{f}.calls"] = get(f"node.{f}", "calls")
        out[f"node.{f}.self_s"] = get(f"node.{f}", "self_s")
    out.update(
        {
            "compress.compress.calls": get("compress.compress", "calls"),
            "compress.compress.self_s": get("compress.compress", "self_s"),
            "compress.decode.self_s": get("compress.decode", "self_s"),
            "compress.bit_cost.self_s": get("compress.bit_cost", "self_s"),
            "compress.bits_per_message": rep.result.total_bits / last.triggers if last.triggers else 0,
            "engine.run.self_s": get("engine.run", "self_s"),
            "engine.virtual_residual.self_s": get("engine.virtual_residual", "self_s"),
            "engine.mean_preservation_check.self_s": get("engine.mean_preservation_check", "self_s"),
            "engine.emit_s": get("engine.metrics_csv", "total_s") + get("engine.summary_json", "total_s"),
            "engine.sync_rounds": rep.cfg.T // rep.cfg.H,
            "engine.triggers": last.triggers,
            "engine.fire_ratio": last.triggers / tests if tests else 0,
            "engine.messages": last.messages,
            "schedule.eta_at.calls": get("schedule.eta_at", "calls"),
            "schedule.threshold_at.calls": get("schedule.threshold_at", "calls"),
        }
    )
    return out


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and bool(self.metrics)


@dataclass
class Samples:
    """What a run keeps of its repeats: timings, per-layer values, and what
    the first completed repeat fixes for all the others."""

    setup: list[float] = field(default_factory=list)
    run: list[float] = field(default_factory=list)
    emit: list[float] = field(default_factory=list)
    traced_run: list[float] = field(default_factory=list)
    layers: dict[str, list] = field(default_factory=dict)
    csv: str | None = None
    node_steps: int = 0
    bits_total: int = 0
    final_gap: float = 0.0
    last_row_gap: float = 0.0


def _timing_note(samples: list[float]) -> str:
    k = len(samples)
    note = f"median of {k} runs, min {min(samples):.6g}, max {max(samples):.6g}"
    # the highest percentile with at least ten samples beyond it
    p = int(100 * (1 - 10 / k)) if k >= 20 else 0
    if p >= 50:
        note += f", p{p} {statistics.quantiles(samples, n=100)[p - 1]:.6g}"
    return note


def _record(samples: Samples, workload: Workload, rep: Repeat, totals: dict | None) -> list[str]:
    """Gate one completed repeat and keep its numbers; returns the problems found."""
    problems = gate.check(workload, rep.cfg, rep.result, rep.csv, rep.summary)
    if samples.csv is None:
        f_star = objective.optimum(rep.cfg.objective)[1]
        samples.csv = rep.csv
        samples.node_steps = rep.cfg.topology.n * rep.cfg.T
        samples.bits_total = rep.result.total_bits
        samples.final_gap = final_gap(rep.result.rows, rep.cfg.T, f_star)
        samples.last_row_gap = rep.result.rows[-1].loss - f_star
    elif rep.csv != samples.csv:
        why = "tracer is not transparent" if totals is not None else "run is not deterministic"
        problems.append(f"metrics_csv differs from the first repeat's: {why}")
    if totals is not None:
        samples.traced_run.append(rep.run_s)
        for name, value in layer_metrics(totals, rep).items():
            samples.layers.setdefault(name, []).append(value)
    else:
        samples.setup.append(rep.setup_s)
        samples.run.append(rep.run_s)
        samples.emit.append(rep.emit_s)
    return problems


def _end_to_end(s: Samples) -> tuple[dict, dict]:
    """(metrics, notes) of a --trace 0 run."""
    run_s = statistics.median(s.run)
    metrics = {
        "node_steps_per_s": s.node_steps / run_s,
        "run_s": run_s,
        "setup_s": statistics.median(s.setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "bits_total": s.bits_total,
        "final_gap": s.final_gap,
    }
    notes = {
        "node_steps_per_s": f"n*T = {s.node_steps} node-steps / run_s",
        "run_s": _timing_note(s.run),
        "setup_s": _timing_note(s.setup),
        "peak_rss_mb": "process high-water mark, one repeat held at a time",
        "bits_total": "exact, broadcast accounting",
        "final_gap": f"mean f(xbar_t) - f* over t >= T/2; at t = T-1 alone it is {s.last_row_gap:.6g}",
    }
    return metrics, notes


def _per_layer(s: Samples) -> tuple[dict, dict]:
    """(metrics, notes) of a --trace 1 run."""
    # times vary between repeats; counts are exact and the same in every repeat
    m = {name: statistics.median(v) if PER_LAYER[name][0] == "s" else v[0] for name, v in s.layers.items()}
    traced, untraced = statistics.median(s.traced_run), statistics.median(s.run)
    m["trace.overhead_s"] = traced - untraced
    tests = m["node.should_trigger.calls"]
    notes = {
        "objective.grad_bytes": f"{m['objective.stochastic_grad.calls']} calls x A.nbytes",
        "compress.bits_per_message": f"bits_total {s.bits_total} / triggers {m['engine.triggers']}",
        "engine.sync_rounds": f"T // H, of {s.node_steps} node-steps",
        "engine.triggers": f"of {tests} trigger tests",
        "engine.fire_ratio": f"triggers {m['engine.triggers']} / trigger tests {tests}",
        "engine.messages": "broadcast accounting: one per trigger",
        "trace.overhead_s": f"traced run_s {traced:.6g} - untraced run_s {untraced:.6g}"
        f" ({len(s.traced_run)} traced, {len(s.run)} untraced runs)",
    }
    return m, notes


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> Outcome:
    """Closed-loop repeats of one workload for `seconds`; prints one line per repeat."""
    clock = time.perf_counter
    one_repeat(workload, seed, T=WARMUP_T)
    print(f"config {json.dumps(workload.flat(seed), sort_keys=True)}")

    outcome, samples, walls = Outcome(), Samples(), []
    kinds = itertools.cycle((False, True)) if trace else itertools.repeat(False)
    min_repeats = 4 if trace else 3
    start = clock()
    while outcome.attempted < min_repeats or clock() - start + statistics.median(walls) <= seconds:
        traced = next(kinds)
        outcome.attempted += 1
        began = clock()
        problems = []
        try:
            if traced:
                rep, totals, unrestored = traced_repeat(workload, seed)
                if unrestored:
                    problems.append(f"attributes not restored after tracing: {unrestored}")
            else:
                rep, totals = one_repeat(workload, seed), None
        except Exception:  # a run that raises is a failed run; the loop goes on
            problems.append(traceback.format_exc(limit=-3).strip())
        else:
            if samples.csv is None:
                print(f"config warnings {json.dumps(rep.warnings)}")
            problems += _record(samples, workload, rep, totals)
            print(
                f"repeat {outcome.attempted}{' traced' if traced else ''}: set-up {rep.setup_s:.6f} s,"
                f" run {rep.run_s:.6f} s, emit {rep.emit_s:.6f} s, {'FAILED' if problems else 'ok'}"
            )
        if problems:
            outcome.failed += 1
            print(f"repeat {outcome.attempted} failed:")
            for p in problems:
                print(f"  {p}")
        rep = totals = None  # hold one repeat at a time, so peak RSS is one repeat's
        gc.collect()
        walls.append(clock() - began)

    if not samples.run or (trace and not samples.traced_run):
        print("no repeat completed; no metrics")
        return outcome
    if trace:
        outcome.metrics, notes = _per_layer(samples)
    else:
        outcome.metrics, notes = _end_to_end(samples)
        print(f"emit_s {statistics.median(samples.emit):.6g} s ({_timing_note(samples.emit)})")
    for name, (unit, better) in (PER_LAYER if trace else END_TO_END).items():
        note = f"  [{notes[name]}]" if name in notes else ""
        print(f"metric {name} = {outcome.metrics[name]!r} {unit} ({better} is better){note}")
    return outcome


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS is that workload's alone;
    the last line merges the results, with metric names prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run_bench.py")), *argv], stdout=subprocess.PIPE, text=True
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {name} exited with code {proc.returncode} and no result")
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{key}": value for key, value in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description="squarm benchmark: closed-loop runs of one workload")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.stdout.reconfigure(line_buffering=True)  # progress lines show as they are made
    if args.workload == "all":
        return _run_all(args)

    workload = WORKLOADS[args.workload]
    print(f"machine {json.dumps(machine_block(ROOT, args.seed))}")
    print(f"workload {workload.name} seed {args.seed} trace {args.trace} seconds {args.seconds:g}: {workload.why}")
    outcome = measure(workload, args.seed, args.seconds, bool(args.trace))
    print(f"runs attempted {outcome.attempted}, failed {outcome.failed}")
    table = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": value, "unit": table[name][0]} for name, value in outcome.metrics.items()}
    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted, "failed": outcome.failed, "metrics": metrics}))
    return 0 if outcome.correct else 1
