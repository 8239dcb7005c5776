"""memesim benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a memesim checkout.  Inputs are generated from the
seed into `.perfbench_work/` (removed afterwards); each measured
operation runs in a fresh worker process.  With --trace 0 the last line
of standard output is a JSON object with the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics of a
traced run instead.  Every operation's outputs are checked, and the exit
code is 1 when any check fails.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import checks
import gen

WORKLOADS = ("subcritical", "supercritical", "sweep", "analyze_fit")
SETUP_PROBES = 7
PLAN_LENGTH = 400   # more operations than a run of 60 s can reach
CHILD_TIMEOUT_S = 170
# Trace counts that are maxima over a run rather than totals.
PEAK_COUNTS = ("active_pairs.peak", "logistic_fit.iterations")
HERE = Path(__file__).resolve().parent
# One BLAS thread per process.  With OpenBLAS's default of one thread per
# CPU, identical analyze_fit operations on a shared 2-CPU machine spread
# 0.20 in wall time, against 0.05 with one thread (README.md, Machine).
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}


def prepare(workload: str, seed: int, work: Path, root: Path) -> dict:
    """Generate the workload's inputs; return the op plan and expectations."""
    default = root / "configs" / "default.json"
    prep = {"expected": {}, "inputs": {}, "setup_config": None}
    if workload in ("subcritical", "supercritical"):
        config = gen.simulate_config(workload, default, work)
        prep["setup_config"] = str(config)
        seeds = itertools.cycle(gen.pool_order(seed, gen.SIM_POOL))
        prep["ops"] = [{"kind": "simulate", "config": str(config),
                        "master_seed": next(seeds),
                        "keep": workload == "subcritical"}
                       for _ in range(PLAN_LENGTH)]
    elif workload == "sweep":
        order = gen.pool_order(seed, gen.SWEEP_POOL)
        configs = [gen.sweep_config(default, ms, work / f"sweep-{ms}.json")
                   for ms in order]
        prep["setup_config"] = str(configs[0])
        prep["ops"] = [{"kind": "sweep", "config": str(configs[i % len(order)]),
                        "master_seed": order[i % len(order)]}
                       for i in range(PLAN_LENGTH)]
    else:
        log = gen.make_log(seed, work / "access.log")
        fits = {model: gen.make_fit_table(seed, model, work / f"{model}.csv")
                for model in ("logistic", "ols")}
        prep["expected"] = {"log": log, **fits}
        prep["inputs"] = {"log_lines": log["lines"], "log_bytes": log["bytes"],
                          **{f"{m}_rows": f["rows"] for m, f in fits.items()},
                          **{f"{m}_bytes": f["bytes"] for m, f in fits.items()}}
        prep["ops"] = [{"kind": "analyze_fit", "log": str(work / "access.log"),
                        "bin": gen.LOG_BIN, "logistic": str(work / "logistic.csv"),
                        "ols": str(work / "ols.csv"), "keep": True}
                       for _ in range(PLAN_LENGTH)]
    return prep


def run_ops(root: Path, prep: dict, ops_dir: Path, seconds: float, trace: int,
            max_ops=None, spans=None) -> dict:
    """Run planned operations, each in a fresh process, one at a time, until
    their summed wall time reaches `seconds` or `max_ops` have run."""
    ops_dir.mkdir(parents=True)
    plan, records = [], []
    measured = 0.0
    for i, op in enumerate(prep["ops"][:max_ops]):
        if records and measured >= seconds:
            break
        op = {**op, "index": i, "out": str(ops_dir / f"{i:03d}")}
        cmd = [sys.executable, str(HERE / "worker.py"), "op", "--root", str(root),
               "--op", json.dumps(op), "--trace", str(trace)]
        if spans:
            cmd += ["--spans", str(spans)]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=WORKER_ENV,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed on op {i}:\n{proc.stderr}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        record["master_seed"] = op.get("master_seed")
        measured += record["wall_s"]
        plan.append(op)
        records.append(record)
    return {"plan": plan, "ops": records}


def setup_times(root: Path, config) -> list:
    """Set-up cost measured in SETUP_PROBES fresh interpreters, one at a time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "setup", "--root", str(root)]
    if config:
        cmd += ["--config", config]
    return [json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True,
                                      env=WORKER_ENV, timeout=CHILD_TIMEOUT_S
                                      ).stdout)["setup_s"]
            for _ in range(SETUP_PROBES)]


def check_ops(workload: str, result: dict, expected: dict, pins: dict) -> int:
    """Check every operation's outputs; store problems per op; return failures."""
    failed = 0
    for op, record in zip(result["plan"], result["ops"]):
        if record["error"]:
            problems = [record["error"].strip().splitlines()[-1]]
        elif workload == "analyze_fit":
            out = Path(op["out"])
            problems = (checks.check_analyze(out, expected["log"])
                        + checks.check_fit(out / "logistic.json", expected["logistic"])
                        + checks.check_fit(out / "ols.json", expected["ols"]))
        else:
            pinned = pins.get(workload, {}).get(str(op["master_seed"]))
            problems = checks.check_pinned(record["digests"], pinned)
            if workload == "subcritical" and not problems:
                problems = checks.check_closure(op["out"])
        record["problems"] = problems
        failed += bool(problems)
    return failed


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def end_to_end(result: dict, setups: list) -> dict:
    ops = result["ops"]
    return {"wall_s": (statistics.median(r["wall_s"] for r in ops), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in ops), "MiB")}


def merge_traces(ops: list) -> dict:
    """Sum the per-process trace summaries of a run's operations."""
    merged = {"calls": Counter(), "busy_s": Counter(), "self_s": Counter(),
              "counts": Counter(), "step_ms": []}
    for record in ops:
        t = record["trace"]
        for key in ("calls", "busy_s", "self_s"):
            merged[key].update(t[key])
        for name, value in t["counts"].items():
            if name in PEAK_COUNTS:
                merged["counts"][name] = max(merged["counts"][name], value)
            else:
                merged["counts"][name] += value
        merged["step_ms"] += t["step_ms"]
    return merged


def per_layer(t: dict, traced: dict, untraced: dict) -> dict:
    """Per-layer metrics from the merged trace `t` of the traced run.  Times
    are shares of the traced operations' wall time, counts are per operation."""
    busy, self_s, calls, counts = t["busy_s"], t["self_s"], t["calls"], t["counts"]
    n = len(traced["ops"])
    wall = sum(r["wall_s"] for r in traced["ops"])

    def pct(table, name):
        return (100.0 * table.get(name, 0.0) / wall, "%")

    def per_op(value):
        return (value / n, "count/op")

    def rate(num, den):
        return num / den if den else 0.0

    m = {}
    for phase in ("recruit_step", "walk_step", "share_step", "recovery_step"):
        m[f"engine.{phase}.busy_pct"] = pct(busy, f"engine.{phase}")
    m["engine.step.calls"] = per_op(calls.get("engine.step", 0))
    m["engine.wrap_coords.busy_pct"] = pct(busy, "engine.wrap_coords")
    m["core.RngStream.uniforms.busy_pct"] = pct(busy, "core.RngStream.uniforms")
    m["core.RngStream.uniforms.draws"] = per_op(counts.get("uniforms.draws", 0))
    for part in ("build", "query"):
        m[f"engine.UniformGrid.{part}.busy_pct"] = pct(busy, f"engine.UniformGrid.{part}")
        m[f"engine.UniformGrid.{part}.calls"] = per_op(calls.get(f"engine.UniformGrid.{part}", 0))
    decisions = counts.get("share_step.decisions", 0)
    m["engine.share_step.decisions"] = per_op(decisions)
    m["engine.share_step.share_ratio"] = (rate(counts.get("engine.shares", 0), decisions), "ratio")
    m["engine.events"] = per_op(counts.get("engine.events", 0))
    m["engine.events_per_s"] = (rate(counts.get("engine.events", 0),
                                     busy.get("engine.run", 0.0)), "1/s")
    m["engine.active_pairs.peak"] = (counts.get("active_pairs.peak", 0), "count")
    m["engine.perception_noise_batch.busy_pct"] = pct(busy, "engine.perception_noise_batch")
    m["decision.sigmoid_array.busy_pct"] = pct(busy, "decision.sigmoid_array")
    log_write = "engine.SimOutput.write_event_log"
    m[f"{log_write}.busy_pct"] = pct(busy, log_write)
    m[f"{log_write}.bytes_per_s"] = (rate(counts.get("write_event_log.bytes", 0),
                                          busy.get(log_write, 0.0)), "B/s")
    m["plot.render_time_series_svg.busy_pct"] = pct(busy, "plot.render_time_series_svg")
    m["logio.parse_line.busy_pct"] = pct(busy, "logio.parse_line")
    m["logio.parse_line.calls"] = per_op(calls.get("logio.parse_line", 0))
    m["logio.aggregate_hits.self_pct"] = pct(self_s, "logio.aggregate_hits")
    m["logio.writers.busy_pct"] = pct(busy, "logio.writers")
    for name in ("load_design_csv", "logistic_fit", "ols_fit"):
        m[f"stats.{name}.busy_pct"] = pct(busy, f"stats.{name}")
    m["stats.logistic_fit.iterations"] = (counts.get("logistic_fit.iterations", 0), "count")
    m["cli.load_run_config.busy_pct"] = pct(busy, "cli.load_run_config")
    m["engine.run.busy_pct"] = pct(busy, "engine.run")
    m["engine.run.calls"] = per_op(calls.get("engine.run", 0))
    m["cli.cmd_sweep.self_pct"] = pct(self_s, "cli.cmd_sweep")
    cpu = sum(r["cpu_s"] for r in untraced["ops"])
    plain_wall = sum(r["wall_s"] for r in untraced["ops"])
    m["proc.cpu_s"] = (cpu / len(untraced["ops"]), "s")
    m["proc.cpu_util"] = (cpu / plain_wall, "ratio")
    m["trace.wall_ratio"] = (wall / plain_wall, "ratio")
    return m


def trace_details(t: dict, traced: dict, untraced: dict) -> dict:
    """Absolute busy and self times, per-tick latency and tracing overhead,
    for the human-readable report."""
    overhead = (statistics.median(r["wall_s"] for r in traced["ops"])
                - statistics.median(r["wall_s"] for r in untraced["ops"]))
    out = {"trace overhead (traced - untraced wall_s)": f"{overhead:.4f} s"}
    for name in sorted(t["busy_s"]):
        out[f"{name} busy / self"] = f"{t['busy_s'][name]:.4f} / {t['self_s'][name]:.4f} s"
    # The median and the highest percentile with at least ten ticks beyond it.
    n = len(t["step_ms"])
    tail = next((p for p in (99, 90) if n * (100 - p) >= 1000), None)
    if tail:
        q = statistics.quantiles(t["step_ms"], n=100)
        out[f"engine.step ms p50 / p{tail}"] = (f"{q[49]:.4f} / {q[tail - 1]:.4f} ms"
                                                f" over {n} ticks")
    return out


def print_report(workload, seed, trace, results, metrics, extra):
    print(f"memesim benchmark: workload={workload} seed={seed} trace={trace}")
    for label, result in results.items():
        walls = [r["wall_s"] for r in result["ops"]]
        q = quartiles(walls)
        events = [r["events"] for r in result["ops"] if "events" in r]
        print(f"  {label}: {len(walls)} ops, wall per op median {q[1]:.4f} s"
              f" (quartiles {q[0]:.4f} .. {q[2]:.4f} s)"
              + (f", events per op {min(events)} .. {max(events)}" if events else ""))
        for i, r in enumerate(result["ops"]):
            if r.get("problems"):
                print(f"    op {i} (master seed {r['master_seed']}) FAILED: "
                      + "; ".join(r["problems"]))
    for name, value in extra.items():
        print(f"  {name:<44} {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="memesim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "memesim" / "__init__.py").is_file() \
            or not (root / "configs" / "default.json").is_file():
        print(f"perfbench: {root} is not a memesim checkout "
              "(needs src/memesim and configs/default.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    pins = json.loads((HERE / "pins.json").read_text())

    base = root / ".perfbench_work"
    work = base / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        prep = prepare(args.workload, args.seed, work, root)
        untraced = run_ops(root, prep, work / "untraced", args.seconds, 0)
        failed = check_ops(args.workload, untraced, prep["expected"], pins)
        results = {"untraced": untraced}
        attempted = len(untraced["ops"])
        if args.trace:
            (base / "traces").mkdir(exist_ok=True)
            spans = base / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            spans.unlink(missing_ok=True)
            # The same operations as the untraced run, however long they take.
            traced = run_ops(root, prep, work / "traced", float("inf"), 1,
                             max_ops=attempted, spans=spans)
            failed += check_ops(args.workload, traced, prep["expected"], pins)
            attempted += len(traced["ops"])
            results["traced"] = traced
            trace = merge_traces(traced["ops"])
            metrics = per_layer(trace, traced, untraced)
            extra = trace_details(trace, traced, untraced)
            extra["spans written to"] = str(spans.relative_to(root))
        else:
            setups = setup_times(root, prep["setup_config"])
            metrics = end_to_end(untraced, setups)
            extra = {"fail_frac": f"{failed / attempted:.6g} ratio",
                     "setup_s samples": " ".join(f"{s:.4f}" for s in setups)}
        extra.update({f"input {k}": v for k, v in prep["inputs"].items()})
        print_report(args.workload, args.seed, args.trace, results, metrics, extra)
        (base / "reports").mkdir(exist_ok=True)
        (base / "reports" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps({"inputs": prep["inputs"], "results": results,
                                  "metrics": metrics}, indent=1))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
