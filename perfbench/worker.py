"""Fresh processes of the benchmark: a set-up probe or one operation.

    python3 perfbench/worker.py setup --root ROOT [--config CONFIG]
    python3 perfbench/worker.py op --root ROOT --op JSON [--trace 0|1] [--spans SPANS]

`setup` times what a user pays before the first operation in a fresh
interpreter: `import memesim`, loading the run config and `init_world`.
`op` runs one planned operation in a fresh interpreter, as a user's
`memesim` command would, and prints its wall and CPU time, the process's
peak resident set and the digests of what it wrote.  Only the call into
memesim is timed.  With --trace 1 memesim is patched to record spans, and
the time spent in the tracer's own accounting hooks is left out of the
operation's wall time.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from checks import digest_dir


def setup_probe(root: Path, config) -> float:
    start = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    from memesim import cli, engine

    if config is not None:
        sim_config, _, _ = cli.load_run_config(config)
        engine.init_world(sim_config)
    return time.perf_counter() - start


def run_op(cli, op: dict) -> None:
    """Execute one planned operation; raise if a command reports failure."""
    out = Path(op["out"])
    if op["kind"] == "simulate":
        codes = [cli.cmd_simulate(op["config"], out, seed_override=op["master_seed"])]
    elif op["kind"] == "sweep":
        codes = [cli.cmd_sweep(op["config"], out)]
    else:
        codes = [cli.cmd_analyze(op["log"], op["bin"], out),
                 cli.cmd_fit(op["logistic"], "logistic", out / "logistic.json"),
                 cli.cmd_fit(op["ols"], "ols", out / "ols.json")]
    if any(codes):
        raise RuntimeError(f"command exit codes {codes}")


def measure_op(op: dict, tracer=None) -> dict:
    from memesim import cli

    error = None
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        run_op(cli, op)
    except Exception:  # a crash is recorded as a failed operation
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    if tracer:
        wall -= tracer.hook_s
    out = Path(op["out"])
    record = {"wall_s": wall, "cpu_s": cpu, "error": error,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "digests": digest_dir(out) if out.is_dir() else {}}
    log = out / "events.log"
    if log.is_file():
        record["events"] = log.read_bytes().count(b"\n")
    if not op.get("keep") and out.is_dir():
        shutil.rmtree(out)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "op"))
    parser.add_argument("--root", required=True)
    parser.add_argument("--config", default=None)
    parser.add_argument("--op", help="the operation, as a JSON object")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    root = Path(args.root)

    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_probe(root, args.config)}))
        return 0

    sys.path.insert(0, str(root / "src"))
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    op = json.loads(args.op)
    record = measure_op(op, tracer)
    if tracer is not None:
        record["trace"] = tracer.summary()
        if args.spans:
            tracer.write_spans(args.spans, op["index"])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
