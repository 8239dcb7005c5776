"""Batch front door: simulate, sweep, fit, analyze.

Exit codes are fixed for scripting: 0 success, 2 config violation (every
violated field named), 3 I/O or memory failure or a sweep worker process
that died, 4 data error from the stats or log layers (first token of the
stderr line is a machine-readable reason).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import fields as dataclass_fields, replace
from pathlib import Path

from . import engine, logio, stats
from .core import ConfigurationError, InputError, substream_seed
from .decision import SharingModel
from .engine import SimConfig
from .plot import Panel, render_time_series_svg

_MODEL_KEYS = tuple(f.name for f in dataclass_fields(SharingModel))
_SIM_KEYS = {f.name for f in dataclass_fields(SimConfig)}
_TOP_KEYS = _SIM_KEYS | {"sweep", "output_dir"}
_SWEEP_KEYS = {"axes", "replicates"}
_SUMMARY_BIN_WIDTH = 10  # summary.json records it; simulate and sweep bin nothing


# ---------------------------------------------------------------------------
# Config loading (strict schema)
# ---------------------------------------------------------------------------

def load_run_config(path):
    """Parse a run-config JSON file; returns (SimConfig, sweep|None, out_dir|None).

    Unknown keys are rejected and every SimConfig invariant is revalidated.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"{path} is not valid UTF-8 JSON: {exc}",
                                     fields=("<document>",)) from None
    if not isinstance(doc, dict):
        raise ConfigurationError("config root must be a JSON object",
                                 fields=("<document>",))
    unknown = sorted(set(doc) - _TOP_KEYS)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}",
                                 fields=unknown)

    config = _apply_point(SimConfig(), {k: v for k, v in doc.items() if k in _SIM_KEYS})
    config.ensure_valid()

    sweep = None
    if "sweep" in doc:
        sweep = _parse_sweep(doc["sweep"], config)
    out_dir = doc.get("output_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigurationError("output_dir must be a string",
                                 fields=("output_dir",))
    return config, sweep, out_dir


def _parse_sweep(value, config: SimConfig):
    """The sweep section as (axis names, runs): one (axis values, run config)
    per point and replicate, point-major.  Every point must be a valid config."""
    if not isinstance(value, dict):
        raise ConfigurationError("sweep must be an object", fields=("sweep",))
    unknown = sorted(set(value) - _SWEEP_KEYS)
    if unknown:
        raise ConfigurationError(f"unknown sweep keys: {', '.join(unknown)}",
                                 fields=[f"sweep.{k}" for k in unknown])
    axes = value.get("axes")
    if not isinstance(axes, dict) or not axes:
        raise ConfigurationError("sweep.axes must be a non-empty object",
                                 fields=("sweep.axes",))
    for name, values in axes.items():
        if not _is_sweepable(name):
            raise ConfigurationError(f"{name!r} cannot be a sweep axis",
                                     fields=(f"sweep.axes.{name}",))
        if not isinstance(values, list) or not values:
            raise ConfigurationError(f"sweep axis {name!r} needs a non-empty list",
                                     fields=(f"sweep.axes.{name}",))
    replicates = value.get("replicates", 1)
    if not isinstance(replicates, int) or isinstance(replicates, bool) or replicates < 1:
        raise ConfigurationError("sweep.replicates must be a positive integer",
                                 fields=("sweep.replicates",))
    # Replicate r of every sweep point reuses the same derived seed, so rows
    # of one point differ only in the seed column.
    seeds = [substream_seed(config.master_seed, r) for r in range(replicates)]
    names, runs = list(axes), []
    for values in itertools.product(*axes.values()):
        point = _apply_point(config, dict(zip(names, values)))
        point.ensure_valid()
        runs += [(list(values), replace(point, master_seed=seed)) for seed in seeds]
    return names, runs


def _is_sweepable(name: str) -> bool:
    # Replicates take their seeds from the base master_seed, which would
    # overwrite a master_seed axis.
    if name in _SIM_KEYS and name not in ("sharing_model", "master_seed"):
        return True
    return (name.startswith("sharing_model.")
            and name.split(".", 1)[1] in _MODEL_KEYS)


def _apply_point(config: SimConfig, point: dict) -> SimConfig:
    """`config` with `point` set, whose keys are SimConfig fields or
    sharing_model.<coefficient>; the keys are checked here, values by validate()."""
    overrides = {}
    model_patch = {}
    for name, value in point.items():
        if name == "sharing_model":
            if not isinstance(value, dict):
                raise ConfigurationError("sharing_model must be an object",
                                         fields=("sharing_model",))
            model_patch.update(value)
        elif name.startswith("sharing_model."):
            model_patch[name.split(".", 1)[1]] = value
        else:
            overrides[name] = value
    unknown = sorted(set(model_patch) - set(_MODEL_KEYS))
    if unknown:
        raise ConfigurationError(
            f"unknown sharing_model keys: {', '.join(unknown)}",
            fields=[f"sharing_model.{k}" for k in unknown])
    return replace(config, sharing_model=replace(config.sharing_model, **model_patch),
                   **overrides)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_simulate(config_path, out_dir, seed_override=None) -> int:
    config, _, cfg_out = load_run_config(config_path)
    if seed_override is not None:
        config = replace(config, master_seed=seed_override)
        config.ensure_valid()
    out = _resolve_out_dir(out_dir, cfg_out)

    output = engine.run(config)
    output.write_event_log(out / "events.log")
    output.write_timeseries_csv(out / "timeseries.csv")
    output.write_hits_csv(out / "hits.csv")
    logio.write_summary_json(logio.hit_summary(output.hits[1], _SUMMARY_BIN_WIDTH),
                             out / "summary.json")

    ticks = list(range(len(output.cumulative_exposures)))
    svg = render_time_series_svg([
        Panel("Currently infected", ticks, output.currently_infected.tolist(),
              y_label="(agent, meme) pairs"),
        Panel("Cumulative exposures", ticks, output.cumulative_exposures.tolist(),
              y_label="exposures"),
    ])
    with open(out / "timeseries.svg", "w", encoding="ascii", newline="") as fh:
        fh.write(svg)
    return 0


def cmd_sweep(config_path, out_dir) -> int:
    _, sweep, cfg_out = load_run_config(config_path)
    if sweep is None:
        raise ConfigurationError("config has no sweep section", fields=("sweep",))
    out = _resolve_out_dir(out_dir, cfg_out)
    # Imported here, so that simulate, fit and analyze do not pay for them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    axis_names, runs = sweep
    configs = [run_cfg for _, run_cfg in runs]
    groups = engine.trajectory_groups(configs)
    rows = [None] * len(runs)
    # Forked workers inherit the imported package: spawn or forkserver would
    # re-import numpy in each, and re-run an unguarded __main__ of the caller.
    with ProcessPoolExecutor(max_workers=min(len(groups), os.cpu_count() or 1),
                             mp_context=multiprocessing.get_context("fork")) as pool:
        futures = [pool.submit(_sweep_hits, [configs[i] for i in members])
                   for members in groups]
        try:
            for members, future in zip(groups, futures):
                for i, hits in zip(members, future.result()):
                    values, run_cfg = runs[i]
                    rows[i] = values + [run_cfg.master_seed, *hits]
        except BaseException:
            for future in futures:
                future.cancel()  # so that leaving the pool waits only for running groups
            raise

    logio.write_csv(out / "sweep.csv",
                    ",".join(axis_names + ["seed", "final_cumulative_exposures",
                                           "max_hits", "median_hits"]) + "\n",
                    rows)
    return 0


def _sweep_hits(configs) -> list:
    """(total_hits, max_hits, median_hits) of each run of one trajectory
    group: cmd_sweep's pool worker, so no event block crosses the pipe.
    The last cumulative exposure is total_hits, 0 at horizon 0."""
    summaries = (logio.hit_summary(output.hits[1], _SUMMARY_BIN_WIDTH)
                 for output in engine.run_group(configs))
    return [(s["total_hits"], s["max_hits"], s["median_hits"]) for s in summaries]


def cmd_fit(data_path, model: str, out_path) -> int:
    design = stats.load_design_csv(data_path)
    if model == "ols":
        result = stats.ols_fit(design)
    else:
        result = stats.logistic_fit(design)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    logio.write_summary_json(result.to_json_dict(), out)
    return 0


def cmd_analyze(log_path, bin_width, out_dir, sim_timeseries=None) -> int:
    memes, bins = logio.aggregate_hits(logio.read_columns(log_path),
                                       bin_width_ticks=bin_width)
    # Read before anything is written, so a bad series leaves no artifact.
    series = None if sim_timeseries is None else _read_timeseries_csv(sim_timeseries)
    out = _resolve_out_dir(out_dir, None)
    logio.write_summary_json(logio.hit_summary(memes[1], bin_width),
                             out / "summary.json")
    logio.write_hits_csv(memes, out / "hits.csv")
    logio.write_bins_csv(bins, out / "bins.csv")
    if series is not None:
        # Side-by-side comparison: analyzed log traffic next to a simulated
        # exposure curve.
        left = Panel("Analyzed log: hits per bin", bins[0].tolist(), bins[1].tolist(),
                     x_label=f"tick (bin width {bin_width})", y_label="hits")
        right = Panel("Simulation: cumulative exposures", *series,
                      y_label="exposures")
        with open(out / "comparison.svg", "w", encoding="ascii", newline="") as fh:
            fh.write(render_time_series_svg([left, right]))
    return 0


def _read_timeseries_csv(path):
    ticks, cum = [], []
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        header = fh.readline().strip()
        if header != "tick,currently_infected,cumulative_exposures":
            raise InputError(f"{path}: not a simulation timeseries CSV")
        for lineno, line in enumerate(fh, start=2):
            cells = line.rstrip("\r\n").split(",")
            # Digits as simulate writes them: int() also takes signs, spaces,
            # '_' separators and non-ASCII digits such as '٣'.  simulate writes
            # int64: a cell has at most 19 digits (checked before int(), which
            # refuses over 4,300) and is below 2**63.
            if (len(cells) != 3
                    or not all(c.isascii() and c.isdigit() and len(c) <= 19 for c in cells)
                    or max(int(c) for c in cells) >= 2 ** 63):
                text = line.strip()
                # Echo a bounded prefix: a line can be any length.
                shown = repr(text[:80]) + ("..." if len(text) > 80 else "")
                raise InputError(f"{path}: line {lineno}: expected three integer"
                                 f" cells below 2**63, got {shown}")
            tick, exposures = int(cells[0]), int(cells[2])
            if ticks and (tick <= ticks[-1] or exposures < cum[-1]):
                raise InputError(f"{path}: line {lineno}: ticks must increase and"
                                 " cumulative exposures must not decrease")
            ticks.append(tick)
            cum.append(exposures)
    return ticks, cum


def _resolve_out_dir(cli_out, cfg_out) -> Path:
    target = cli_out if cli_out is not None else cfg_out
    if target is None:
        raise ConfigurationError(
            "no output directory: pass --out or set output_dir in the config",
            fields=("output_dir",))
    path = Path(target)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memesim",
        description="Agent-based SIS meme-sharing simulator and analytics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one simulation from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="override the config's master seed")
    p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("sweep", help="run the config's parameter sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("fit", help="fit a regression model to a CSV table")
    p.add_argument("--data", required=True,
                   help="CSV with a header; last column is the response")
    p.add_argument("--model", required=True, choices=("ols", "logistic"))
    p.add_argument("--out", required=True, help="output JSON path")

    p = sub.add_parser("analyze", help="aggregate an access log")
    p.add_argument("--log", required=True)
    p.add_argument("--bin", type=int, default=1, help="bin width in ticks")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--sim-timeseries", default=None,
                   help="simulation timeseries.csv to render a two-panel "
                        "comparison SVG against")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args.config, args.out, seed_override=args.seed)
        if args.command == "sweep":
            return cmd_sweep(args.config, args.out)
        if args.command == "fit":
            return cmd_fit(args.data, args.model, args.out)
        return cmd_analyze(args.log, args.bin, args.out,
                           sim_timeseries=args.sim_timeseries)
    except ConfigurationError as exc:
        fields = ", ".join(exc.fields) if exc.fields else "<config>"
        print(f"config-error: {exc} [fields: {fields}]", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"{exc.reason}: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"io-error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"memory-error: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        # A sweep worker that died (say, killed for memory) breaks the pool.
        from concurrent.futures.process import BrokenProcessPool
        if not isinstance(exc, BrokenProcessPool):
            raise
        print(f"worker-error: a sweep worker process died: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
