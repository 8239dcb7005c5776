"""Outside-in tracing: wrap memesim's public functions with spans.

A span records its name, start, end and parent, and is kept in memory
until the run ends.  A layer's self time is its span's duration minus the
time its child spans cover.  Hot leaf functions (one call per log line,
per grid query, per random block) are not stored one call at a time: their
calls and busy time are summed by name and charged to the enclosing span
as covered time, which keeps memory bounded on million-call workloads.
"""

from __future__ import annotations

import functools
import json
import os
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []                 # [name, parent, start, end, covered]
        self.stack = []                 # indices into spans
        self.leaf_calls = Counter()
        self.leaf_busy = defaultdict(float)
        self.counts = Counter()
        self.hook_s = 0.0               # time spent in `after` hooks

    def current(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            record = [name, parent, perf_counter(), None, 0.0]
            self.spans.append(record)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                self.stack.pop()
                if parent is not None:
                    self.spans[parent][4] += record[3] - record[2]
            if after is not None:
                start = perf_counter()
                after(self, args, kwargs, result)
                hook = perf_counter() - start
                self.hook_s += hook
                if parent is not None:
                    self.spans[parent][4] += hook
            return result
        return wrapper

    def leaf(self, name, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = perf_counter() - start
                self.leaf_calls[name] += 1
                self.leaf_busy[name] += busy
                if self.stack:
                    self.spans[self.stack[-1]][4] += busy
                if count is not None:
                    count(self, args)
        return wrapper

    def summary(self) -> dict:
        """Per name: calls, busy seconds and self seconds; per-tick latencies."""
        calls, busy, self_s = Counter(), defaultdict(float), defaultdict(float)
        for name, _, start, end, covered in self.spans:
            calls[name] += 1
            busy[name] += end - start
            self_s[name] += end - start - covered
        for name in self.leaf_calls:
            calls[name] += self.leaf_calls[name]
            busy[name] += self.leaf_busy[name]
            self_s[name] += self.leaf_busy[name]
        return {"calls": dict(calls), "busy_s": dict(busy), "self_s": dict(self_s),
                "counts": dict(self.counts),
                "step_ms": [(end - start) * 1e3 for name, _, start, end, _ in self.spans
                            if name == "engine.step"]}

    def write_spans(self, path, op: int):
        """Append this process's spans, tagged with the operation index."""
        with open(path, "a") as fh:
            for i, (name, parent, start, end, covered) in enumerate(self.spans):
                fh.write(json.dumps({"op": op, "id": i, "name": name, "parent": parent,
                                     "start": start, "end": end,
                                     "self": end - start - covered}) + "\n")


def _count_draws(tracer, args):
    n = args[1]
    tracer.counts["uniforms.draws"] += n
    if tracer.current() == "engine.share_step":
        tracer.counts["share_step.decisions"] += n


def _after_run(tracer, args, kwargs, output):
    from memesim.core import EventKind

    tracer.counts["engine.events"] += len(output.events)
    tracer.counts["engine.shares"] += sum(
        1 for r in output.event_records() if r.kind is EventKind.SHARE)
    peak = int(output.currently_infected.max()) if len(output.currently_infected) else 0
    tracer.counts["active_pairs.peak"] = max(tracer.counts["active_pairs.peak"], peak)


def _after_write_log(tracer, args, kwargs, result):
    tracer.counts["write_event_log.bytes"] += os.path.getsize(args[1])


def _after_fit(tracer, args, kwargs, result):
    tracer.counts["logistic_fit.iterations"] = result.iterations


def install(tracer: Tracer):
    """Patch memesim in place so every traced boundary records into `tracer`.

    Names that a module imported by name (engine's wrap_coords,
    perception_noise_batch and sigmoid_array, stats' sigmoid_array, cli's
    render_time_series_svg) are patched where they are looked up.
    """
    from memesim import cli, core, engine, logio, stats

    span, leaf = tracer.span, tracer.leaf
    for name in ("cmd_simulate", "cmd_sweep", "cmd_analyze", "cmd_fit",
                 "load_run_config"):
        setattr(cli, name, span(f"cli.{name}", getattr(cli, name)))
    cli.render_time_series_svg = span("plot.render_time_series_svg",
                                      cli.render_time_series_svg)

    engine.run = span("engine.run", engine.run, after=_after_run)
    for name in ("init_world", "step", "recruit_step", "walk_step",
                 "share_step", "recovery_step"):
        setattr(engine, name, span(f"engine.{name}", getattr(engine, name)))
    engine.wrap_coords = leaf("engine.wrap_coords", engine.wrap_coords)
    engine.perception_noise_batch = leaf("engine.perception_noise_batch",
                                         engine.perception_noise_batch)
    engine.sigmoid_array = leaf("decision.sigmoid_array", engine.sigmoid_array)
    stats.sigmoid_array = leaf("decision.sigmoid_array", stats.sigmoid_array)
    grid = engine.UniformGrid
    grid.__init__ = leaf("engine.UniformGrid.build", grid.__init__)
    grid.query = leaf("engine.UniformGrid.query", grid.query)
    core.RngStream.uniforms = leaf("core.RngStream.uniforms", core.RngStream.uniforms,
                                   count=_count_draws)
    out = engine.SimOutput
    out.write_event_log = span("engine.SimOutput.write_event_log", out.write_event_log,
                               after=_after_write_log)
    for name in ("write_timeseries_csv", "write_hits_csv"):
        setattr(out, name, span(f"engine.SimOutput.{name}", getattr(out, name)))

    logio.parse_line = leaf("logio.parse_line", logio.parse_line)
    logio.aggregate_hits = span("logio.aggregate_hits", logio.aggregate_hits)
    for name in ("write_summary_json", "write_hits_csv", "write_bins_csv"):
        setattr(logio, name, span("logio.writers", getattr(logio, name)))

    stats.load_design_csv = span("stats.load_design_csv", stats.load_design_csv)
    stats.logistic_fit = span("stats.logistic_fit", stats.logistic_fit, after=_after_fit)
    stats.ols_fit = span("stats.ols_fit", stats.ols_fit)
