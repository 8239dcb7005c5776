"""CLI surface: commands, exit codes, artifact schemas, pipeline closure."""

import faulthandler
import json
import multiprocessing
import os
import threading
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import fields as dataclass_fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _helpers import records_of, run_many, run_python, table_dict
from memesim import cli, engine, logio
from memesim.cli import load_run_config, main
from memesim.core import EventKind
from memesim.engine import SimConfig, run, trajectory_groups
from memesim.decision import SharingModel

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Small but lively config used across the CLI tests.
SMALL = {
    "population": 300,
    "recruits": 12,
    "memes_per_recruit": 2,
    "recruit_interval_ticks": 4,
    "horizon_ticks": 100,
    "world_width": 28.0,
    "world_height": 28.0,
    "neighbor_radius": 3.0,
    "sharing_model": {"intercept": -4.0, "w_humor": 0.4,
                      "w_relevance": 0.4, "w_selfref": 0.2},
    "master_seed": 11,
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_all_artifacts(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("events.log", "timeseries.csv", "hits.csv",
                 "summary.json", "timeseries.svg"):
        assert (out / name).exists(), name

    records = records_of(logio.read_columns(out / "events.log"))
    assert records, "event log parses and is non-empty"
    lines = (out / "timeseries.csv").read_text().splitlines()
    assert lines[0] == "tick,currently_infected,cumulative_exposures"
    assert len(lines) == 1 + SMALL["horizon_ticks"]
    hits_lines = (out / "hits.csv").read_text().splitlines()
    assert hits_lines[0] == "meme_id,hits"
    assert len(hits_lines) == 1 + SMALL["recruits"] * SMALL["memes_per_recruit"]
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"total_hits", "meme_count", "max_hits",
                            "median_hits", "fraction_below_2",
                            "bin_width_ticks", "counted_kinds"}
    svg = (out / "timeseries.svg").read_text()
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")


@pytest.mark.parametrize("seed, ticks", [(13, 479), (7, 600)])
def test_default_run_steps_until_quiet(tmp_path, monkeypatch, seed, ticks):
    """At seed 13 the default world has no infected pair left and its quota
    full from tick 479, so `step` stops there and timeseries.csv repeats the
    last row's values; at seed 7 the memes take off and every tick runs."""
    calls = []
    real = engine.step
    monkeypatch.setattr(engine, "step", lambda *worlds: calls.append(1) or real(*worlds))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(CONFIGS / "default.json"),
                 "--seed", str(seed), "--out", str(out)]) == 0
    assert len(calls) == ticks
    rows = (out / "timeseries.csv").read_text().splitlines()[1:]
    assert len(rows) == 600
    _, infected, final = rows[-1].split(",")
    assert (infected == "0") == (ticks < 600)
    assert rows[ticks:] == [f"{t},0,{final}" for t in range(ticks, 600)]


def test_simulate_deterministic_artifacts(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("events.log", "timeseries.csv", "hits.csv",
                 "summary.json", "timeseries.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_simulate_seed_override_changes_log(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--seed", "999",
                 "--out", str(out2)]) == 0
    assert (out1 / "events.log").read_bytes() != (out2 / "events.log").read_bytes()


def test_simulate_invalid_config_exits_2(tmp_path, capsys):
    doc = dict(SMALL, recruits=301)  # exceeds population
    cfg = write_config(tmp_path, doc)
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config-error:")
    assert "recruits" in err


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_config_not_utf8_exits_2(tmp_path, capsys, command):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(b'{"population": 300, "output_dir": "\xff"}')
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config-error:") and "<document>" in err
    assert not out.exists()


# A typo, and former SimConfig fields at values they accepted: the key alone is the error.
@pytest.mark.parametrize("key, value", [
    ("typo_key", 1),
    ("meme_dim", 3),
    ("require_full_recruitment", False),
    ("analysis_bin_width", 10),
], ids=["typo_key", "meme_dim", "require_full_recruitment", "analysis_bin_width"])
def test_simulate_unknown_key_exits_2(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, dict(SMALL, **{key: value}))
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err


def test_pair_key_bound_exits_2(tmp_path):
    # Pair keys are agent * max_memes + meme in int64: 3 * 2**62 overflows.
    doc = {"population": 3, "recruits": 1, "memes_per_recruit": 2 ** 62,
           "horizon_ticks": 2, "world_width": 8.0, "world_height": 8.0}
    proc = _run_cli("simulate", "--config", str(write_config(tmp_path, doc)),
                    "--out", str(tmp_path / "o"))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config-error:")
    assert "[fields: memes_per_recruit]" in proc.stderr and "Traceback" not in proc.stderr


# A world whose preallocation is too big must not end in a traceback:
# 24 * 2**62 bytes of meme latents cannot be an array (exit 2), and 2.2 TiB
# cannot be had under a 4 GiB address-space limit (exit 3).
@pytest.mark.parametrize("memes, code, reason", [
    (2 ** 62, 2, "config-error:"),
    (10 ** 11, 3, "memory-error:"),
], ids=["latents-over-2**63", "latents-over-memory"])
def test_world_allocation_bound(tmp_path, memes, code, reason):
    doc = {"population": 1, "recruits": 1, "memes_per_recruit": memes,
           "horizon_ticks": 2, "world_width": 8.0, "world_height": 8.0}
    proc = _run_cli("simulate", "--config", str(write_config(tmp_path, doc)),
                    "--out", str(tmp_path / "o"), address_space=4 * 2 ** 30)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith(reason) and "Traceback" not in proc.stderr
    if code == 2:
        assert "[fields: memes_per_recruit]" in proc.stderr


def test_simulate_unknown_model_key_exits_2(tmp_path, capsys):
    doc = dict(SMALL)
    doc["sharing_model"] = dict(SMALL["sharing_model"], w_bogus=1.0)
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "sharing_model.w_bogus" in capsys.readouterr().err


@pytest.mark.parametrize("model", [[], 0, "x", None])
def test_simulate_non_object_model_exits_2(tmp_path, capsys, model):
    cfg = write_config(tmp_path, dict(SMALL, sharing_model=model))
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "sharing_model must be an object" in capsys.readouterr().err


def _small_doc(horizon_ticks, sharing_model=(), **overrides):
    """configs/small.json without its sweep, at a short horizon."""
    doc = json.loads((CONFIGS / "small.json").read_text())
    del doc["sweep"]
    doc["sharing_model"].update(sharing_model)
    return dict(doc, horizon_ticks=horizon_ticks, **overrides)


# The small config shrunk to 30 agents, 2 recruits and an 8x8 world.
OVERFLOW_WORLD = {"population": 30, "recruits": 2, "world_width": 8.0, "world_height": 8.0}


# validate() reports every value it rejects, coefficients included, in one line.
@pytest.mark.parametrize("command, model, overrides, fields", [
    ("simulate", {"intercept": "x", "w_humor": "y"}, {},
     "sharing_model.intercept, sharing_model.w_humor"),
    ("simulate", {"intercept": "x"}, {"population": 0},
     "population, recruits, sharing_model.intercept"),
    ("simulate", {"intercept": float("nan")}, {}, "sharing_model.intercept"),
    ("sweep", {}, {"sweep": {"axes": {"sharing_model.intercept": [-5.0, float("nan")]}}},
     "sharing_model.intercept"),
    # Values whose arithmetic would overflow: a squared torus distance or a logit.
    ("simulate", {"intercept": 5.0},
     dict(OVERFLOW_WORLD, world_width=1e308, neighbor_radius=1e308), "world_width"),
    ("simulate", {"intercept": 5.0},
     dict(OVERFLOW_WORLD, world_width=1e200, world_height=1e200, neighbor_radius=1e200),
     "world_width, world_height"),
    ("simulate", {}, dict(OVERFLOW_WORLD, perception_noise_sd=1e308), "perception_noise_sd"),
    ("simulate", {"w_humor": 1e308}, dict(OVERFLOW_WORLD, perception_noise_sd=5.0),
     "sharing_model.w_humor"),
    ("simulate", {"w_humor": 1e308, "w_relevance": 1e308}, OVERFLOW_WORLD,
     "sharing_model.w_humor, sharing_model.w_relevance"),
], ids=["two-coefficients", "population-and-coefficient", "nan-coefficient", "nan-axis",
        "1e308-world", "1e200-world", "1e308-noise", "1e308-humor", "1e308-humor-relevance"])
def test_every_invalid_value_is_named(tmp_path, capsys, command, model, overrides, fields):
    cfg = write_config(tmp_path, _small_doc(5, model, **overrides))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config-error: invalid config:")
    assert err.endswith(f"[fields: {fields}]\n")
    assert not out.exists()


# Values at the edges of the float and int64 ranges: a cell count of inf,
# an int that no float holds, an expiry tick beyond int64, and the largest
# world, noise and coefficients whose arithmetic stays finite.
@pytest.mark.parametrize("model, overrides, code, fields", [
    ({"intercept": 5.0}, {"neighbor_radius": 5e-324}, 0, None),
    ({}, {"world_width": 10 ** 400}, 2, "world_width"),
    ({}, {"infection_duration_ticks": 2 ** 70}, 2, "infection_duration_ticks"),
    ({"intercept": 5.0}, dict(OVERFLOW_WORLD, world_width=2 ** 511, world_height=2.0 ** 511,
                              neighbor_radius=2.0 ** 511), 0, None),
    ({name: 2.0 ** 500 for name in ("intercept", "w_humor", "w_relevance", "w_selfref")},
     dict(OVERFLOW_WORLD, perception_noise_sd=2 ** 500), 0, None),
    ({name: -2.0 ** 500 for name in ("intercept", "w_humor", "w_relevance", "w_selfref")},
     dict(OVERFLOW_WORLD, perception_noise_sd=2.0 ** 500), 0, None),
], ids=["subnormal-radius", "401-digit-width", "duration-2**70", "2**511-world",
        "2**500-model", "-2**500-model"])
def test_range_edges_exit_cleanly(tmp_path, capsys, model, overrides, code, fields):
    cfg = write_config(tmp_path, _small_doc(12, model, **overrides))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert (err == "") if fields is None else err.endswith(f"[fields: {fields}]\n")


def test_simulate_missing_config_exits_3(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 3


def test_simulate_unwritable_out_exits_3(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    blocker = tmp_path / "file"
    blocker.write_text("x")
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(blocker / "sub")]) == 3


def test_out_dir_from_config(tmp_path):
    doc = dict(SMALL, output_dir=str(tmp_path / "from_cfg"))
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert (tmp_path / "from_cfg" / "events.log").exists()


def test_simulate_without_out_anywhere_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "output_dir" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

# A sweep whose worker pool deadlocks would hang the whole session, so each
# in-process sweep that reaches the pool runs under a watchdog: past this
# many seconds it prints every thread's stack and ends the session.
SWEEP_WATCHDOG_S = 60


@pytest.fixture
def sweep(capfd):
    """main(["sweep", ...]) under the watchdog; capture is off while it
    runs, so the stacks reach the terminal."""
    def run(cfg, out):
        with capfd.disabled():
            faulthandler.dump_traceback_later(SWEEP_WATCHDOG_S, exit=True)
            try:
                return main(["sweep", "--config", str(cfg), "--out", str(out)])
            finally:
                faulthandler.cancel_dump_traceback_later()
    return run


def _sweep_doc(axes, replicates):
    doc = dict(SMALL, horizon_ticks=40, population=120,
               world_width=18.0, world_height=18.0, recruits=6)
    doc["sweep"] = {"axes": axes, "replicates": replicates}
    return doc


def test_sweep_single_point(tmp_path, sweep):
    cfg = write_config(tmp_path, _sweep_doc({"step_size": [1.0]}, 1))
    out = tmp_path / "out"
    assert sweep(cfg, out) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == ("step_size,seed,final_cumulative_exposures,"
                        "max_hits,median_hits")
    assert len(lines) == 2


def test_sweep_cross_product_counts(tmp_path, sweep):
    axes = {"sharing_model.intercept": [-5.0, -4.0],
            "neighbor_radius": [2.0, 2.5, 3.0]}
    cfg = write_config(tmp_path, _sweep_doc(axes, 2))
    out = tmp_path / "out"
    assert sweep(cfg, out) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("sharing_model.intercept,neighbor_radius,seed,")
    assert len(lines) == 1 + 2 * 3 * 2


def test_sweep_replicates_share_params_differ_by_seed(tmp_path, sweep):
    cfg = write_config(tmp_path, _sweep_doc({"step_size": [0.5]}, 3))
    out = tmp_path / "out"
    assert sweep(cfg, out) == 0
    rows = [l.split(",") for l in
            (out / "sweep.csv").read_text().splitlines()[1:]]
    params = {r[0] for r in rows}
    seeds = {r[1] for r in rows}
    assert params == {"0.5"}
    assert len(seeds) == 3


def test_pool_sweep_matches_serial_sweep(tmp_path, sweep):
    """More trajectory groups than CPUs, each with members that end at
    different ticks: sweep.csv holds the rows of the serial sweep, in input
    order, and no worker outlives the command."""
    cpus = os.cpu_count() or 1
    steps = [0.5 * (k + 1) for k in range(max(2, cpus // 3 + 1))]
    cfg = write_config(tmp_path, _sweep_doc({"step_size": steps,
                                             "horizon_ticks": [15, 40]}, 3))
    out = tmp_path / "out"
    assert sweep(cfg, out) == 0
    assert multiprocessing.active_children() == []

    configs = [run_cfg for _, run_cfg in load_run_config(cfg)[1][1]]
    assert len(trajectory_groups(configs)) == 3 * len(steps) > cpus
    assert (out / "sweep.csv").read_bytes() == _serial_sweep_csv(cfg, tmp_path)


def _serial_sweep_csv(cfg, tmp_path):
    """The sweep.csv bytes of the sweep in `cfg`, with its rows built from
    the serial run_many; asserts that some run has hits."""
    names, runs = load_run_config(cfg)[1]
    rows = [None] * len(runs)
    for i, output in run_many([run_cfg for _, run_cfg in runs]):
        values, run_cfg = runs[i]
        summary = logio.hit_summary(output.hits[1], 10)
        rows[i] = values + [run_cfg.master_seed, summary["total_hits"],
                            summary["max_hits"], summary["median_hits"]]
    assert sum(row[-3] for row in rows) > 0
    logio.write_csv(tmp_path / "serial.csv",
                    ",".join(names) + ",seed,final_cumulative_exposures,"
                    "max_hits,median_hits\n", rows)
    return (tmp_path / "serial.csv").read_bytes()


def test_sweep_of_quiet_worlds_matches_serial_sweep(tmp_path, sweep):
    """Lockstep members that go quiet at tick 23 (one of them after
    spreading), stop at horizon 0 or 10 first, or are still spreading at
    horizon 80 give the rows of the serial sweep."""
    axes = {"sharing_model.intercept": [-3.5, -3.0],
            "infection_duration_ticks": [2, 7], "horizon_ticks": [0, 10, 80]}
    cfg = write_config(tmp_path, _sweep_doc(axes, 2))
    out = tmp_path / "out"
    assert sweep(cfg, out) == 0
    assert (out / "sweep.csv").read_bytes() == _serial_sweep_csv(cfg, tmp_path)


# Runs `memesim sweep` with argv[2:] after making the worker of the group at
# step_size 2.0 die (argv[1] == "exit", as an OOM kill would end it) or raise
# MemoryError; then prints the children still alive.
_FAILING_WORKER = """
import multiprocessing, os, sys
from memesim import cli, engine
real = engine.run_group
def run_group(configs):
    if configs[0].step_size == 2.0:
        if sys.argv[1] == "exit":
            os._exit(1)
        raise MemoryError("no room for the worlds")
    return real(configs)
engine.run_group = run_group
code = cli.main(sys.argv[2:])
print(multiprocessing.active_children())
sys.exit(code)
"""


@pytest.mark.parametrize("how, reason", [("exit", "worker-error:"),
                                         ("memory", "memory-error:")])
def test_failing_sweep_worker_exits_3(tmp_path, how, reason):
    cfg = write_config(tmp_path, _sweep_doc({"step_size": [1.0, 2.0, 3.0]}, 1))
    out = tmp_path / "out"
    proc = run_python("-c", _FAILING_WORKER, how, "sweep", "--config", str(cfg),
                       "--out", str(out), timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith(reason) and proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == "[]\n"
    assert not (out / "sweep.csv").exists()


def test_sweep_without_sweep_section_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "sweep" in capsys.readouterr().err


def test_sweep_rejects_unknown_axis(tmp_path, capsys):
    # Replicate seeds derive from the base master_seed, so a master_seed
    # axis would be silently overwritten.
    for name in ("bogus", "master_seed"):
        cfg = write_config(tmp_path, _sweep_doc({name: [1, 2]}, 1))
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"sweep.axes.{name}" in capsys.readouterr().err
        assert not out.exists()


def test_sweep_rejects_invalid_point(tmp_path):
    cfg = write_config(tmp_path, _sweep_doc({"neighbor_radius": [2.0, -1.0]}, 1))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("value", ["x", None, True])
def test_sweep_rejects_non_numeric_model_axis_value(tmp_path, capsys, value):
    # The same rule as the top-level sharing_model: numbers only.
    axes = {"sharing_model.intercept": [-5.0, value]}
    cfg = write_config(tmp_path, _sweep_doc(axes, 1))
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config-error:") and "sharing_model.intercept" in err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("replicates", [True, 1.5])
def test_sweep_rejects_non_integer_replicates(tmp_path, capsys, replicates):
    cfg = write_config(tmp_path, _sweep_doc({"step_size": [1.0]}, replicates))
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config-error:") and "sweep.replicates" in err
    assert not (out / "sweep.csv").exists()


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_fit_ols_on_shipped_line_fixture(tmp_path):
    out = tmp_path / "fit.json"
    assert main(["fit", "--data", str(FIXTURES / "line.csv"),
                 "--model", "ols", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["coefficients"][0] == pytest.approx(1.0, abs=1e-8)
    assert doc["coefficients"][1] == pytest.approx(2.0, abs=1e-8)
    assert doc["r_squared"] == pytest.approx(1.0, abs=1e-12)
    assert doc["converged"] is True


def test_fit_out_under_a_file_exits_3(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    assert main(["fit", "--data", str(FIXTURES / "line.csv"), "--model", "ols",
                 "--out", str(blocker / "fit.json")]) == 3
    assert capsys.readouterr().err.startswith("io-error:")


def test_fit_logistic_single_class_exits_4(tmp_path, capsys):
    out = tmp_path / "fit.json"
    code = main(["fit", "--data", str(FIXTURES / "single_class.csv"),
                 "--model", "logistic", "--out", str(out)])
    assert code == 4
    assert capsys.readouterr().err.startswith("degenerate-response")
    assert not out.exists()


# One reason token per data error; the line is byte-for-byte the CLI's contract.
@pytest.mark.parametrize("model, body, line", [
    ("logistic", b"x,y\n0,1\n1,1\n2,1\n",
     "degenerate-response: response contains a single class"),
    ("ols", b"x,x2,y\n0,0,1\n1,1,3\n2,2,4\n3,3,7\n",
     "singular-design: design is rank deficient (rank 2 < 3 columns)"),
    ("ols", b"x,y\n0,3\n1,3\n2,3\n",
     "r-squared-undefined: response is constant; R-squared undefined"),
    (None, b'0 1 "GET /" RECRUIT\nnot a line\n',
     "parse-error: line 2: request must be a double-quoted token"),
], ids=["degenerate-response", "singular-design", "r-squared-undefined", "parse-error"])
def test_data_error_reasons(tmp_path, capsys, model, body, line):
    data = tmp_path / "data"
    data.write_bytes(body)
    out = tmp_path / "out"
    if model is None:
        argv = ["analyze", "--log", str(data), "--out", str(out)]
    else:
        argv = ["fit", "--data", str(data), "--model", model, "--out", str(out)]
    assert main(argv) == 4
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


def test_fit_undecodable_byte_exits_4(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_bytes(b"x,y\n0,1\n1,\xff\n2,5\n")
    out = tmp_path / "fit.json"
    assert main(["fit", "--data", str(data), "--model", "ols",
                 "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("input-error:") and f"{data}:3:" in err
    assert not out.exists()


@pytest.mark.parametrize("body, lineno", [
    (b"x,y\n0,1\n1," + b"a" * 200_000 + b"\n2,5\n", 3),
    (b"x," + b"a" * 200_000 + b"\n0,1\n", 1),
], ids=["cell", "header"])
def test_fit_cell_over_csv_field_limit_exits_4(tmp_path, capsys, body, lineno):
    # csv refuses a field over 131,072 characters with csv.Error.
    data = tmp_path / "d.csv"
    data.write_bytes(body)
    out = tmp_path / "fit.json"
    assert main(["fit", "--data", str(data), "--model", "ols",
                 "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("input-error:") and f"{data}:{lineno}:" in err
    assert "field larger than field limit" in err
    assert not out.exists()


def test_fit_json_keys(tmp_path):
    # Build a quick logistic table from a simulation-independent generator.
    import numpy as np
    rng = np.random.default_rng(0)
    x = rng.normal(size=400)
    y = (rng.random(400) < 1 / (1 + np.exp(-x))).astype(int)
    data = tmp_path / "d.csv"
    data.write_text("x,y\n" + "".join(f"{a},{b}\n" for a, b in zip(x, y)))
    out = tmp_path / "fit.json"
    assert main(["fit", "--data", str(data), "--model", "logistic",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"coefficients", "converged", "iterations",
                        "mcfadden_pseudo_r2", "ols_on_binary_r2",
                        "log_likelihood"}


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_shipped_fixture(tmp_path):
    out = tmp_path / "out"
    assert main(["analyze", "--log", str(FIXTURES / "tiny.log"),
                 "--bin", "2", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    # Documented fixture counts: meme 0 has 3 EXPOSEs, meme 1 has none.
    assert summary["total_hits"] == 3
    assert summary["meme_count"] == 2
    assert summary["max_hits"] == 3
    assert summary["median_hits"] == 1.5
    assert summary["fraction_below_2"] == 0.5
    assert (out / "hits.csv").read_text() == "meme_id,hits\n0,3\n1,0\n"
    assert (out / "bins.csv").read_text() == "bin_start_tick,hits\n0,1\n2,2\n"


def test_analyze_malformed_log_exits_4(tmp_path, capsys):
    # A line that is no event, a digit for a kind, a tick one past int64
    # (which the byte parse reads as negative) and a lone CR, which ends no
    # line: each is named by its line number.
    for log, lineno in [(b'0 1 "GET /" RECRUIT\nnot a line\n', 2),
                        (b'0 1 "GET /m/0" 9\n1 1 "GET /m/0" VIEW\n', 1),
                        (b'9223372036854775808 1 "GET /m/0" EXPOSE\n', 1),
                        (b'0 1 "GET /" RECRUIT\n\r1 1 "GET /m/0" CREATE\n', 2)]:
        bad = tmp_path / "bad.log"
        bad.write_bytes(log)
        assert main(["analyze", "--log", str(bad), "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err.startswith(f"parse-error: line {lineno}:"), log


@pytest.mark.parametrize("first", [
    "\u00b2".encode(),              # superscript two: isdigit, not int
    "\u0663".encode(),              # Arabic-Indic three: int() gives 3
    b"\xff",                        # not UTF-8
], ids=["superscript-two", "arabic-indic-three", "byte-ff"])
def test_analyze_non_ascii_log_exits_4(tmp_path, capsys, first):
    bad = tmp_path / "bad.log"
    bad.write_bytes(b'0 1 "GET /" RECRUIT\n' + first + b' 1 "GET /m/0" EXPOSE\n')
    assert main(["analyze", "--log", str(bad), "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("parse-error") and "line 2" in err


def test_analyze_then_fit_leave_no_thread(tmp_path):
    # The log reader and the logistic fit each own a helper thread for the
    # length of their call, and OLS none: analyze on a log of several
    # blocks, then both fits, leave the thread count as it was.
    import numpy as np
    n = 200_000
    ticks = np.arange(n)
    kinds = np.resize([EventKind.CREATE, EventKind.EXPOSE], n)
    log = tmp_path / "events.log"
    with open(log, "wb") as fh:
        logio.write_lines(fh, [(ticks, kinds, ticks % 1000, ticks % 50)])
    assert log.stat().st_size > 3 * logio._BLOCK_BYTES
    rng = np.random.default_rng(1)
    x = rng.normal(size=400)
    table = tmp_path / "d.csv"
    table.write_text("x,y\n" + "".join(
        f"{a},{int(b)}\n" for a, b in zip(x, rng.random(400) < 1 / (1 + np.exp(-x)))))
    threads = threading.active_count()
    assert cli.cmd_analyze(log, 1, tmp_path / "an") == 0
    assert threading.active_count() == threads
    assert cli.cmd_fit(table, "logistic", tmp_path / "logistic.json") == 0
    assert cli.cmd_fit(FIXTURES / "line.csv", "ols", tmp_path / "ols.json") == 0
    assert threading.active_count() == threads
    # Even ticks CREATE and odd ones EXPOSE, so only odd memes have hits.
    assert (tmp_path / "an" / "hits.csv").read_text() == "meme_id,hits\n" + "".join(
        f"{m},{m % 2 * n // 50}\n" for m in range(50))


def test_analyze_without_out_is_a_usage_error(monkeypatch, capsys):
    # argparse refuses the command before the log is opened.
    monkeypatch.setattr(logio, "read_columns", lambda *args: pytest.fail("the log was read"))
    with pytest.raises(SystemExit) as exit_:
        main(["analyze", "--log", str(FIXTURES / "tiny.log")])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: memesim analyze") and "--out" in err


def test_analyze_bad_bin_exits_4(tmp_path):
    assert main(["analyze", "--log", str(FIXTURES / "tiny.log"),
                 "--bin", "0", "--out", str(tmp_path / "o")]) == 4


def test_analyze_comparison_panel(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(sim_out)]) == 0
    an_out = tmp_path / "an"
    assert main(["analyze", "--log", str(sim_out / "events.log"),
                 "--bin", "10", "--out", str(an_out),
                 "--sim-timeseries", str(sim_out / "timeseries.csv")]) == 0
    svg = (an_out / "comparison.svg").read_text()
    assert svg.count("<polyline") == 2  # one curve per panel
    # Deterministic: same inputs give the same bytes.
    an2 = tmp_path / "an2"
    assert main(["analyze", "--log", str(sim_out / "events.log"),
                 "--bin", "10", "--out", str(an2),
                 "--sim-timeseries", str(sim_out / "timeseries.csv")]) == 0
    assert (an2 / "comparison.svg").read_text() == svg


@pytest.mark.parametrize("rows,lineno", [
    (b"0,1,2\n1,1,3\n\n", 4),
    (b"0,1,2\n1,1,x\n", 3),
    (b"0,1,2\n1,1,\xff\n", 3),
    ("0,1,2\n1,1,\u0663\n".encode(), 3),
    (b"0,1,1_0\n", 2),
    (b"0,1,+2\n", 2),
    (b"0,1, 3\n", 2),
    (b"0,x,2\n", 2),
    (b"0,1,10\n1,1,2\n", 3),
    (b"0,1,2\n1,1,3\n1,1,4\n", 4),
    (b"0,1,2\n1,1," + b"9" * 400 + b"\n", 3),
    (b"0,1,2\n" + b"9" * 5000 + b",1,3\n", 3),
    (b"0,1,2\n" + b"9" * 100_000 + b",1,3\n", 3),
    (b"0,1,2\n1,1,9223372036854775808\n", 3),
], ids=["trailing-blank-line", "non-integer-cell", "undecodable-byte",
        "non-ascii-digit", "digit-separator", "signed-cell", "spaced-cell",
        "non-integer-middle-cell", "falling-cumulative", "repeated-tick",
        "400-digit-cumulative", "5000-digit-tick", "100000-digit-tick",
        "int64-overflow"])
def test_analyze_malformed_sim_timeseries_exits_4(tmp_path, capsys, rows, lineno):
    series = tmp_path / "timeseries.csv"
    series.write_bytes(b"tick,currently_infected,cumulative_exposures\n" + rows)
    out = tmp_path / "o"
    assert main(["analyze", "--log", str(FIXTURES / "tiny.log"),
                 "--out", str(out), "--sim-timeseries", str(series)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("input-error") and str(series) in err
    assert f"line {lineno}" in err
    # The echo of the rejected line is cut, however long the line.
    assert len(err.replace(str(series), "")) < 200
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("rows", [
    b"1000000000000000000,0,2\n",
    b"1000000000000000000,0,1\n1000000000000000001,0,2\n",
], ids=["one-row", "one-tick-apart"])
def test_analyze_plots_ticks_one_float_step_apart(tmp_path, rows):
    # Past 2**53 a tick step of one is below the float spacing, so an axis
    # range there once stopped the chart's tick loop from advancing: the
    # analyze ran on, and one row ran out of memory.  A child process with
    # a timeout and a memory bound turns a hang into a quick failure.
    log = tmp_path / "events.log"
    log.write_bytes(b'1000000000000000000 1 "GET /m/0" CREATE\n'
                    b'1000000000000000000 2 "GET /m/0" EXPOSE\n'
                    b'1000000000000000001 3 "GET /m/0" EXPOSE\n')
    series = tmp_path / "timeseries.csv"
    series.write_bytes(b"tick,currently_infected,cumulative_exposures\n" + rows)
    out = tmp_path / "o"
    result = run_python("-m", "memesim.cli", "analyze", "--log", str(log), "--out", str(out),
                         "--sim-timeseries", str(series), address_space=2 ** 30, timeout=60)
    assert result.returncode == 0, result.stderr
    svg = ET.fromstring((out / "comparison.svg").read_text(encoding="ascii"))
    labels = [el.text for el in svg.iter("{http://www.w3.org/2000/svg}text")]
    assert "1000000000000000000" in labels


# ---------------------------------------------------------------------------
# Pipeline closure and golden files
# ---------------------------------------------------------------------------

def test_pipeline_closure_simulate_then_analyze(tmp_path):
    cfg_path = write_config(tmp_path, SMALL)
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(sim_out)]) == 0
    an_out = tmp_path / "an"
    assert main(["analyze", "--log", str(sim_out / "events.log"),
                 "--bin", "10", "--out", str(an_out)]) == 0
    # Per-meme hit counts round-trip bit-exactly through the log.
    assert ((an_out / "hits.csv").read_bytes()
            == (sim_out / "hits.csv").read_bytes())
    # So does a CRLF copy of the log.
    crlf = tmp_path / "crlf.log"
    crlf.write_bytes((sim_out / "events.log").read_bytes().replace(b"\n", b"\r\n"))
    assert main(["analyze", "--log", str(crlf), "--out", str(tmp_path / "crlf")]) == 0
    assert (tmp_path / "crlf" / "hits.csv").read_bytes() == (sim_out / "hits.csv").read_bytes()
    cfg = SimConfig(**{k: v for k, v in SMALL.items() if k != "sharing_model"},
                    sharing_model=SharingModel(**SMALL["sharing_model"]))
    in_memory = run(cfg).hits
    memes, _ = logio.aggregate_hits(logio.read_columns(sim_out / "events.log"))
    assert table_dict(memes) == table_dict(in_memory)
    assert ((an_out / "summary.json").read_bytes()
            == (sim_out / "summary.json").read_bytes())


# The tiny fixed run whose artifacts tests/golden/ holds.
MICRO = {
    "population": 40, "recruits": 4, "memes_per_recruit": 2,
    "recruit_interval_ticks": 2, "horizon_ticks": 12,
    "world_width": 12.0, "world_height": 12.0,
    "neighbor_radius": 3.0, "infection_duration_ticks": 4,
    "sharing_model": {"intercept": -1.0, "w_humor": 0.4,
                      "w_relevance": 0.4, "w_selfref": 0.2},
    "master_seed": 5,
}


def test_golden_micro_run(tmp_path):
    """Schema lock: artifacts of a tiny fixed run match committed goldens."""
    cfg = write_config(tmp_path, MICRO)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("events.log", "timeseries.csv", "hits.csv", "summary.json",
                 "timeseries.svg"):
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_event_count_is_log_line_count(tmp_path):
    # perfbench's tracer counts events as len(output.events).
    cfg = write_config(tmp_path, MICRO)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "events.log").read_bytes().count(b"\n")
    assert len(run(load_run_config(cfg)[0]).events) == lines > 0


def test_golden_micro_sweep(tmp_path, sweep):
    """Byte lock on sweep.csv: two intercepts by two replicates of the
    micro-run; two rows have a median_hits of the form k + 0.5."""
    doc = dict(MICRO, sweep={"axes": {"sharing_model.intercept": [-2.0, -1.0]},
                             "replicates": 2})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert sweep(cfg, out) == 0
    assert (out / "sweep.csv").read_bytes() == (GOLDEN / "sweep.csv").read_bytes()


def test_golden_small_sweep(tmp_path, sweep):
    """Byte lock on sweep.csv for configs/small.json: intercept by radius by
    two replicates, twelve runs that walk two trajectories in lockstep."""
    out = tmp_path / "out"
    assert sweep(CONFIGS / "small.json", out) == 0
    assert (out / "sweep.csv").read_bytes() == (GOLDEN / "sweep_small.csv").read_bytes()


def test_sweep_rows_match_simulate(tmp_path, sweep):
    """Each micro-sweep row holds what simulate writes for its point and seed.
    The step_size axis splits the runs into four trajectories."""
    doc = dict(MICRO, sweep={"axes": {"sharing_model.intercept": [-2.0, -1.0],
                                      "step_size": [1.0, 2.5]},
                             "replicates": 2})
    assert sweep(write_config(tmp_path, doc), tmp_path / "sweep") == 0
    lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 2 * 2
    for i, line in enumerate(lines[1:]):
        intercept, step_size, seed, final, max_hits, median_hits = line.split(",")
        point = dict(MICRO, step_size=float(step_size),
                     sharing_model=dict(MICRO["sharing_model"],
                                        intercept=float(intercept)))
        out = tmp_path / f"sim{i}"
        assert main(["simulate", "--config",
                     str(write_config(tmp_path, point, f"point{i}.json")),
                     "--seed", seed, "--out", str(out)]) == 0
        series = (out / "timeseries.csv").read_text().splitlines()
        assert final == series[-1].split(",")[2]
        summary = json.loads((out / "summary.json").read_text())
        assert int(max_hits) == summary["max_hits"]
        assert float(median_hits) == summary["median_hits"]


def test_golden_micro_analyze(tmp_path):
    """Byte lock on what analyze writes for the golden micro-run's log and
    series, at a bin width that gives four bins."""
    out = tmp_path / "out"
    assert main(["analyze", "--log", str(GOLDEN / "events.log"), "--bin", "3",
                 "--sim-timeseries", str(GOLDEN / "timeseries.csv"),
                 "--out", str(out)]) == 0
    for name in ("summary.json", "hits.csv", "bins.csv", "comparison.svg"):
        assert ((out / name).read_bytes()
                == (GOLDEN / "analyze" / name).read_bytes()), name


def _run_cli(*args, address_space=None):
    """`python -m memesim.cli args` in a child process (see run_python)."""
    return run_python("-m", "memesim.cli", *args, address_space=address_space)


def test_module_entrypoint_smoke(tmp_path):
    cfg = write_config(tmp_path, dict(SMALL, horizon_ticks=10))
    proc = _run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "events.log").exists()


# numpy's widest x86 SIMD targets.  With them turned off by
# NPY_DISABLE_CPU_FEATURES, log1p, exp, cos and sin run narrower loops.
_WIDE_SIMD = ("X86_V4", "AVX512_ICL", "AVX512_SPR")

# Runs the simulate argv lists of argv[1], then prints their exit codes and
# the disabled targets that are still on.
_SIMD_CHILD = """
import importlib, json, os, sys
from memesim.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
features = importlib.import_module(sys.argv[2]).__cpu_features__
on = [t for t in os.environ["NPY_DISABLE_CPU_FEATURES"].split() if features[t]]
print(json.dumps({"codes": codes, "still_on": on}))
"""


def _numpy_umath():
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    return _multiarray_umath


def test_artifacts_do_not_depend_on_simd_dispatch(tmp_path):
    """The golden micro-run, and a default run at seed 13, write the same
    bytes with numpy's widest SIMD targets turned off."""
    umath = _numpy_umath()
    wide = [t for t in _WIDE_SIMD
            if t in umath.__cpu_dispatch__ and umath.__cpu_features__.get(t)]
    if not wide:
        pytest.skip(f"numpy here does not dispatch to any of {', '.join(_WIDE_SIMD)}")
    default = ["simulate", "--config", str(CONFIGS / "default.json"), "--seed", "13"]
    runs = [["simulate", "--config", str(write_config(tmp_path, MICRO)),
             "--out", str(tmp_path / "micro")],
            default + ["--out", str(tmp_path / "narrow")]]
    proc = run_python("-c", _SIMD_CHILD, json.dumps(runs), umath.__name__,
                       NPY_DISABLE_CPU_FEATURES=" ".join(wide))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0], "still_on": []}
    for name in ("events.log", "hits.csv", "timeseries.csv"):
        assert (tmp_path / "micro" / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    assert main(default + ["--out", str(tmp_path / "wide")]) == 0
    for name in ("events.log", "timeseries.csv", "hits.csv", "summary.json",
                 "timeseries.svg"):
        assert ((tmp_path / "narrow" / name).read_bytes()
                == (tmp_path / "wide" / name).read_bytes()), name


# Runs the argv lists of argv[1], pinned to one allowed CPU first if argv[2]
# is "pin", then prints their exit codes and how many CPUs it could use.
_ONE_CPU_CHILD = """
import json, os, sys
if sys.argv[2] == "pin":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from memesim.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "cpus": len(os.sched_getaffinity(0))}))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="os.sched_setaffinity is not available here")
def test_one_cpu_writes_the_same_bytes(tmp_path):
    """The walk, log-reader and logistic-fit helper threads change no byte
    when one CPU schedules them all: a default run that goes quiet from tick
    479, a supercritical-shaped run with blocks over one write_lines chunk,
    analyze of both logs and both fits of a 20,000-row table, each run by a
    child pinned to one CPU and by one that is not."""
    import numpy as np
    doc = json.loads((CONFIGS / "default.json").read_text())
    doc.update(recruits=1000, recruit_batch_size=1000, memes_per_recruit=1, horizon_ticks=30,
               sharing_model={"intercept": -3.3, "w_humor": 0.1, "w_relevance": 0.1,
                              "w_selfref": 0.1})
    rng = np.random.default_rng(5)
    x = rng.normal(size=(20000, 3))
    y = rng.random(20000) < 1 / (1 + np.exp(-(x @ [1.0, -0.5, 0.25])))
    super_cfg = write_config(tmp_path, doc, "super.json")
    table = tmp_path / "table.csv"
    np.savetxt(table, np.column_stack([x, y]), fmt="%.6f", delimiter=",",
               header="a,b,c,y", comments="")

    def commands(out):
        return [["simulate", "--config", str(CONFIGS / "default.json"), "--seed", "13",
                 "--out", str(out / "quiet")],
                ["simulate", "--config", str(super_cfg), "--seed", "5",
                 "--out", str(out / "super")],
                ["analyze", "--log", str(out / "quiet" / "events.log"),
                 "--out", str(out / "quiet_an")],
                ["analyze", "--log", str(out / "super" / "events.log"),
                 "--out", str(out / "super_an")],
                ["fit", "--data", str(table), "--model", "logistic",
                 "--out", str(out / "logistic.json")],
                ["fit", "--data", str(table), "--model", "ols", "--out", str(out / "ols.json")]]

    # Each child gets the BLAS thread count OpenBLAS would pick for it: one
    # thread pinned, one a CPU unpinned, so the fits also run on 1 and N.
    cpus = len(os.sched_getaffinity(0))
    for side, blas in (("pin", 1), ("all", cpus)):
        proc = run_python("-c", _ONE_CPU_CHILD, json.dumps(commands(tmp_path / side)), side,
                          PYTHONWARNINGS="error", OPENBLAS_NUM_THREADS=str(blas))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"codes": [0] * 6,
                                           "cpus": 1 if side == "pin" else cpus}
    pinned, unpinned = tmp_path / "pin", tmp_path / "all"
    names = sorted(p.relative_to(unpinned) for p in unpinned.rglob("*") if p.is_file())
    assert names == sorted(p.relative_to(pinned) for p in pinned.rglob("*") if p.is_file())
    assert len(names) == 2 * 5 + 2 * 3 + 2
    for name in names:
        assert (pinned / name).read_bytes() == (unpinned / name).read_bytes(), name

    for run_dir in ("quiet", "super"):
        assert ((unpinned / run_dir / "hits.csv").read_bytes()
                == (unpinned / f"{run_dir}_an" / "hits.csv").read_bytes()), run_dir
    lines = (unpinned / "super" / "events.log").read_bytes().splitlines()
    assert len(lines) == 275_284
    # A tick's EXPOSE events all lie in its one share-phase block.
    exposes = Counter(line.split(b" ", 1)[0] for line in lines if line.endswith(b" EXPOSE"))
    assert max(exposes.values()) > logio._CHUNK_EVENTS
    assert json.loads((unpinned / "logistic.json").read_text())["converged"] is True


def test_shipped_small_config_runs(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(CONFIGS / "small.json"),
                 "--out", str(out)]) == 0
    assert main(["analyze", "--log", str(out / "events.log"),
                 "--bin", "10", "--out", str(tmp_path / "an")]) == 0


# ---------------------------------------------------------------------------
# Fuzzed config contract
# ---------------------------------------------------------------------------

# A world small enough that every valid draw runs in well under a second.
TINY = {
    "population": 30, "recruits": 3, "memes_per_recruit": 2,
    "recruit_interval_ticks": 1, "horizon_ticks": 6,
    "world_width": 8.0, "world_height": 8.0, "neighbor_radius": 3.0,
    "infection_duration_ticks": 3,
    "sharing_model": {"intercept": 2.0, "w_humor": 0.4,
                      "w_relevance": 0.4, "w_selfref": 0.2},
    "master_seed": 3,
}
_ODD = [float("nan"), float("inf"), float("-inf"), 5e-324, 1e308,
        True, None, "x", [], {}]
_ANY = st.one_of(st.integers(-2 ** 70, 2 ** 70), st.sampled_from(_ODD + [10 ** 400]))
# Small or invalid only, so that no draw runs long.
_SMALL = st.one_of(st.integers(-2, 40), st.sampled_from(_ODD))
_FIELDS = sorted({f.name for f in dataclass_fields(SimConfig)}
                 | {f"sharing_model.{f.name}" for f in dataclass_fields(SharingModel)})


@st.composite
def fuzzed_docs(draw):
    """TINY with up to four fields (a coefficient as sharing_model.<name>)
    set to extreme or ill-typed values."""
    doc = json.loads(json.dumps(TINY))
    for name in draw(st.lists(st.sampled_from(_FIELDS), max_size=4, unique=True)):
        value = draw(_SMALL if name in ("population", "horizon_ticks") else _ANY)
        if not name.startswith("sharing_model."):
            doc[name] = value
        elif isinstance(doc["sharing_model"], dict):
            doc["sharing_model"][name.split(".", 1)[1]] = value
    return doc


@settings(max_examples=25, derandomize=True, deadline=None)
@given(doc=fuzzed_docs())
@example(doc=dict(TINY, neighbor_radius=5e-324))
@example(doc=dict(TINY, world_width=10 ** 400))
@example(doc=dict(TINY, infection_duration_ticks=2 ** 70))
@example(doc=dict(TINY, world_width=1e308, neighbor_radius=1e308,
                  sharing_model=dict(TINY["sharing_model"], intercept=5.0)))
@example(doc=dict(TINY, perception_noise_sd=1e308))
@example(doc=dict(TINY, perception_noise_sd=5.0,
                  sharing_model=dict(TINY["sharing_model"], w_humor=1e308)))
def test_fuzzed_config_exits_cleanly(tmp_path_factory, doc):
    tmp = tmp_path_factory.mktemp("fuzz")
    proc = _run_cli("simulate", "--config", str(write_config(tmp, doc)),
                    "--out", str(tmp / "o"), address_space=4 * 2 ** 30)
    assert proc.returncode in (0, 2, 3, 4), proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    # An overflow is a config error, never a warning beside garbage output.
    assert "RuntimeWarning" not in proc.stderr, proc.stderr
