"""CLI surface: commands, exit codes, artifact schemas, pipeline closure."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import memesim
from _helpers import records_of, table_dict
from memesim import logio
from memesim.cli import main
from memesim.engine import SimConfig, run
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

def _sweep_doc(axes, replicates):
    doc = dict(SMALL, horizon_ticks=40, population=120,
               world_width=18.0, world_height=18.0, recruits=6)
    doc["sweep"] = {"axes": axes, "replicates": replicates}
    return doc


def test_sweep_single_point(tmp_path):
    cfg = write_config(tmp_path, _sweep_doc({"step_size": [1.0]}, 1))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == ("step_size,seed,final_cumulative_exposures,"
                        "max_hits,median_hits")
    assert len(lines) == 2


def test_sweep_cross_product_counts(tmp_path):
    axes = {"sharing_model.intercept": [-5.0, -4.0],
            "neighbor_radius": [2.0, 2.5, 3.0]}
    cfg = write_config(tmp_path, _sweep_doc(axes, 2))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("sharing_model.intercept,neighbor_radius,seed,")
    assert len(lines) == 1 + 2 * 3 * 2


def test_sweep_replicates_share_params_differ_by_seed(tmp_path):
    cfg = write_config(tmp_path, _sweep_doc({"step_size": [0.5]}, 3))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [l.split(",") for l in
            (out / "sweep.csv").read_text().splitlines()[1:]]
    params = {r[0] for r in rows}
    seeds = {r[1] for r in rows}
    assert params == {"0.5"}
    assert len(seeds) == 3


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


def test_fit_logistic_single_class_exits_4(tmp_path, capsys):
    out = tmp_path / "fit.json"
    code = main(["fit", "--data", str(FIXTURES / "single_class.csv"),
                 "--model", "logistic", "--out", str(out)])
    assert code == 4
    assert capsys.readouterr().err.startswith("degenerate-response")
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
    bad = tmp_path / "bad.log"
    bad.write_text('0 1 "GET /" RECRUIT\nnot a line\n')
    assert main(["analyze", "--log", str(bad), "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("parse-error") and "line 2" in err


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


def test_golden_micro_sweep(tmp_path):
    """Byte lock on sweep.csv: two intercepts by two replicates of the
    micro-run; two rows have a median_hits of the form k + 0.5."""
    doc = dict(MICRO, sweep={"axes": {"sharing_model.intercept": [-2.0, -1.0]},
                             "replicates": 2})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "sweep.csv").read_bytes() == (GOLDEN / "sweep.csv").read_bytes()


def test_sweep_rows_match_simulate(tmp_path):
    """Each micro-sweep row holds what simulate writes for its point and seed."""
    doc = dict(MICRO, sweep={"axes": {"sharing_model.intercept": [-2.0, -1.0]},
                             "replicates": 2})
    assert main(["sweep", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(tmp_path / "sweep")]) == 0
    lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 2
    for i, line in enumerate(lines[1:]):
        intercept, seed, final, max_hits, median_hits = line.split(",")
        point = dict(MICRO, sharing_model=dict(MICRO["sharing_model"],
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


def test_module_entrypoint_smoke(tmp_path):
    cfg = write_config(tmp_path, dict(SMALL, horizon_ticks=10))
    # The child imports the same memesim as this process, installed or not.
    package_root = str(Path(memesim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "memesim.cli", "simulate",
         "--config", str(cfg), "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "events.log").exists()


def test_shipped_small_config_runs(tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(CONFIGS / "small.json"),
                 "--out", str(out)]) == 0
    assert main(["analyze", "--log", str(out / "events.log"),
                 "--bin", "10", "--out", str(tmp_path / "an")]) == 0
