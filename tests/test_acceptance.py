"""Acceptance suite: one test per release criterion, at fixed tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  The twenty seeded full-scale runs are shared between the
distribution-shape criteria through a session fixture.
"""

import io
import json
import random
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from _helpers import (
    check_event_log,
    grid_neighbor_sets,
    logistic_log_likelihood,
    neighbor_sets_bruteforce,
    records_of,
    table_dict,
    write_records,
)
from memesim import logio
from memesim.cli import main
from memesim.core import EventKind, EventRecord
from memesim.decision import SharingModel
from memesim.engine import SimConfig, run
from memesim.stats import DesignMatrix, logistic_fit, ols_fit

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def criterion(name: str, ok: bool, detail: str = ""):
    print(f"\n[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def default_battery():
    """Twenty seeded full-scale runs at shipped defaults (seeds 1..20)."""
    results = []
    for seed in range(1, 21):
        out = run(SimConfig(master_seed=seed))
        results.append({
            "seed": seed,
            "hits": table_dict(out.hits),
            "cumulative": [int(v) for v in out.cumulative_exposures],
        })
    return results


def test_full_scale_run_completes(tmp_path):
    # Default config: 15,000 agents, 118 recruits, 2 memes each, recruit
    # every 4 ticks, 600-tick horizon; must finish under 60 s and emit all
    # artifacts.  Exact human traffic totals are not a target.
    cfg = SimConfig()
    assert (cfg.population, cfg.recruits, cfg.memes_per_recruit,
            cfg.recruit_interval_ticks, cfg.horizon_ticks) == (15000, 118, 2, 4, 600)
    started = time.perf_counter()
    code = main(["simulate", "--config", str(CONFIGS / "default.json"),
                 "--out", str(tmp_path)])
    elapsed = time.perf_counter() - started
    artifacts = ["events.log", "timeseries.csv", "hits.csv",
                 "summary.json", "timeseries.svg"]
    present = all((tmp_path / a).exists() for a in artifacts)
    parses = bool(records_of(logio.read_columns(tmp_path / "events.log")))
    json.loads((tmp_path / "summary.json").read_text())
    criterion("full-scale run < 60 s with all artifacts",
              code == 0 and elapsed < 60.0 and present and parses,
              f"({elapsed:.1f}s)")


def test_heavy_tail_shape(default_battery):
    # In >= 16 of 20 runs: median <= 2 and max >= 10 * max(median, 1).
    good = 0
    details = []
    for res in default_battery:
        counts = list(res["hits"].values())
        med = statistics.median(counts) if counts else 0.0
        mx = max(counts) if counts else 0
        ok = med <= 2 and mx >= 10 * max(med, 1)
        good += ok
        details.append(f"seed {res['seed']}: median={med} max={mx} {'ok' if ok else 'BAD'}")
    criterion("heavy-tail hit distribution in >= 16/20 runs", good >= 16,
              f"({good}/20) " + "; ".join(d for d in details if "BAD" in d))


def test_adoption_curve_shape(default_battery):
    # Hard invariant: cumulative exposures never decrease, in every run.
    # Shape: in >= 16/20 runs the largest per-tick increment lands strictly
    # after tick 20 and before the final tick.
    nondecreasing = all(
        all(b >= a for a, b in zip(res["cumulative"], res["cumulative"][1:]))
        for res in default_battery)
    criterion("cumulative exposures nondecreasing in all runs", nondecreasing)

    good = 0
    for res in default_battery:
        cum = res["cumulative"]
        inc = [cum[0]] + [b - a for a, b in zip(cum, cum[1:])]
        peak = max(inc)
        peak_ticks = [t for t, v in enumerate(inc) if v == peak]
        if peak > 0 and min(peak_ticks) > 20 and max(peak_ticks) < len(inc) - 1:
            good += 1
    criterion("growth phase strictly inside horizon in >= 16/20 runs",
              good >= 16, f"({good}/20)")


def test_sis_invariant_suite():
    # 1,000-tick randomized 50-agent worlds; zero transition violations.
    rng = np.random.default_rng(2718)
    worlds = 0
    for _ in range(10):
        cfg = SimConfig(
            population=50,
            recruits=int(rng.integers(2, 12)),
            memes_per_recruit=int(rng.integers(1, 4)),
            recruit_interval_ticks=int(rng.integers(1, 8)),
            horizon_ticks=1000,
            world_width=float(rng.uniform(10, 25)),
            world_height=float(rng.uniform(10, 25)),
            step_size=float(rng.uniform(0.0, 2.0)),
            neighbor_radius=float(rng.uniform(0.5, 4.0)),
            infection_duration_ticks=int(rng.integers(1, 15)),
            perception_noise_sd=float(rng.uniform(0.0, 1.0)),
            sharing_model=SharingModel(float(rng.uniform(-4, -0.5)),
                                       0.5, 0.5, 0.25),
            reinfection_resets_timer=bool(rng.integers(0, 2)),
            master_seed=int(rng.integers(0, 2**63)),
        )
        out = run(cfg)
        check_event_log(out.event_records(), horizon=cfg.horizon_ticks)
        worlds += 1
    criterion("SIS transition checker on randomized small worlds",
              worlds == 10, f"({worlds} worlds, 1000 ticks each)")


def test_neighbor_oracle_equivalence():
    # Grid-bucketed neighbor sets equal brute force on 200 random configs.
    rng = np.random.default_rng(31415)
    mismatches = 0
    for _ in range(200):
        n = 500
        w = float(rng.uniform(20, 250))
        h = float(rng.uniform(20, 250))
        radius = float(rng.uniform(0.5, 0.5 * min(w, h)))
        xs = rng.uniform(0, w, n)
        ys = rng.uniform(0, h, n)
        grid_sets = grid_neighbor_sets(xs, ys, w, h, radius)
        brute_sets = neighbor_sets_bruteforce(xs, ys, w, h, radius)
        for g, b in zip(grid_sets, brute_sets):
            if not np.array_equal(g, b):
                mismatches += 1
    criterion("grid neighbor search equals brute-force oracle",
              mismatches == 0, f"(200 configs x 500 agents, {mismatches} mismatches)")


def test_coefficient_recovery():
    # Logistic: 5,000 samples from sigmoid(-1 + 2x); recover within 0.15.
    rng = np.random.default_rng(1618)
    x = rng.normal(size=(5000, 1))
    p = 1.0 / (1.0 + np.exp(-(-1.0 + 2.0 * x[:, 0])))
    y = (rng.random(5000) < p).astype(float)
    fit = logistic_fit(DesignMatrix(x, y))
    logistic_ok = (fit.converged
                   and abs(fit.coefficients[0] - (-1.0)) <= 0.15
                   and abs(fit.coefficients[1] - 2.0) <= 0.15)
    criterion("logistic recovery of (-1, 2) within 0.15", logistic_ok,
              f"(got {fit.coefficients[0]:.3f}, {fit.coefficients[1]:.3f})")

    # OLS: noiseless y = 2x + 1 exact to 1e-8.
    xs = np.linspace(-5, 5, 50).reshape(-1, 1)
    ys = 2.0 * xs[:, 0] + 1.0
    ols = ols_fit(DesignMatrix(xs, ys))
    ols_ok = (abs(ols.coefficients[0] - 1.0) <= 1e-8
              and abs(ols.coefficients[1] - 2.0) <= 1e-8)
    criterion("OLS exact on noiseless linear data (1e-8)", ols_ok,
              f"(got {ols.coefficients})")

    # Logistic gradient vs central finite differences, relative 1e-4.
    beta = np.array(fit.coefficients)
    xb = np.column_stack([np.ones(len(x)), x])
    mu = 1.0 / (1.0 + np.exp(-(xb @ beta)))
    analytic = xb.T @ (y - mu)
    h = 1e-5
    worst = 0.0
    for j in range(len(beta)):
        up, dn = beta.copy(), beta.copy()
        up[j] += h
        dn[j] -= h
        fd = (logistic_log_likelihood(up, x, y)
              - logistic_log_likelihood(dn, x, y)) / (2 * h)
        worst = max(worst, abs(analytic[j] - fd) / max(abs(fd), 1.0))
    criterion("logistic gradient matches finite differences (1e-4)",
              worst <= 1e-4, f"(worst rel err {worst:.2e})")


def test_pipeline_closure(tmp_path):
    # simulate -> analyze reproduces in-memory per-meme counts bit-exactly.
    cfg = SimConfig(population=400, recruits=16, horizon_ticks=150,
                    world_width=33.0, world_height=33.0,
                    sharing_model=SharingModel(-4.0, 0.4, 0.4, 0.2),
                    master_seed=27)
    out = run(cfg)
    log_path = tmp_path / "events.log"
    out.write_event_log(log_path)
    memes, _ = logio.aggregate_hits(logio.read_columns(log_path))
    criterion("simulate -> analyze per-meme closure",
              table_dict(memes) == table_dict(out.hits),
              f"({len(out.hits[0])} memes, {len(out.events)} events)")

    # Write/parse round trip over 10,000 random records.
    rng = random.Random(777)
    kinds = list(EventKind)
    records = []
    for _ in range(10_000):
        kind = rng.choice(kinds)
        records.append(EventRecord(
            tick=rng.randrange(0, 10**6), kind=kind,
            agent_id=rng.randrange(0, 10**6),
            meme_id=None if kind is EventKind.RECRUIT else rng.randrange(0, 10**6)))
    buf = io.BytesIO()
    write_records(buf, records)
    lines = buf.getvalue().decode("ascii").splitlines()
    bad = sum(logio.parse_line(line) != rec for line, rec in zip(lines, records))
    bad += abs(len(lines) - len(records))
    criterion("log line round trip over 10,000 records", bad == 0,
              f"({bad} mismatches)")


def test_supercritical_full_scale_run(tmp_path):
    # Above the epidemic threshold in a full-size world: 1,000 recruits
    # seeded at tick 0 with one meme each, intercept -3.3.  The event log
    # passes the SIS checker, analyze reproduces hits.csv from events.log,
    # and timeseries.csv agrees with the INFECT/RECOVER/EXPOSE counts.
    horizon = 15
    doc = json.loads((CONFIGS / "default.json").read_text())
    doc.update(recruits=1000, recruit_batch_size=1000, memes_per_recruit=1,
               horizon_ticks=horizon,
               sharing_model={"intercept": -3.3, "w_humor": 0.1,
                              "w_relevance": 0.1, "w_selfref": 0.1})
    config = tmp_path / "supercritical.json"
    config.write_text(json.dumps(doc))
    sim, analysis = tmp_path / "sim", tmp_path / "analysis"
    assert main(["simulate", "--config", str(config), "--out", str(sim)]) == 0
    records = records_of(logio.read_columns(sim / "events.log"))
    counts = check_event_log(records, horizon=horizon)

    infected = np.zeros(horizon, dtype=np.int64)
    exposures = np.zeros(horizon, dtype=np.int64)
    for rec in records:
        if rec.kind is EventKind.INFECT:
            infected[rec.tick] += 1
        elif rec.kind is EventKind.RECOVER:
            infected[rec.tick] -= 1
        elif rec.kind is EventKind.EXPOSE:
            exposures[rec.tick] += 1
    lines = (sim / "timeseries.csv").read_text().splitlines()
    series = np.array([[int(v) for v in line.split(",")] for line in lines[1:]])
    series_ok = (np.array_equal(series[:, 0], np.arange(horizon))
                 and np.array_equal(series[:, 1], np.cumsum(infected))
                 and np.array_equal(series[:, 2], np.cumsum(exposures)))
    criterion("supercritical time series matches event counts", series_ok,
              f"({len(records)} events)")
    criterion("supercritical run spreads past its 1,000 seeds",
              counts[EventKind.RECRUIT] == 1000 and series[-1, 1] > 5 * 1000,
              f"(final active pairs {series[-1, 1]})")

    assert main(["analyze", "--log", str(sim / "events.log"), "--bin", "10",
                 "--out", str(analysis)]) == 0
    criterion("supercritical simulate -> analyze hits.csv closure",
              (analysis / "hits.csv").read_bytes() == (sim / "hits.csv").read_bytes())


def test_determinism_byte_identical(tmp_path):
    # Same config + seed: two consecutive runs, byte-identical event logs.
    cfg = SimConfig(master_seed=13)
    a = run(cfg)
    b = run(cfg)
    pa, pb = tmp_path / "a.log", tmp_path / "b.log"
    a.write_event_log(pa)
    b.write_event_log(pb)
    same = pa.read_bytes() == pb.read_bytes()
    criterion("byte-identical event logs across consecutive runs", same,
              f"({pa.stat().st_size} bytes)")
