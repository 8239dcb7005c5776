"""Seeded inputs for the benchmark workloads.

Everything a workload feeds to memesim is derived here from the benchmark
seed: the master seeds of the simulations, the generated run configs, the
synthetic access log and the regression tables.  The generators also
return what a correct program must output for the generated data, so the
checks never rely on memesim itself for the expected values.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import numpy as np

# Simulation workloads draw their master seeds from fixed pools, so every
# artifact they can produce has a digest pinned in pins.json.  The benchmark
# seed picks the order in which a run walks through the pool.
SIM_POOL = tuple(range(1, 65))
SWEEP_POOL = tuple(range(1, 17))

# Above the epidemic threshold.  All recruits start at tick 0 with one meme
# each, and the memes differ only mildly in appeal, so the cost of a run is
# the sum of about a thousand similar outbreaks and varies little between
# master seeds.  With the default recruit schedule and weights a few
# outstanding memes dominate and the event count of one run moves by an
# order of magnitude from seed to seed (see README.md).
SUPERCRITICAL = {
    "recruits": 1000,
    "recruit_batch_size": 1000,
    "memes_per_recruit": 1,
    "horizon_ticks": 30,
    "sharing_model": {"intercept": -3.3, "w_humor": 0.1,
                      "w_relevance": 0.1, "w_selfref": 0.1},
}

# Calibration sweep below the default intercept: three points, two
# replicates each.  From -6.0 upwards some master seeds set off an outbreak
# that multiplies the cost of one run by up to ten (see README.md), which
# would make the cost of a sweep depend on the seed rather than the code.
SWEEP = {"axes": {"sharing_model.intercept": [-7.5, -7.0, -6.5]},
         "replicates": 2}

LOG_LINES = 500_000
LOG_MEMES = 2_000
LOG_AGENTS = 15_000
LOG_TICKS = 600
LOG_BIN = 10
# Share of non-CREATE/RECRUIT lines per event kind.
LOG_KINDS = (("EXPOSE", 0.70), ("INFECT", 0.10), ("SHARE", 0.10),
             ("RECOVER", 0.10))

FIT_ROWS = 300_000
LOGISTIC_COEFS = (-0.5, 1.0, -0.75, 0.5)   # intercept first
OLS_COEFS = (2.0, 1.5, -0.5, 0.25)         # intercept first
OLS_NOISE_SD = 1.0
# About ten standard errors at FIT_ROWS rows.
LOGISTIC_TOL = 0.05
OLS_TOL = 0.02


def pool_order(seed: int, pool) -> list:
    """The pool's master seeds in the order the benchmark seed selects."""
    order = np.random.default_rng([seed, 0]).permutation(len(pool))
    return [pool[i] for i in order]


def write_config(base_path, overrides: dict, path) -> Path:
    """Write the base config with `overrides` merged in (one level deep)."""
    doc = json.loads(Path(base_path).read_text())
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            doc[key] = {**doc[key], **value}
        else:
            doc[key] = value
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def simulate_config(workload: str, base_path, work) -> Path:
    """The run config of a `simulate` workload: the base config itself for
    subcritical, a generated one for supercritical."""
    if workload == "subcritical":
        return Path(base_path)
    return write_config(base_path, SUPERCRITICAL, Path(work) / "supercritical.json")


def sweep_config(base_path, master_seed: int, path) -> Path:
    return write_config(base_path, {"master_seed": master_seed, "sweep": SWEEP},
                        path)


def make_log(seed: int, path) -> dict:
    """Write a synthetic access log; return its size and the expected
    `analyze --bin LOG_BIN` outputs (summary.json values, hits.csv and
    bins.csv text)."""
    rng = np.random.default_rng([seed, 1])
    creators = rng.choice(LOG_AGENTS, size=LOG_MEMES // 2, replace=False)
    meme_creator = np.repeat(creators, 2)
    create_ticks = np.sort(rng.integers(0, LOG_TICKS // 2, size=LOG_MEMES))

    n_rest = LOG_LINES - LOG_MEMES - len(creators)
    names = [name for name, _ in LOG_KINDS]
    kinds = rng.choice(len(names), size=n_rest, p=[p for _, p in LOG_KINDS])
    # Heavy-tailed meme popularity: a few memes take most of the traffic
    # and many are seen at most once.
    weights = 1.0 / np.arange(1, LOG_MEMES + 1) ** 1.6
    memes = rng.choice(LOG_MEMES, size=n_rest, p=weights / weights.sum())
    ticks = np.maximum(create_ticks[memes],
                       rng.integers(0, LOG_TICKS, size=n_rest))
    agents = rng.integers(0, LOG_AGENTS, size=n_rest)

    rows = [(int(create_ticks[2 * i]), int(a), -1, "RECRUIT")
            for i, a in enumerate(creators)]
    rows += [(int(t), int(meme_creator[m]), m, "CREATE")
             for m, t in enumerate(create_ticks)]
    rows += [(int(t), int(a), int(m), names[k])
             for t, a, m, k in zip(ticks, agents, memes, kinds)]
    rows.sort(key=lambda r: r[0])
    text = "".join(f'{t} {a} "GET /" {k}\n' if m < 0
                   else f'{t} {a} "GET /m/{m}" {k}\n' for t, a, m, k in rows)
    Path(path).write_text(text)

    expose = kinds == names.index("EXPOSE")
    counts = np.bincount(memes[expose], minlength=LOG_MEMES).tolist()
    bins = np.bincount(ticks[expose] // LOG_BIN)
    summary = {
        "total_hits": sum(counts),
        "meme_count": len(counts),
        "max_hits": max(counts),
        "median_hits": float(statistics.median(counts)),
        "fraction_below_2": sum(1 for c in counts if c < 2) / len(counts),
        "bin_width_ticks": LOG_BIN,
        "counted_kinds": ["EXPOSE"],
    }
    hits_csv = "meme_id,hits\n" + "".join(
        f"{m},{c}\n" for m, c in enumerate(counts))
    bins_csv = "bin_start_tick,hits\n" + "".join(
        f"{b * LOG_BIN},{c}\n" for b, c in enumerate(bins.tolist()) if c)
    return {"lines": len(rows), "bytes": len(text), "summary": summary,
            "hits_csv": hits_csv, "bins_csv": bins_csv}


def make_fit_table(seed: int, model: str, path) -> dict:
    """Write a 3-feature table whose response follows `model` with known
    coefficients; return its size, the coefficients and the tolerance."""
    rng = np.random.default_rng([seed, 2 if model == "logistic" else 3])
    x = rng.standard_normal((FIT_ROWS, 3))
    if model == "logistic":
        coefs, tol = LOGISTIC_COEFS, LOGISTIC_TOL
        z = coefs[0] + x @ np.asarray(coefs[1:])
        y = (rng.random(FIT_ROWS) < 1.0 / (1.0 + np.exp(-z))).astype(float)
    else:
        coefs, tol = OLS_COEFS, OLS_TOL
        y = (coefs[0] + x @ np.asarray(coefs[1:])
             + OLS_NOISE_SD * rng.standard_normal(FIT_ROWS))
    with open(path, "w", newline="") as fh:
        fh.write("x1,x2,x3,y\n")
        np.savetxt(fh, np.column_stack([x, y]), fmt="%.6f", delimiter=",")
    return {"rows": FIT_ROWS, "bytes": Path(path).stat().st_size,
            "coefficients": list(coefs), "tolerance": tol}
