"""Shared verification helpers: scalar oracles, the per-line log reader,
the csv table reader, the SIS transition checker, the serial sweep and a
scalar reference engine.

The oracles are the one-value-at-a-time forms of what the package computes
in batches.  Tests compare the package against them; nothing in the
package calls them.
"""

import csv
import math

import numpy as np

from memesim import logio, stats
from memesim.core import (
    MASK64,
    EventKind,
    EventRecord,
    InputError,
    _MULT1,
    _MULT2,
    _raw_block,
    _to_normal,
    substream_seed,
)
from memesim.engine import (
    UniformGrid,
    init_world,
    run_group,
    trajectory_groups,
    walk_step,
)


# ---------------------------------------------------------------------------
# Scalar oracles
# ---------------------------------------------------------------------------

def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer with Python ints."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MULT1) & MASK64
    z = ((z ^ (z >> 27)) * _MULT2) & MASK64
    return z ^ (z >> 31)


def wrap_scalar(v: float, span: float) -> float:
    """Wrap one coordinate into [0, span) with Python float arithmetic."""
    w = v % span
    # Float modulo can round up to exactly `span` for tiny negative inputs.
    if w >= span:
        w -= span
    return w


def wrap_mod(arr, span: float) -> np.ndarray:
    """The torus wrap by np.mod alone, the path core.wrap_coords takes for
    inputs outside [-span, 2 * span)."""
    w = np.mod(arr, span)
    # Float modulo can round up to exactly `span` for tiny negative inputs.
    return np.where(w >= span, w - span, w)


def uniform(stream) -> float:
    """One uniform from `stream`, drawn on its own."""
    return float(stream.uniforms(1)[0])


def normal(stream) -> float:
    """One standard normal from `stream`, drawn on its own."""
    return float(stream.normals(1)[0])


def randbelow(stream, n: int) -> int:
    """Uniform index in [0, n) via floor(u * n); bias is below n * 2**-53."""
    if n <= 0:
        raise InputError(f"randbelow requires n >= 1, got {n}")
    return min(int(uniform(stream) * n), n - 1)


def torus_distance(p, q, width: float, height: float) -> float:
    """Minimum Euclidean distance between points p and q over wrapped images."""
    dx = abs(p[0] - q[0])
    dx = min(dx, width - dx)
    dy = abs(p[1] - q[1])
    dy = min(dy, height - dy)
    return float(np.sqrt(dx * dx + dy * dy))


def neighbor_sets_bruteforce(xs, ys, width, height, radius) -> list:
    """Per-agent sorted neighbor ids by checking all O(N^2) pairs."""
    dx = np.abs(xs[:, None] - xs[None, :])
    dx = np.minimum(dx, width - dx)
    dy = np.abs(ys[:, None] - ys[None, :])
    dy = np.minimum(dy, height - dy)
    close = np.sqrt(dx * dx + dy * dy) <= radius
    np.fill_diagonal(close, False)
    return [np.flatnonzero(close[i]) for i in range(len(xs))]


def grid_neighbor_sets(xs, ys, width, height, radius) -> list:
    """The same sets from the engine's grid, in one UniformGrid.query_many call."""
    grid = UniformGrid(xs, ys, width, height, radius)
    ptr, ids = grid.query_many(xs, ys, np.arange(len(xs)))
    return np.split(ids, ptr[1:-1])


def keyed_normals(state: int, count: int) -> np.ndarray:
    """First `count` normals of the substream with base state `state`."""
    return _to_normal(_raw_block(state, 2 * count))


def sigmoid(z: float) -> float:
    """Numerically stable standard logistic, evaluated via numpy's exp."""
    t = float(np.exp(-abs(z)))
    if z >= 0:
        return 1.0 / (1.0 + t)
    return t / (1.0 + t)


def perceive_features(perception_seed: int, meme_id: int, components,
                      noise_sd: float) -> tuple:
    """(humor, self_relevance, self_reference) as one agent perceives a meme:
    its first three latent components plus noise keyed by (seed, meme_id)."""
    if noise_sd == 0.0:
        noise = (0.0, 0.0, 0.0)
    else:
        noise = keyed_normals(substream_seed(perception_seed, meme_id), 3) * noise_sd
    return tuple(float(components[j] + noise[j]) for j in range(3))


def share_probability(model, features) -> float:
    """Probability that a consumer with perceived `features` shares."""
    for name, v in zip(("humor", "self_relevance", "self_reference"), features):
        if not math.isfinite(v):
            raise InputError(f"feature {name} must be finite, got {v!r}")
    humor, relevance, selfref = features
    z = (model.intercept + model.w_humor * humor + model.w_relevance * relevance
         + model.w_selfref * selfref)
    return sigmoid(z)


def logistic_log_likelihood(coefficients, features, response) -> float:
    """Bernoulli log-likelihood of `coefficients` (intercept first)."""
    x = np.column_stack([np.ones(len(features)), np.asarray(features, dtype=np.float64)])
    y = np.asarray(response, dtype=np.float64)
    z = x @ np.asarray(coefficients, dtype=np.float64)
    # y*z - log(1 + e^z), evaluated stably for large |z|
    return float(np.sum(y * z - np.logaddexp(0.0, z)))


def emit_line(record: EventRecord) -> str:
    """Serialize one record to its log line: the grammar, one record at a time."""
    if not isinstance(record.kind, EventKind):
        raise InputError(f"unknown event kind {record.kind!r}")
    if record.tick < 0 or record.agent_id < 0:
        raise InputError("tick and agent_id must be non-negative")
    if record.kind is EventKind.RECRUIT:
        if record.meme_id is not None:
            raise InputError("RECRUIT records carry no meme_id")
        path = "/"
    else:
        if record.meme_id is None or record.meme_id < 0:
            raise InputError(f"{record.kind.name} records need a non-negative meme_id")
        path = f"/m/{record.meme_id}"
    return f'{record.tick} {record.agent_id} "GET {path}" {record.kind.name}\n'


def write_records(fh, records):
    """Write records through logio.write_lines, the package's one serializer."""
    logio.write_lines(fh, [columns_of(records)])


def columns_of(records):
    """One block of int64 columns (ticks, kinds, agents, memes), as
    logio.read_columns yields them, holding `records`."""
    return (np.array([r.tick for r in records], dtype=np.int64),
            np.array([r.kind for r in records], dtype=np.int64),
            np.array([r.agent_id for r in records], dtype=np.int64),
            np.array([-1 if r.meme_id is None else r.meme_id for r in records],
                     dtype=np.int64))


def records_of(blocks):
    """The records held by column blocks."""
    return [EventRecord(int(t), EventKind(k), int(a), None if m < 0 else int(m))
            for block in blocks for t, k, a, m in zip(*block)]


def parse_lines(lines):
    """Yield records from an iterable of lines; errors carry 1-based numbers."""
    for lineno, line in enumerate(lines, start=1):
        if line.strip() == "":
            continue
        yield logio.parse_line(line, lineno=lineno)


def read_log(path):
    """Stream records from a log file, one text line at a time.

    Undecodable bytes become lone surrogates, so they fail parse_line's
    ASCII check with a line number instead of a UnicodeDecodeError.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape",
              newline="") as fh:
        yield from parse_lines(fh)


def table_dict(table):
    """A hit table (sorted keys, int64 counts) as a dict from key to count."""
    keys, counts = table
    return dict(zip(keys.tolist(), counts.tolist()))


def aggregate_records(records, bin_width_ticks=1):
    """The hit tables (memes, bins) of records as dicts, one record at a
    time."""
    per_meme = {}
    bins = {}
    for record in records:
        meme_id = record.meme_id
        if meme_id is None:
            continue
        if record.kind is EventKind.CREATE or record.kind is EventKind.EXPOSE:
            per_meme.setdefault(meme_id, 0)
        if record.kind is EventKind.EXPOSE:
            per_meme[meme_id] += 1
            bin_start = (record.tick // bin_width_ticks) * bin_width_ticks
            bins[bin_start] = bins.get(bin_start, 0) + 1
    return per_meme, bins


def load_design_csv(path):
    """An observation table read by csv and float(), one row at a time."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file") from None
        if len(header) < 2:
            raise InputError(f"{path}: need at least one feature column plus a response")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise InputError(f"{path}:{lineno}: expected {len(header)} fields,"
                                 f" got {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise InputError(f"{path}: no data rows")
    table = np.asarray(rows, dtype=np.float64)
    return stats.DesignMatrix(features=table[:, :-1], response=table[:, -1])


def check_event_log(records, horizon=None):
    """Validate SIS transition rules over an event stream.

    Raises AssertionError on the first violation:
      * ticks are nondecreasing;
      * per (agent, meme): INFECT only when susceptible, RECOVER only when
        infected (susceptible -> infected -> susceptible, nothing else);
      * every non-seed INFECT has a same-tick EXPOSE for that (agent, meme);
        seed INFECTs are those directly following the meme's CREATE by its
        creator;
      * SHARE only by currently-infected pairs; EXPOSE carries a known meme.
    Returns summary counts by kind.
    """
    infected = set()
    created = set()
    exposed_this_tick = set()
    created_this_tick = set()
    last_tick = -1
    counts = {kind: 0 for kind in EventKind}

    for i, rec in enumerate(records):
        assert rec.tick >= last_tick, f"event {i}: tick went backwards"
        if rec.tick != last_tick:
            exposed_this_tick.clear()
            created_this_tick.clear()
            last_tick = rec.tick
        if horizon is not None:
            assert 0 <= rec.tick < horizon, f"event {i}: tick outside horizon"
        counts[rec.kind] += 1
        key = (rec.agent_id, rec.meme_id)

        if rec.kind is EventKind.RECRUIT:
            assert rec.meme_id is None
            continue
        assert rec.meme_id is not None, f"event {i}: {rec.kind.name} without meme"

        if rec.kind is EventKind.CREATE:
            assert rec.meme_id not in created, f"event {i}: duplicate CREATE"
            created.add(rec.meme_id)
            created_this_tick.add(key)
        elif rec.kind is EventKind.SHARE:
            assert key in infected, f"event {i}: SHARE by susceptible pair {key}"
        elif rec.kind is EventKind.EXPOSE:
            assert rec.meme_id in created, f"event {i}: EXPOSE of unknown meme"
            exposed_this_tick.add(key)
        elif rec.kind is EventKind.INFECT:
            assert key not in infected, f"event {i}: INFECT of infected pair {key}"
            seeded = key in created_this_tick
            assert seeded or key in exposed_this_tick, \
                f"event {i}: non-seed INFECT {key} without same-tick EXPOSE"
            infected.add(key)
        elif rec.kind is EventKind.RECOVER:
            assert key in infected, f"event {i}: RECOVER of susceptible pair {key}"
            infected.remove(key)
    return counts


# ---------------------------------------------------------------------------
# Serial sweep
# ---------------------------------------------------------------------------

def run_many(configs):
    """Yield (i, run(configs[i])) for every config, one trajectory group
    after another in this process: the serial form of cmd_sweep's pool."""
    for members in trajectory_groups(configs):
        yield from zip(members, run_group([configs[i] for i in members]))


# ---------------------------------------------------------------------------
# Scalar reference engine
# ---------------------------------------------------------------------------

class ReferenceRun:
    """Dict-based SIS bookkeeping, one (agent, meme) pair at a time.

    This is the share and recovery loop the engine ran before its infection
    state became arrays.  It borrows placement, the walk and the random
    streams from a real WorldState and its Trajectory, but keeps its own
    infection dict, expiry buckets with lazy deletion and list of event
    records.  Neighbors come from a brute-force torus scan and share
    probabilities from the scalar contract path (share_probability of
    perceive_features), so no grid or vectorized probability code is shared
    with the engine under test.
    """

    def __init__(self, config):
        self.world = init_world(config)
        self.events = []
        self.infections = {}
        self.buckets = {}
        self.probs = {}
        self.cumulative_exposures = 0
        self.currently_infected = []
        self.exposure_series = []

    def run(self):
        for _ in range(self.world.config.horizon_ticks):
            self.recruit()
            walk_step(self.world)
            self.share()
            self.recover()
            self.currently_infected.append(len(self.infections))
            self.exposure_series.append(self.cumulative_exposures)
            self.world.tick += 1
        return self

    def log(self, kind, agent_id, meme_id=None):
        self.events.append(EventRecord(self.world.tick, kind, agent_id, meme_id))

    def infect(self, key):
        expiry = self.world.tick + self.world.config.infection_duration_ticks
        self.infections[key] = expiry
        self.buckets.setdefault(expiry, []).append(key)

    def recruit(self):
        world, cfg = self.world, self.world.config
        if world.tick % cfg.recruit_interval_ticks != 0:
            return
        for _ in range(cfg.recruit_batch_size):
            if world.meme_count >= cfg.max_memes:
                break
            pool = np.flatnonzero(~world.recruited)
            agent = int(pool[randbelow(world.placement, len(pool))])
            world.recruited[agent] = True
            self.log(EventKind.RECRUIT, agent)
            for _ in range(cfg.memes_per_recruit):
                mid = world.meme_count
                world.meme_latents[mid] = world.meme_content.normals(3)
                world.meme_count += 1
                self.log(EventKind.CREATE, agent, mid)
                self.log(EventKind.INFECT, agent, mid)
                self.infect((agent, mid))

    def probability(self, key):
        if key not in self.probs:
            world, cfg = self.world, self.world.config
            agent, meme_id = key
            feats = perceive_features(int(world.perception_seeds[agent]), meme_id,
                                      world.meme_latents[meme_id],
                                      cfg.perception_noise_sd)
            self.probs[key] = share_probability(cfg.sharing_model, feats)
        return self.probs[key]

    def neighbors(self, agent):
        world, cfg = self.world, self.world.config
        dx = np.abs(world.traj.xs - world.traj.xs[agent])
        dx = np.minimum(dx, cfg.world_width - dx)
        dy = np.abs(world.traj.ys - world.traj.ys[agent])
        dy = np.minimum(dy, cfg.world_height - dy)
        hit = np.flatnonzero(np.sqrt(dx * dx + dy * dy) <= cfg.neighbor_radius)
        return [int(b) for b in hit if b != agent]

    def share(self):
        if not self.infections:
            return
        world, cfg = self.world, self.world.config
        pairs = sorted(self.infections)
        probs = [self.probability(pair) for pair in pairs]
        draws = world.decisions.uniforms(len(pairs))
        expiry = world.tick + cfg.infection_duration_ticks
        for (sharer, meme_id), p, u in zip(pairs, probs, draws):
            if not u < p:
                continue
            self.log(EventKind.SHARE, sharer, meme_id)
            for b in self.neighbors(sharer):
                self.log(EventKind.EXPOSE, b, meme_id)
                world.hits[meme_id] += 1
                self.cumulative_exposures += 1
                key = (b, meme_id)
                if key not in self.infections:
                    self.log(EventKind.INFECT, b, meme_id)
                    self.infect(key)
                elif cfg.reinfection_resets_timer and self.infections[key] != expiry:
                    self.infect(key)

    def recover(self):
        tick = self.world.tick
        due = self.buckets.pop(tick, None)
        if not due:
            return
        # Bucket entries are stale when the timer was reset since.
        for key in sorted({k for k in due if self.infections.get(k) == tick}):
            del self.infections[key]
            self.log(EventKind.RECOVER, *key)
