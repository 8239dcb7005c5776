"""Discrete-time SIS simulation of meme sharing on a toroidal world.

Each tick runs four phases in a fixed order -- recruit, walk, share,
recovery -- so a run is fully determined by its config and master seed.
Randomness is split across named streams (placement, walk, meme content,
decisions, perception) so that, for example, changing the sharing model
leaves agent trajectories untouched: every config with one `trajectory_key`
walks one `Trajectory`, and `run_group` walks it once per tick for them all.

Infection state is three aligned arrays on the world: `keys`, the sorted
int64 pair keys ``agent * max_memes + meme`` (so key order is (agent,
meme) order, the order in which the share phase draws its decisions);
`expiry`, the absolute tick at which each pair recovers; and `probs`, each
pair's share probability, computed once when the pair is inserted.  A pair
infected at tick t with duration d takes part in the share phases of ticks
t+1 .. t+d and is removed by the recovery phase of tick t+d (a
recruiter-seeded pair also shares on its creation tick, since the recruit
phase precedes the share phase).  Re-exposure of an infected pair resets
the timer by default (`reinfection_resets_timer`).  The share and recovery
phases are whole-tick array passes, and every phase appends its events for
the tick to the `EventLog` as one column block, the layout that
`logio.write_lines` writes and `logio.read_columns` reads;
`SimOutput.write_event_log` hands the blocks to `write_lines` on a binary
file.
"""

from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import logio
from .core import (
    ConfigurationError,
    EventKind,
    EventRecord,
    RngStream,
    StreamLabel,
    perception_noise_batch,
    wrap_coords,
)
from .decision import DEFAULT_SHARING_MODEL, SharingModel, sigmoid_array


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimConfig:
    """All knobs of one simulation run (defaults give the full 15k-agent world)."""

    population: int = 15000
    recruits: int = 118
    memes_per_recruit: int = 2
    recruit_interval_ticks: int = 4
    recruit_batch_size: int = 1
    horizon_ticks: int = 600
    world_width: float = 200.0
    world_height: float = 200.0
    step_size: float = 1.0
    neighbor_radius: float = 3.0
    infection_duration_ticks: int = 10
    perception_noise_sd: float = 0.5
    sharing_model: SharingModel = DEFAULT_SHARING_MODEL
    master_seed: int = 42
    reinfection_resets_timer: bool = True

    def validate(self) -> list:
        """Return (field, reason) for every violated invariant; empty if valid."""
        bad = []

        def check(ok, fname, reason):
            if not ok:
                bad.append((fname, reason))

        check(_is_int(self.population) and self.population >= 1,
              "population", "must be a positive integer")
        check(_is_int(self.recruits) and self.recruits >= 1,
              "recruits", "must be a positive integer")
        if _is_int(self.population) and _is_int(self.recruits):
            check(self.recruits <= self.population,
                  "recruits", "must not exceed population")
        check(_is_int(self.memes_per_recruit) and self.memes_per_recruit >= 1,
              "memes_per_recruit", "must be a positive integer")
        check(_is_int(self.recruit_interval_ticks) and self.recruit_interval_ticks >= 1,
              "recruit_interval_ticks", "must be a positive integer")
        check(_is_int(self.recruit_batch_size) and self.recruit_batch_size >= 1,
              "recruit_batch_size", "must be a positive integer")
        check(_is_int(self.horizon_ticks) and self.horizon_ticks >= 0,
              "horizon_ticks", "must be a non-negative integer")
        for name in ("world_width", "world_height"):
            span = getattr(self, name)
            check(_is_real(span) and span > 0, name, "must be a positive real")
            # A torus offset is at most half a span: dx*dx + dy*dy < 2**1021.
            check(not _is_real(span) or span <= 2 ** 511, name, "must be at most 2**511")
        check(_is_real(self.step_size) and self.step_size >= 0,
              "step_size", "must be a non-negative real")
        check(_is_real(self.neighbor_radius) and self.neighbor_radius > 0,
              "neighbor_radius", "must be a positive real")
        check(_is_int(self.infection_duration_ticks) and self.infection_duration_ticks >= 1,
              "infection_duration_ticks", "must be a positive integer")
        if _is_int(self.horizon_ticks) and _is_int(self.infection_duration_ticks):
            # Expiry ticks are int64.
            check(self.horizon_ticks + self.infection_duration_ticks < 2 ** 63,
                  "infection_duration_ticks",
                  "must keep horizon_ticks + infection_duration_ticks below 2**63")
        check(_is_real(self.perception_noise_sd) and self.perception_noise_sd >= 0,
              "perception_noise_sd", "must be a non-negative real")
        # Box-Muller normals are below 8.58, so with these bounds every term
        # and sum of a logit stays below about 2**1006.
        check(not _is_real(self.perception_noise_sd) or self.perception_noise_sd <= 2 ** 500,
              "perception_noise_sd", "must be at most 2**500")
        check(isinstance(self.sharing_model, SharingModel), "sharing_model",
              "must be a SharingModel")
        if isinstance(self.sharing_model, SharingModel):
            for f in fields(SharingModel):
                value = getattr(self.sharing_model, f.name)
                check(_is_real(value), f"sharing_model.{f.name}", "must be a finite real")
                check(not _is_real(value) or abs(value) <= 2 ** 500, f"sharing_model.{f.name}",
                      "must be at most 2**500 in magnitude")
        check(_is_int(self.master_seed) and 0 <= self.master_seed < 2 ** 64,
              "master_seed", "must be an unsigned 64-bit integer")
        check(isinstance(self.reinfection_resets_timer, bool),
              "reinfection_resets_timer", "must be a boolean")
        if all(_is_int(v) for v in (self.population, self.recruits, self.memes_per_recruit)):
            # Pair keys are int64, and WorldState holds 24 bytes of latents per meme.
            check(max(self.population, 24) * self.max_memes < 2 ** 63, "memes_per_recruit",
                  "must keep max(population, 24) * recruits * memes_per_recruit below 2**63")
        return bad

    def ensure_valid(self):
        bad = self.validate()
        if bad:
            msg = "; ".join(f"{name}: {reason}" for name, reason in bad)
            raise ConfigurationError(f"invalid config: {msg}",
                                     fields=[name for name, _ in bad])

    @property
    def max_memes(self) -> int:
        return self.recruits * self.memes_per_recruit


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    # NaN fails the comparison, and an int beyond the float range is no real.
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


# ---------------------------------------------------------------------------
# Event log (columnar, so million-event runs stay cheap)
# ---------------------------------------------------------------------------

class EventLog:
    """Append-only event store: column blocks, as logio.read_columns yields them."""

    __slots__ = ("blocks",)

    def __init__(self):
        self.blocks = []

    def extend(self, tick: int, kinds, agents, memes):
        """Append one tick's events as one block, kinds as int8.  The int64
        `agents` and `memes` are kept, not copied: each phase passes arrays
        it never changes again."""
        self.blocks.append((np.full(len(kinds), tick, dtype=np.int64),
                            np.asarray(kinds, dtype=np.int8), agents, memes))

    def __len__(self) -> int:
        return sum(len(block[0]) for block in self.blocks)


# ---------------------------------------------------------------------------
# Neighbor search
# ---------------------------------------------------------------------------

class UniformGrid:
    """Torus-aware cell list with cell edges >= radius, so the 3x3 cell
    neighborhood always covers the query disk.

    Agents are bucketed by cell with a stable sort (ids ascending within a
    cell), and `_starts` holds each cell's offset into that order: the
    cell-list layout of molecular dynamics codes (Allen & Tildesley,
    *Computer Simulation of Liquids*).
    """

    __slots__ = ("xs", "ys", "width", "height", "radius", "ncx", "ncy",
                 "cell_w", "cell_h", "_order", "_starts", "_offsets")

    def __init__(self, xs, ys, width, height, radius):
        self.xs = xs
        self.ys = ys
        self.width = width
        self.height = height
        self.radius = radius
        # Any cell edge >= radius is correct; the cap keeps a tiny radius from
        # asking for billions of mostly empty cells (inf if width // radius overflows).
        cap = math.isqrt(len(xs)) + 1
        self.ncx = max(1, int(min(width // radius, cap)))
        self.ncy = max(1, int(min(height // radius, cap)))
        self.cell_w = width / self.ncx
        self.cell_h = height / self.ncy
        flat = self._cell_of(xs, ys)
        # The narrowest key type: numpy radix-sorts keys of 16 bits or fewer.
        self._order = np.argsort(flat.astype(np.min_scalar_type(self.ncx * self.ncy - 1)),
                                 kind="stable")
        self._starts = np.searchsorted(flat[self._order],
                                       np.arange(self.ncx * self.ncy + 1))
        # Offsets of the distinct cells around a cell: with fewer than three
        # cells along an axis, -1 and +1 wrap onto the same column or row.
        self._offsets = np.array([(dx, dy) for dx in (-1, 0, 1)[:self.ncx]
                                  for dy in (-1, 0, 1)[:self.ncy]], dtype=np.int64)

    def _cell_of(self, xs, ys) -> np.ndarray:
        cx = np.minimum((xs / self.cell_w).astype(np.int64), self.ncx - 1)
        cy = np.minimum((ys / self.cell_h).astype(np.int64), self.ncy - 1)
        return cx * self.ncy + cy

    def query_many(self, qx, qy, exclude):
        """Neighbors of many points at once, as CSR arrays (ptr, ids).

        ids[ptr[i]:ptr[i + 1]] are the sorted ids of agents within `radius`
        of (qx[i], qy[i]), minus exclude[i]; pass an entry < 0 to exclude
        nothing.
        """
        qx = np.asarray(qx, dtype=np.float64)
        qy = np.asarray(qy, dtype=np.float64)
        nq = len(qx)
        flat = self._cell_of(qx, qy)
        cx, cy = np.divmod(flat, self.ncy)
        # (query, cell) pairs, query-major.
        cells = (((cx[:, None] + self._offsets[:, 0]) % self.ncx) * self.ncy
                 + (cy[:, None] + self._offsets[:, 1]) % self.ncy).ravel()
        lo = self._starts[cells]
        counts = self._starts[cells + 1] - lo
        total = int(counts.sum())
        # Expand every (query, cell) pair into its run of the cell order.
        run_start = np.cumsum(counts) - counts
        pos = np.arange(total) + np.repeat(lo - run_start, counts)
        cand = self._order[pos]
        owner = np.repeat(np.repeat(np.arange(nq), len(self._offsets)), counts)
        dx = np.abs(self.xs[cand] - qx[owner])
        dx = np.minimum(dx, self.width - dx)
        dy = np.abs(self.ys[cand] - qy[owner])
        dy = np.minimum(dy, self.height - dy)
        hit = np.sqrt(dx * dx + dy * dy) <= self.radius
        hit &= cand != np.asarray(exclude, dtype=np.int64)[owner]
        # Sorting (query, id) keys groups rows and sorts ids within each.
        n = len(self.xs)
        keyed = np.sort(owner[hit] * n + cand[hit])
        ptr = np.zeros(nq + 1, dtype=np.int64)
        np.cumsum(np.bincount(keyed // n, minlength=nq), out=ptr[1:])
        return ptr, keyed % n

    def query(self, x: float, y: float, exclude_id: int = -1) -> np.ndarray:
        """Sorted ids of agents within `radius` of (x, y), minus exclude_id."""
        _, ids = self.query_many([x], [y], [exclude_id])
        return ids


# ---------------------------------------------------------------------------
# World state and tick phases
# ---------------------------------------------------------------------------

class Trajectory:
    """Agent positions and the walk stream, fixed by trajectory_key alone.

    `placement` is the placement stream just past the positions' draws;
    each world on the trajectory copies it for its recruits.
    """

    __slots__ = ("xs", "ys", "walk", "placement")

    def __init__(self, config: SimConfig):
        n = config.population
        self.placement = RngStream(config.master_seed, StreamLabel.PLACEMENT)
        self.walk = RngStream(config.master_seed, StreamLabel.WALK)
        u = self.placement.uniforms(2 * n)
        self.xs = wrap_coords(u[0::2] * config.world_width, config.world_width)
        self.ys = wrap_coords(u[1::2] * config.world_height, config.world_height)


def trajectory_key(config: SimConfig) -> tuple:
    """The fields that fix a run's Trajectory."""
    return (config.population, config.world_width, config.world_height,
            config.step_size, config.master_seed)


class WorldState:
    """Epidemic state of one run on its shared Trajectory `traj`; built by init_world."""

    __slots__ = ("config", "traj", "tick", "recruited",
                 "perception_seeds", "meme_latents", "meme_count",
                 "keys", "expiry", "probs", "hits", "events",
                 "placement", "meme_content", "decisions",
                 "infected_series", "exposure_series")

    def __init__(self, config: SimConfig, traj: Trajectory):
        self.config = config
        self.traj = traj
        self.tick = 0
        n = config.population
        self.placement = copy.copy(traj.placement)
        self.meme_content = RngStream(config.master_seed, StreamLabel.MEME_CONTENT)
        self.decisions = RngStream(config.master_seed, StreamLabel.DECISIONS)
        self.perception_seeds = RngStream(config.master_seed,
                                          StreamLabel.PERCEPTION).raw(n)

        self.recruited = np.zeros(n, dtype=bool)
        # One latent per perceived feature: humor, self-relevance, self-reference.
        self.meme_latents = np.zeros((config.max_memes, 3))
        self.meme_count = 0
        self.keys = np.empty(0, dtype=np.int64)
        self.expiry = np.empty(0, dtype=np.int64)
        self.probs = np.empty(0, dtype=np.float64)
        self.hits = np.zeros(config.max_memes, dtype=np.int64)
        self.events = EventLog()
        self.infected_series = []
        self.exposure_series = []

    # -- internals ----------------------------------------------------------

    def _infect(self, new_keys: np.ndarray):
        """Infect the pairs `new_keys` (sorted, none infected yet) this tick."""
        m = self.config.max_memes
        self.keys, self.expiry, self.probs = _insert(
            np.searchsorted(self.keys, new_keys),
            (self.keys, new_keys),
            (self.expiry, self.tick + self.config.infection_duration_ticks),
            (self.probs, self._share_probs(new_keys // m, new_keys % m)))

    def _share_probs(self, agents: np.ndarray, meme_ids: np.ndarray) -> np.ndarray:
        """Vectorized share probabilities for (agent, meme) pairs.

        Features are the three latent components plus perception noise;
        the logit intercept + w . features is accumulated left to right.
        """
        model = self.config.sharing_model
        noise = perception_noise_batch(self.perception_seeds[agents], meme_ids,
                                       self.config.perception_noise_sd)
        feats = self.meme_latents[meme_ids] + noise
        z = model.intercept + model.w_humor * feats[:, 0]
        z = z + model.w_relevance * feats[:, 1]
        z = z + model.w_selfref * feats[:, 2]
        return sigmoid_array(z)


def _insert(slots, *columns):
    """np.insert(array, slots, values) for each (array, values) pair of
    `columns`, all of one length, with the new positions found once.
    Values at equal slots keep their given order."""
    order = np.argsort(slots, kind="stable")
    at = np.empty(len(slots), dtype=np.int64)
    at[order] = slots[order] + np.arange(len(slots))
    keep = np.ones(len(columns[0][0]) + len(slots), dtype=bool)
    keep[at] = False
    merged = []
    for array, values in columns:
        out = np.empty(len(keep), dtype=array.dtype)
        out[at] = values
        out[keep] = array
        merged.append(out)
    return merged


def init_world(config: SimConfig, traj: Trajectory | None = None) -> WorldState:
    """A world at tick 0 with no memes, on `traj` if given (it must have
    config's trajectory_key), else on a new Trajectory."""
    config.ensure_valid()
    return WorldState(config, Trajectory(config) if traj is None else traj)


def recruit_step(world: WorldState) -> WorldState:
    """Recruit up to recruit_batch_size agents when the tick is on cadence.

    Each recruit is drawn uniformly from the not-yet-recruited pool, creates
    memes_per_recruit fresh memes, and starts out infected with each.
    No-op off cadence or once the quota is reached.
    """
    cfg = world.config
    k = min(cfg.recruit_batch_size,
            cfg.recruits - world.meme_count // cfg.memes_per_recruit)
    if world.tick % cfg.recruit_interval_ticks != 0 or k <= 0:
        return world
    # Recruit i takes index floor(u_i * size) of the ascending pool that
    # recruits 0..i-1 left, one placement uniform per recruit.
    pool = np.flatnonzero(~world.recruited)
    sizes = len(pool) - np.arange(k)
    picks = np.minimum((world.placement.uniforms(k) * sizes).astype(np.int64),
                       sizes - 1)
    recruits = np.empty(k, dtype=np.int64)
    for i, j in enumerate(picks.tolist()):
        recruits[i] = pool[j]
        pool[j:-1] = pool[j + 1:]
    world.recruited[recruits] = True

    first, n_memes = world.meme_count, k * cfg.memes_per_recruit
    mids = np.arange(first, first + n_memes).reshape(k, cfg.memes_per_recruit)
    world.meme_latents[first:first + n_memes] = world.meme_content.normals(
        n_memes * 3).reshape(n_memes, 3)
    world.meme_count += n_memes
    # Per recruit: RECRUIT, then CREATE and INFECT for each of its memes.
    kinds = np.tile([EventKind.RECRUIT]
                    + [EventKind.CREATE, EventKind.INFECT] * cfg.memes_per_recruit, k)
    memes = np.column_stack([np.full(k, -1), np.repeat(mids, 2, axis=1)])
    world.events.extend(world.tick, kinds,
                        np.repeat(recruits, memes.shape[1]), memes.ravel())
    world._infect(np.sort((recruits[:, None] * cfg.max_memes + mids).ravel()))
    return world


def walk_step(world: WorldState) -> WorldState:
    """Move every agent of world.traj one fixed-length step in a uniformly
    random direction (for every world on that trajectory)."""
    cfg, traj = world.config, world.traj
    theta = traj.walk.uniforms(cfg.population)
    theta *= 2.0 * np.pi
    dx = np.cos(theta)
    dx *= cfg.step_size
    dx += traj.xs
    traj.xs = wrap_coords(dx, cfg.world_width)
    dy = np.sin(theta)
    dy *= cfg.step_size
    dy += traj.ys
    traj.ys = wrap_coords(dy, cfg.world_height)
    return world


def share_step(world: WorldState) -> WorldState:
    """Every infected (agent, meme) pair decides once whether to share.

    Sharers expose every other agent within neighbor_radius (EXPOSE is logged
    even for already-infected neighbors -- repeat views count); susceptible
    neighbors become infected for infection_duration_ticks.  Pairs infected
    during this phase do not act until the next tick.

    Events come out as if the sharing pairs acted one by one in key order:
    SHARE, then per neighbor in id order EXPOSE, followed by INFECT when
    that exposure is the pair's first this tick and the pair was
    susceptible at the start of the tick.
    """
    keys = world.keys
    if len(keys) == 0:
        return world
    cfg = world.config
    m = cfg.max_memes
    shared = world.decisions.uniforms(len(keys)) < world.probs
    if not shared.any():
        return world

    # One neighbor query per sharing pair, in key order, so the query's
    # rows are already the exposures in emission order.
    sharers, memes = np.divmod(keys[shared], m)
    xs, ys = world.traj.xs, world.traj.ys
    grid = UniformGrid(xs, ys, cfg.world_width, cfg.world_height, cfg.neighbor_radius)
    ptr, exposed = grid.query_many(xs[sharers], ys[sharers], sharers)
    first = ptr[:-1]
    n_pairs, n_exp = len(sharers), len(exposed)
    exp_memes = np.repeat(memes, np.diff(ptr))

    exposed_keys, first_exposure = np.unique(exposed * m + exp_memes,
                                             return_index=True)
    at = np.searchsorted(keys, exposed_keys)
    known = keys[np.minimum(at, len(keys) - 1)] == exposed_keys
    infect = np.zeros(n_exp, dtype=bool)
    infect[first_exposure[~known]] = True

    # Each INFECT goes after its EXPOSE, each SHARE before its pair's first
    # exposure.  _insert keeps the given order of equal slots, so an INFECT
    # that ends one pair stays ahead of the next pair's SHARE.
    slots = np.concatenate([np.flatnonzero(infect) + 1, first])
    n_infect = len(slots) - n_pairs
    kinds, agents, event_memes = _insert(
        slots,
        (np.full(n_exp, EventKind.EXPOSE, dtype=np.int8),
         np.repeat([EventKind.INFECT, EventKind.SHARE], [n_infect, n_pairs])),
        (exposed, np.concatenate([exposed[infect], sharers])),
        (exp_memes, np.concatenate([exp_memes[infect], memes])))
    world.events.extend(world.tick, kinds, agents, event_memes)
    world.hits += np.bincount(exp_memes, minlength=m)

    if cfg.reinfection_resets_timer:
        world.expiry[at[known]] = world.tick + cfg.infection_duration_ticks
    if not known.all():
        world._infect(exposed_keys[~known])
    return world


def recovery_step(world: WorldState) -> WorldState:
    """Remove every infection whose timer has run out (back to susceptible)."""
    due = world.expiry == world.tick
    if not due.any():
        return world
    agents, memes = np.divmod(world.keys[due], world.config.max_memes)
    world.events.extend(world.tick,
                        np.full(len(agents), EventKind.RECOVER, dtype=np.int8),
                        agents, memes)
    keep = ~due
    world.keys = world.keys[keep]
    world.expiry = world.expiry[keep]
    world.probs = world.probs[keep]
    return world


def step(*worlds: WorldState):
    """One tick of worlds on one trajectory: recruit in each, one walk,
    then share, recovery and the series snapshot in each."""
    for world in worlds:
        recruit_step(world)
    walk_step(worlds[0])
    for world in worlds:
        share_step(world)
        recovery_step(world)
        world.infected_series.append(len(world.keys))
        world.exposure_series.append(int(world.hits.sum()))
        world.tick += 1


# ---------------------------------------------------------------------------
# Run driver and output
# ---------------------------------------------------------------------------

@dataclass
class SimOutput:
    """Everything a finished run produced."""

    currently_infected: np.ndarray
    cumulative_exposures: np.ndarray
    hits: tuple     # (meme ids, int64 hit counts), as logio.aggregate_hits gives
    events: EventLog

    def event_records(self):
        """The events as EventRecord, in emission order."""
        for block in self.events.blocks:
            for tick, code, agent, meme in zip(*(column.tolist() for column in block)):
                yield EventRecord(tick=tick, kind=EventKind(code),
                                  agent_id=agent, meme_id=None if meme < 0 else meme)

    def write_event_log(self, path):
        with open(path, "wb") as fh:
            logio.write_lines(fh, self.events.blocks)

    def write_timeseries_csv(self, path):
        # Flat rows: enumerate(zip(...)) would nest the pair in one cell.
        logio.write_csv(path, "tick,currently_infected,cumulative_exposures\n",
                        zip(range(len(self.currently_infected)),
                            self.currently_infected.tolist(),
                            self.cumulative_exposures.tolist()))

    def write_hits_csv(self, path):
        logio.write_hits_csv(self.hits, path)


def run(config: SimConfig) -> SimOutput:
    """Execute horizon_ticks ticks and collect the full output.

    Pure function of the config: identical config and seed give a
    byte-identical event log.
    """
    return run_group([config])[0]


def trajectory_groups(configs) -> list:
    """The indices of `configs` grouped by trajectory_key, groups in
    first-seen key order and indices ascending within each."""
    groups = {}
    for i, config in enumerate(configs):
        groups.setdefault(trajectory_key(config), []).append(i)
    return list(groups.values())


def run_group(configs) -> list:
    """run() of each config, all of one trajectory_key, walking their one
    Trajectory once per tick.  A shorter horizon is a prefix of the walk."""
    worlds, traj = [], None
    for config in configs:
        worlds.append(init_world(config, traj))
        traj = worlds[-1].traj
    for tick in range(max(config.horizon_ticks for config in configs)):
        step(*(world for world in worlds if tick < world.config.horizon_ticks))
    return [SimOutput(
        currently_infected=np.asarray(world.infected_series, dtype=np.int64),
        cumulative_exposures=np.asarray(world.exposure_series, dtype=np.int64),
        hits=(np.arange(world.meme_count, dtype=np.int64),
              world.hits[:world.meme_count]),
        events=world.events,
    ) for world in worlds]
