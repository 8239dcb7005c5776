"""Discrete-time SIS simulation of meme sharing on a toroidal world.

Each tick runs four phases in a fixed order -- recruit, walk, share,
recovery -- so a run is fully determined by its config and master seed.
Randomness is split across named streams (placement, walk, meme content,
decisions, perception) so that, for example, changing the sharing model
leaves agent trajectories untouched.

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
the tick in one `EventLog.extend` call.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

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
        check(_is_real(self.world_width) and self.world_width > 0,
              "world_width", "must be a positive real")
        check(_is_real(self.world_height) and self.world_height > 0,
              "world_height", "must be a positive real")
        check(_is_real(self.step_size) and self.step_size >= 0,
              "step_size", "must be a non-negative real")
        check(_is_real(self.neighbor_radius) and self.neighbor_radius > 0,
              "neighbor_radius", "must be a positive real")
        check(_is_int(self.infection_duration_ticks) and self.infection_duration_ticks >= 1,
              "infection_duration_ticks", "must be a positive integer")
        check(_is_real(self.perception_noise_sd) and self.perception_noise_sd >= 0,
              "perception_noise_sd", "must be a non-negative real")
        check(isinstance(self.sharing_model, SharingModel), "sharing_model",
              "must be a SharingModel")
        check(_is_int(self.master_seed) and 0 <= self.master_seed < 2 ** 64,
              "master_seed", "must be an unsigned 64-bit integer")
        check(isinstance(self.reinfection_resets_timer, bool),
              "reinfection_resets_timer", "must be a boolean")
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
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


# ---------------------------------------------------------------------------
# Event log (columnar, so million-event runs stay cheap)
# ---------------------------------------------------------------------------

class EventLog:
    """Append-only event store; records() yields EventRecord in emission order."""

    __slots__ = ("ticks", "kinds", "agents", "memes")

    def __init__(self):
        self.ticks = array("q")
        self.kinds = array("b")  # EventKind values
        self.agents = array("q")
        self.memes = array("q")  # -1 encodes "no meme" (RECRUIT)

    def extend(self, tick: int, kinds, agents, memes):
        """Append one tick's events at once, in array order."""
        self.ticks.frombytes(np.full(len(kinds), tick, dtype=np.int64).tobytes())
        self.kinds.frombytes(np.asarray(kinds, dtype=np.int8).tobytes())
        self.agents.frombytes(np.asarray(agents, dtype=np.int64).tobytes())
        self.memes.frombytes(np.asarray(memes, dtype=np.int64).tobytes())

    def __len__(self) -> int:
        return len(self.ticks)

    def records(self):
        for tick, code, agent, meme in zip(self.ticks, self.kinds,
                                           self.agents, self.memes):
            yield EventRecord(tick=tick, kind=EventKind(code),
                              agent_id=agent, meme_id=None if meme < 0 else meme)


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
        # Any cell edge >= radius is correct; the cap keeps a tiny radius
        # from asking for billions of mostly empty cells.
        cap = math.isqrt(len(xs)) + 1
        self.ncx = max(1, min(int(width // radius), cap))
        self.ncy = max(1, min(int(height // radius), cap))
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

class WorldState:
    """Mutable state of a running simulation; built by init_world."""

    __slots__ = ("config", "tick", "xs", "ys", "recruited",
                 "perception_seeds", "meme_latents", "meme_count",
                 "keys", "expiry", "probs", "hits", "events",
                 "placement", "walk", "meme_content", "decisions",
                 "infected_series", "exposure_series")

    def __init__(self, config: SimConfig):
        self.config = config
        self.tick = 0
        n = config.population
        self.placement = RngStream(config.master_seed, StreamLabel.PLACEMENT)
        self.walk = RngStream(config.master_seed, StreamLabel.WALK)
        self.meme_content = RngStream(config.master_seed, StreamLabel.MEME_CONTENT)
        self.decisions = RngStream(config.master_seed, StreamLabel.DECISIONS)
        perception = RngStream(config.master_seed, StreamLabel.PERCEPTION)

        u = self.placement.uniforms(2 * n)
        self.xs = wrap_coords(u[0::2] * config.world_width, config.world_width)
        self.ys = wrap_coords(u[1::2] * config.world_height, config.world_height)
        self.perception_seeds = perception.raw(n)

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
        at = np.searchsorted(self.keys, new_keys)
        expiry = np.full(len(new_keys), self.tick + self.config.infection_duration_ticks)
        self.keys = np.insert(self.keys, at, new_keys)
        self.expiry = np.insert(self.expiry, at, expiry)
        self.probs = np.insert(self.probs, at,
                               self._share_probs(new_keys // m, new_keys % m))

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


def init_world(config: SimConfig) -> WorldState:
    """Place the population uniformly at random; no memes, recruiter at tick 0."""
    config.ensure_valid()
    return WorldState(config)


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
    """Move every agent one fixed-length step in a uniformly random direction."""
    cfg = world.config
    theta = world.walk.uniforms(cfg.population)
    theta *= 2.0 * np.pi
    dx = np.cos(theta)
    dx *= cfg.step_size
    dx += world.xs
    world.xs = wrap_coords(dx, cfg.world_width)
    dy = np.sin(theta)
    dy *= cfg.step_size
    dy += world.ys
    world.ys = wrap_coords(dy, cfg.world_height)
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
    grid = UniformGrid(world.xs, world.ys, cfg.world_width, cfg.world_height,
                       cfg.neighbor_radius)
    ptr, exposed = grid.query_many(world.xs[sharers], world.ys[sharers], sharers)
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
    # exposure.  np.insert keeps the given order of equal slots, so an INFECT
    # that ends one pair stays ahead of the next pair's SHARE.
    slots = np.concatenate([np.flatnonzero(infect) + 1, first])
    n_infect = len(slots) - n_pairs
    kinds = np.insert(np.full(n_exp, EventKind.EXPOSE, dtype=np.int8), slots,
                      np.repeat([EventKind.INFECT, EventKind.SHARE], [n_infect, n_pairs]))
    agents = np.insert(exposed, slots, np.concatenate([exposed[infect], sharers]))
    event_memes = np.insert(exp_memes, slots, np.concatenate([exp_memes[infect], memes]))
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
                        np.full(len(agents), EventKind.RECOVER),
                        agents, memes)
    keep = ~due
    world.keys = world.keys[keep]
    world.expiry = world.expiry[keep]
    world.probs = world.probs[keep]
    return world


def step(world: WorldState) -> WorldState:
    """One full tick: recruit, walk, share, recovery, then series snapshot."""
    recruit_step(world)
    walk_step(world)
    share_step(world)
    recovery_step(world)
    world.infected_series.append(len(world.keys))
    world.exposure_series.append(int(world.hits.sum()))
    world.tick += 1
    return world


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
        return self.events.records()

    def write_event_log(self, path):
        events = self.events
        with open(path, "w", newline="") as fh:
            logio.write_lines(fh, events.ticks, events.kinds, events.agents,
                              events.memes)

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
    world = init_world(config)
    for _ in range(config.horizon_ticks):
        step(world)
    return SimOutput(
        currently_infected=np.asarray(world.infected_series, dtype=np.int64),
        cumulative_exposures=np.asarray(world.exposure_series, dtype=np.int64),
        hits=(np.arange(world.meme_count, dtype=np.int64),
              world.hits[:world.meme_count]),
        events=world.events,
    )
