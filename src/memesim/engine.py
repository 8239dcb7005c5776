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
phases are whole-tick array passes that emit a tick's events in one batch.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace

import numpy as np

from . import logio
from .core import (
    AgentState,
    ConfigurationError,
    EventKind,
    EventRecord,
    MemeVector,
    Position,
    RngStream,
    StreamLabel,
    perception_noise_batch,
    sample_meme_vector,
    wrap_coords,
)
from .decision import DEFAULT_SHARING_MODEL, SharingModel, sigmoid_array

_KIND_CODE = {kind: i for i, kind in enumerate(EventKind)}
_KIND_BY_CODE = list(EventKind)


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
    meme_dim: int = 3
    sharing_model: SharingModel = DEFAULT_SHARING_MODEL
    master_seed: int = 42
    reinfection_resets_timer: bool = True
    require_full_recruitment: bool = False
    analysis_bin_width: int = 10

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
        check(_is_int(self.meme_dim) and self.meme_dim >= 3,
              "meme_dim", "must be an integer >= 3 (first three components feed the model)")
        check(isinstance(self.sharing_model, SharingModel), "sharing_model",
              "must be a SharingModel")
        check(_is_int(self.master_seed) and 0 <= self.master_seed < 2 ** 64,
              "master_seed", "must be an unsigned 64-bit integer")
        check(isinstance(self.reinfection_resets_timer, bool),
              "reinfection_resets_timer", "must be a boolean")
        check(isinstance(self.require_full_recruitment, bool),
              "require_full_recruitment", "must be a boolean")
        check(_is_int(self.analysis_bin_width) and self.analysis_bin_width >= 1,
              "analysis_bin_width", "must be a positive integer")
        if (self.require_full_recruitment is True and _is_int(self.horizon_ticks)
                and _is_int(self.recruits) and _is_int(self.recruit_interval_ticks)):
            check(self.horizon_ticks >= self.recruits * self.recruit_interval_ticks,
                  "horizon_ticks",
                  "must cover recruits * recruit_interval_ticks when full recruitment is required")
        return bad

    def ensure_valid(self):
        bad = self.validate()
        if bad:
            msg = "; ".join(f"{name}: {reason}" for name, reason in bad)
            raise ConfigurationError(f"invalid config: {msg}",
                                     fields=[name for name, _ in bad])

    def with_overrides(self, **kwargs) -> "SimConfig":
        return replace(self, **kwargs)

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
    """Append-only event store; iteration yields EventRecord in emission order."""

    __slots__ = ("_ticks", "_kinds", "_agents", "_memes")

    def __init__(self):
        self._ticks = array("q")
        self._kinds = array("b")
        self._agents = array("q")
        self._memes = array("q")  # -1 encodes "no meme" (RECRUIT)

    def append(self, tick: int, kind_code: int, agent_id: int, meme_id: int):
        self._ticks.append(tick)
        self._kinds.append(kind_code)
        self._agents.append(agent_id)
        self._memes.append(meme_id)

    def extend(self, tick: int, kinds: np.ndarray, agents: np.ndarray,
               memes: np.ndarray):
        """Append one tick's events at once, in array order."""
        self._ticks.frombytes(np.full(len(kinds), tick, dtype=np.int64).tobytes())
        self._kinds.frombytes(kinds.astype(np.int8).tobytes())
        self._agents.frombytes(agents.astype(np.int64).tobytes())
        self._memes.frombytes(memes.astype(np.int64).tobytes())

    def __len__(self) -> int:
        return len(self._ticks)

    def records(self):
        for tick, code, agent, meme in zip(self._ticks, self._kinds,
                                           self._agents, self._memes):
            yield EventRecord(tick=tick, kind=_KIND_BY_CODE[code],
                              agent_id=agent, meme_id=None if meme < 0 else meme)

    def __iter__(self):
        return self.records()

    def write_lines(self, fileobj):
        """Fast serialization; byte-identical to logio.emit_line per record."""
        names = [k.value for k in _KIND_BY_CODE]
        write = fileobj.write
        for tick, code, agent, meme in zip(self._ticks, self._kinds,
                                           self._agents, self._memes):
            path = "/" if meme < 0 else f"/m/{meme}"
            write(f'{tick} {agent} "GET {path}" {names[code]}\n')


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
        self._order = np.argsort(flat, kind="stable")
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

    def query_many(self, qx, qy, exclude=None):
        """Neighbors of many points at once, as CSR arrays (ptr, ids).

        ids[ptr[i]:ptr[i + 1]] are the sorted ids of agents within `radius`
        of (qx[i], qy[i]), minus exclude[i] (entries < 0 exclude nothing).
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
        if exclude is not None:
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


def neighbor_sets_grid(xs, ys, width, height, radius) -> list:
    """Per-agent sorted neighbor ids via the bucket grid."""
    grid = UniformGrid(xs, ys, width, height, radius)
    ptr, ids = grid.query_many(xs, ys, np.arange(len(xs)))
    return np.split(ids, ptr[1:-1])


def neighbor_sets_bruteforce(xs, ys, width, height, radius) -> list:
    """Per-agent sorted neighbor ids by checking all O(N^2) pairs."""
    dx = np.abs(xs[:, None] - xs[None, :])
    dx = np.minimum(dx, width - dx)
    dy = np.abs(ys[:, None] - ys[None, :])
    dy = np.minimum(dy, height - dy)
    close = np.sqrt(dx * dx + dy * dy) <= radius
    np.fill_diagonal(close, False)
    return [np.flatnonzero(close[i]) for i in range(len(xs))]


# ---------------------------------------------------------------------------
# World state and tick phases
# ---------------------------------------------------------------------------

class WorldState:
    """Mutable state of a running simulation; built by init_world."""

    __slots__ = ("config", "tick", "xs", "ys", "recruited", "recruited_count",
                 "perception_seeds", "memes", "meme_latents", "meme_count",
                 "keys", "expiry", "probs", "hits", "cumulative_exposures",
                 "events", "placement", "walk", "meme_content", "decisions",
                 "infected_series", "exposure_series", "_grid")

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
        self.recruited_count = 0
        self.memes = []
        self.meme_latents = np.zeros((config.max_memes, config.meme_dim))
        self.meme_count = 0
        self.keys = np.empty(0, dtype=np.int64)
        self.expiry = np.empty(0, dtype=np.int64)
        self.probs = np.empty(0, dtype=np.float64)
        self.hits = np.zeros(config.max_memes, dtype=np.int64)
        self.cumulative_exposures = 0
        self.events = EventLog()
        self.infected_series = []
        self.exposure_series = []
        self._grid = None

    # -- views -------------------------------------------------------------

    def grid(self) -> UniformGrid:
        if self._grid is None:
            self._grid = UniformGrid(self.xs, self.ys, self.config.world_width,
                                     self.config.world_height,
                                     self.config.neighbor_radius)
        return self._grid

    def agent_state(self, agent_id: int) -> AgentState:
        """Materialize the per-agent view at the current tick boundary."""
        m = self.config.max_memes
        lo, hi = np.searchsorted(self.keys, [agent_id * m, (agent_id + 1) * m])
        remaining = {int(key % m): int(expiry - self.tick + 1)
                     for key, expiry in zip(self.keys[lo:hi], self.expiry[lo:hi])}
        return AgentState(
            agent_id=agent_id,
            position=Position(float(self.xs[agent_id]), float(self.ys[agent_id])),
            recruited=bool(self.recruited[agent_id]),
            infections=remaining,
            perception_noise_seed=int(self.perception_seeds[agent_id]),
        )

    def meme(self, meme_id: int) -> MemeVector:
        return self.memes[meme_id]

    # -- internals ----------------------------------------------------------

    def _log(self, kind: EventKind, agent_id: int, meme_id: int = -1):
        self.events.append(self.tick, _KIND_CODE[kind], agent_id, meme_id)

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

        Matches share_probability(model, perceive_features(...)) bit for bit:
        the linear term is accumulated in the same left-to-right order.
        """
        model = self.config.sharing_model
        noise = perception_noise_batch(self.perception_seeds[agents], meme_ids,
                                       self.config.perception_noise_sd)
        feats = self.meme_latents[meme_ids, :3] + noise
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
    if world.tick % cfg.recruit_interval_ticks != 0:
        return world
    seeded = []
    for _ in range(cfg.recruit_batch_size):
        if world.recruited_count >= cfg.recruits:
            break
        pool = np.flatnonzero(~world.recruited)
        agent = int(pool[world.placement.randbelow(len(pool))])
        world.recruited[agent] = True
        world.recruited_count += 1
        world._log(EventKind.RECRUIT, agent)
        for _ in range(cfg.memes_per_recruit):
            mid = world.meme_count
            meme = sample_meme_vector(world.meme_content, cfg.meme_dim, mid, agent)
            world.memes.append(meme)
            world.meme_latents[mid] = meme.components
            world.meme_count += 1
            world._log(EventKind.CREATE, agent, mid)
            world._log(EventKind.INFECT, agent, mid)
            seeded.append(agent * cfg.max_memes + mid)
    if seeded:
        world._infect(np.sort(np.array(seeded, dtype=np.int64)))
    return world


def walk_step(world: WorldState) -> WorldState:
    """Move every agent one fixed-length step in a uniformly random direction."""
    cfg = world.config
    theta = (2.0 * np.pi) * world.walk.uniforms(cfg.population)
    world.xs = wrap_coords(world.xs + cfg.step_size * np.cos(theta), cfg.world_width)
    world.ys = wrap_coords(world.ys + cfg.step_size * np.sin(theta), cfg.world_height)
    world._grid = None
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

    # One neighbor query per distinct sharer; exposures in emission order.
    sharers, memes = np.divmod(keys[shared], m)
    distinct, row = np.unique(sharers, return_inverse=True)
    ptr, ids = world.grid().query_many(world.xs[distinct], world.ys[distinct],
                                       distinct)
    degree = np.diff(ptr)[row]
    first = np.cumsum(degree) - degree
    n_pairs, n_exp = len(sharers), int(degree.sum())
    pair_of = np.repeat(np.arange(n_pairs), degree)
    exposed = ids[np.arange(n_exp) + np.repeat(ptr[row] - first, degree)]
    exp_memes = memes[pair_of]

    exposed_keys, first_exposure = np.unique(exposed * m + exp_memes,
                                             return_index=True)
    at = np.searchsorted(keys, exposed_keys)
    known = keys[np.minimum(at, len(keys) - 1)] == exposed_keys
    infect = np.zeros(n_exp, dtype=bool)
    infect[first_exposure[~known]] = True

    # Event slots: each pair's SHARE precedes its exposures, and each
    # INFECT directly follows its EXPOSE.
    infects_before = np.zeros(n_exp + 1, dtype=np.int64)
    np.cumsum(infect, out=infects_before[1:])
    share_at = np.arange(n_pairs) + first + infects_before[first]
    expose_at = np.arange(n_exp) + pair_of + 1 + infects_before[:-1]
    infect_at = expose_at[infect] + 1
    total = n_pairs + n_exp + len(infect_at)
    kinds = np.empty(total, dtype=np.int8)
    agents = np.empty(total, dtype=np.int64)
    event_memes = np.empty(total, dtype=np.int64)
    kinds[share_at] = _KIND_CODE[EventKind.SHARE]
    agents[share_at] = sharers
    event_memes[share_at] = memes
    kinds[expose_at] = _KIND_CODE[EventKind.EXPOSE]
    agents[expose_at] = exposed
    event_memes[expose_at] = exp_memes
    kinds[infect_at] = _KIND_CODE[EventKind.INFECT]
    agents[infect_at] = exposed[infect]
    event_memes[infect_at] = exp_memes[infect]
    world.events.extend(world.tick, kinds, agents, event_memes)
    world.hits += np.bincount(exp_memes, minlength=m)
    world.cumulative_exposures += n_exp

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
                        np.full(len(agents), _KIND_CODE[EventKind.RECOVER]),
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
    world.exposure_series.append(world.cumulative_exposures)
    world.tick += 1
    return world


# ---------------------------------------------------------------------------
# Run driver and output
# ---------------------------------------------------------------------------

@dataclass
class SimOutput:
    """Everything a finished run produced."""

    config: SimConfig
    currently_infected: np.ndarray
    cumulative_exposures: np.ndarray
    per_meme_hits: dict
    events: EventLog

    def event_records(self):
        return self.events.records()

    def write_event_log(self, path):
        with open(path, "w", newline="") as fh:
            self.events.write_lines(fh)

    def write_timeseries_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write("tick,currently_infected,cumulative_exposures\n")
            for t, (inf, exp) in enumerate(zip(self.currently_infected,
                                               self.cumulative_exposures)):
                fh.write(f"{t},{inf},{exp}\n")

    def write_hits_csv(self, path):
        logio.write_hits_csv(self.per_meme_hits, path)


def run(config: SimConfig) -> SimOutput:
    """Execute horizon_ticks ticks and collect the full output.

    Pure function of the config: identical config and seed give a
    byte-identical event log.
    """
    config.ensure_valid()
    world = init_world(config)
    for _ in range(config.horizon_ticks):
        step(world)
    return SimOutput(
        config=config,
        currently_infected=np.asarray(world.infected_series, dtype=np.int64),
        cumulative_exposures=np.asarray(world.exposure_series, dtype=np.int64),
        per_meme_hits={mid: int(world.hits[mid]) for mid in range(world.meme_count)},
        events=world.events,
    )
