"""Shared verification helpers for engine and acceptance tests."""

import numpy as np

from memesim.core import (
    AgentState,
    EventKind,
    Position,
    perceive_features,
    sample_meme_vector,
)
from memesim.decision import share_probability
from memesim.engine import EventLog, init_world, walk_step


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
        assert rec.meme_id is not None, f"event {i}: {rec.kind} without meme"

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
# Scalar reference engine
# ---------------------------------------------------------------------------

class ReferenceRun:
    """Dict-based SIS bookkeeping, one (agent, meme) pair at a time.

    This is the share and recovery loop the engine ran before its infection
    state became arrays.  It borrows placement, the walk and the random
    streams from a real WorldState, but keeps its own infection dict, expiry
    buckets with lazy deletion and event log.  Neighbors come from a
    brute-force torus scan and share probabilities from the scalar contract
    path (share_probability of perceive_features), so no grid or vectorized
    probability code is shared with the engine under test.
    """

    def __init__(self, config):
        self.world = init_world(config)
        self.events = EventLog()
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

    def log(self, kind, agent_id, meme_id=-1):
        self.events.append(self.world.tick, list(EventKind).index(kind),
                           agent_id, meme_id)

    def infect(self, key):
        expiry = self.world.tick + self.world.config.infection_duration_ticks
        self.infections[key] = expiry
        self.buckets.setdefault(expiry, []).append(key)

    def recruit(self):
        world, cfg = self.world, self.world.config
        if world.tick % cfg.recruit_interval_ticks != 0:
            return
        for _ in range(cfg.recruit_batch_size):
            if world.recruited_count >= cfg.recruits:
                break
            pool = np.flatnonzero(~world.recruited)
            agent = int(pool[world.placement.randbelow(len(pool))])
            world.recruited[agent] = True
            world.recruited_count += 1
            self.log(EventKind.RECRUIT, agent)
            for _ in range(cfg.memes_per_recruit):
                mid = world.meme_count
                meme = sample_meme_vector(world.meme_content, cfg.meme_dim, mid, agent)
                world.memes.append(meme)
                world.meme_latents[mid] = meme.components
                world.meme_count += 1
                self.log(EventKind.CREATE, agent, mid)
                self.log(EventKind.INFECT, agent, mid)
                self.infect((agent, mid))

    def probability(self, key):
        if key not in self.probs:
            world, cfg = self.world, self.world.config
            agent = AgentState(agent_id=key[0], position=Position(0.0, 0.0),
                               perception_noise_seed=int(world.perception_seeds[key[0]]))
            feats = perceive_features(agent, world.memes[key[1]],
                                      cfg.perception_noise_sd)
            self.probs[key] = share_probability(cfg.sharing_model, feats)
        return self.probs[key]

    def neighbors(self, agent):
        world, cfg = self.world, self.world.config
        dx = np.abs(world.xs - world.xs[agent])
        dx = np.minimum(dx, cfg.world_width - dx)
        dy = np.abs(world.ys - world.ys[agent])
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
