"""Engine: tick phases, SIS bookkeeping, neighbor search, determinism."""

import collections
import faulthandler
import io
import math
import sys
import threading
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from _helpers import (
    ReferenceRun,
    check_event_log,
    emit_line,
    grid_neighbor_sets,
    neighbor_sets_bruteforce,
    perceive_features,
    records_of,
    run_many,
    run_python,
    share_probability,
    table_dict,
    torus_distance,
)
from memesim.core import ConfigurationError, EventKind, RngStream
from memesim.decision import SharingModel
from memesim.engine import (
    SimConfig,
    UniformGrid,
    _insert,
    init_world,
    recovery_step,
    recruit_step,
    run,
    run_group,
    share_step,
    step,
    trajectory_groups,
    walk_step,
)
from memesim import engine, logio

ALWAYS = SharingModel(1e6, 0.0, 0.0, 0.0)
NEVER = SharingModel(-1e6, 0.0, 0.0, 0.0)


def world_records(world):
    """The records a world has logged so far."""
    return records_of(world.events.blocks)


def small_config(**kw):
    base = dict(population=60, recruits=6, memes_per_recruit=2,
                recruit_interval_ticks=4, horizon_ticks=80,
                world_width=20.0, world_height=20.0, step_size=1.0,
                neighbor_radius=2.0, infection_duration_ticks=5,
                master_seed=7)
    base.update(kw)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_default_config_is_valid():
    assert SimConfig().validate() == []


def test_recruits_above_population_rejected():
    cfg = SimConfig(population=10, recruits=11)
    bad = dict(cfg.validate())
    assert "recruits" in bad
    with pytest.raises(ConfigurationError) as err:
        cfg.ensure_valid()
    assert "recruits" in err.value.fields


def test_validation_lists_every_violated_field():
    cfg = SimConfig(population=0, neighbor_radius=-1.0, horizon_ticks=-5)
    fields = {name for name, _ in cfg.validate()}
    assert {"population", "neighbor_radius", "horizon_ticks"} <= fields


def test_validation_bounds_reals_and_expiry():
    # An int beyond the float range is no finite real, and expiry ticks
    # (tick + infection_duration_ticks) are int64.
    cfg = SimConfig(world_width=10 ** 400, perception_noise_sd=-(10 ** 400),
                    sharing_model=SharingModel(0, 10 ** 400, 0, 0),
                    infection_duration_ticks=2 ** 63 - 600)
    assert [name for name, _ in cfg.validate()] == [
        "world_width", "infection_duration_ticks", "perception_noise_sd",
        "sharing_model.w_humor"]
    assert SimConfig(infection_duration_ticks=2 ** 63 - 601).validate() == []


def test_validation_bounds_magnitudes():
    # The bounds are inclusive, and each gets a reason of its own.
    assert SimConfig(world_width=2 ** 511, world_height=2.0 ** 511,
                     perception_noise_sd=2 ** 500,
                     sharing_model=SharingModel(-2 ** 500, 2.0 ** 500, 0, 0)).validate() == []
    above = math.nextafter(2.0 ** 500, math.inf)
    cfg = SimConfig(world_width=2 ** 511 + 1, world_height=1e308,
                    perception_noise_sd=above,
                    sharing_model=SharingModel(-above, 0, 0, 2 ** 501))
    assert cfg.validate() == [
        ("world_width", "must be at most 2**511"),
        ("world_height", "must be at most 2**511"),
        ("perception_noise_sd", "must be at most 2**500"),
        ("sharing_model.intercept", "must be at most 2**500 in magnitude"),
        ("sharing_model.w_selfref", "must be at most 2**500 in magnitude")]


# ---------------------------------------------------------------------------
# init_world
# ---------------------------------------------------------------------------

def test_init_default_world():
    world = init_world(SimConfig())
    assert len(world.traj.xs) == 15000
    assert not world.recruited.any()
    assert world.meme_count == 0
    assert len(world.keys) == len(world.expiry) == len(world.probs) == 0
    assert np.all((world.traj.xs >= 0) & (world.traj.xs < 200.0))
    assert np.all((world.traj.ys >= 0) & (world.traj.ys < 200.0))


def test_init_single_agent_world():
    world = init_world(small_config(population=1, recruits=1))
    assert len(world.traj.xs) == 1


def test_init_is_deterministic():
    a = init_world(small_config())
    b = init_world(small_config())
    assert np.array_equal(a.traj.xs, b.traj.xs) and np.array_equal(a.traj.ys, b.traj.ys)
    assert np.array_equal(a.perception_seeds, b.perception_seeds)


# ---------------------------------------------------------------------------
# recruit_step
# ---------------------------------------------------------------------------

def test_recruit_cadence_and_quota():
    cfg = small_config(horizon_ticks=40, recruits=6, sharing_model=NEVER)
    world = init_world(cfg)
    seen = []
    for _ in range(cfg.horizon_ticks):
        recruit_step(world)
        seen.append(int(world.recruited.sum()))
        world.tick += 1
    # One per eligible tick (0, 4, 8, ...) until the quota of 6.
    assert seen[0] == 1 and seen[3] == 1 and seen[4] == 2
    assert seen[-1] == 6
    assert world.meme_count == 12
    # Recruited count never decreases.
    assert all(b >= a for a, b in zip(seen, seen[1:]))


def test_recruit_off_cadence_is_noop():
    world = init_world(small_config())
    world.tick = 3
    recruit_step(world)
    assert not world.recruited.any()


def test_recruit_batch_size_session_reading():
    # Alternative cadence reading: a session of several agents per interval.
    cfg = small_config(recruits=7, recruit_batch_size=3, sharing_model=NEVER,
                       horizon_ticks=9)
    out = run(cfg)
    by_tick = {}
    for rec in out.event_records():
        if rec.kind is EventKind.RECRUIT:
            by_tick[rec.tick] = by_tick.get(rec.tick, 0) + 1
    assert by_tick == {0: 3, 4: 3, 8: 1}  # quota caps the last session


def test_recruited_agents_start_infected():
    # View at the first tick boundary: the recruit from tick 0 still has the
    # full duration ahead of it.
    world = init_world(small_config(memes_per_recruit=2, sharing_model=NEVER))
    step(world)
    (agent,) = np.flatnonzero(world.recruited)
    agents, memes = np.divmod(world.keys, world.config.max_memes)
    assert list(agents) == [agent, agent] and list(memes) == [0, 1]
    remaining = world.expiry - world.tick + 1
    assert list(remaining) == [world.config.infection_duration_ticks] * 2


def test_full_scale_recruitment_totals():
    cfg = SimConfig(sharing_model=NEVER, master_seed=5)
    out = run(cfg)
    counts = {}
    for rec in out.event_records():
        counts[rec.kind] = counts.get(rec.kind, 0) + 1
    assert counts[EventKind.RECRUIT] == 118
    assert counts[EventKind.CREATE] == 236
    recruit_ticks = [r.tick for r in out.event_records()
                     if r.kind is EventKind.RECRUIT]
    assert recruit_ticks == [4 * k for k in range(118)]


# ---------------------------------------------------------------------------
# walk_step
# ---------------------------------------------------------------------------

def test_zero_step_keeps_positions():
    world = init_world(small_config(step_size=0.0))
    xs, ys = world.traj.xs.copy(), world.traj.ys.copy()
    walk_step(world)
    assert np.array_equal(world.traj.xs, xs) and np.array_equal(world.traj.ys, ys)


def test_walk_stays_in_bounds_and_moves_step_size():
    cfg = small_config(step_size=1.5)
    world = init_world(cfg)
    for _ in range(25):
        before = (world.traj.xs.copy(), world.traj.ys.copy())
        walk_step(world)
        assert np.all((world.traj.xs >= 0) & (world.traj.xs < cfg.world_width))
        assert np.all((world.traj.ys >= 0) & (world.traj.ys < cfg.world_height))
        for i in range(0, cfg.population, 7):
            d = torus_distance((before[0][i], before[1][i]),
                               (world.traj.xs[i], world.traj.ys[i]),
                               cfg.world_width, cfg.world_height)
            assert d == pytest.approx(1.5, rel=1e-12)


# ---------------------------------------------------------------------------
# share_step / recovery_step
# ---------------------------------------------------------------------------

def test_insert_matches_np_insert():
    # Many slots tie, including at both ends, and dtypes differ per column.
    rng = np.random.default_rng(6)
    for n, k in ((0, 3), (5, 0), (10, 8), (50, 200)):
        slots = rng.integers(0, n + 1, k)
        columns = [(rng.integers(0, 100, n), rng.integers(0, 100, k)),
                   (rng.random(n), rng.random(k)),
                   (rng.integers(0, 6, n).astype(np.int8), rng.integers(0, 6, k))]
        merged = _insert(slots, *columns)
        for got, (array, values) in zip(merged, columns):
            want = np.insert(array, slots, values)
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_no_infections_no_events():
    world = init_world(small_config())
    walk_step(world)
    n = len(world.events)
    share_step(world)
    recovery_step(world)
    assert len(world.events) == n


def test_forced_zero_probability_never_exposes():
    out = run(small_config(sharing_model=NEVER, horizon_ticks=60))
    kinds = {r.kind for r in out.event_records()}
    assert EventKind.EXPOSE not in kinds and EventKind.SHARE not in kinds
    assert out.cumulative_exposures[-1] == 0
    # Only recruiter infections exist.
    infects = [r for r in out.event_records() if r.kind is EventKind.INFECT]
    assert len(infects) == 12


def test_two_agent_forced_share():
    # Hand-traced: creator shares at its creation tick, the single neighbor
    # is exposed once and infected once.
    cfg = SimConfig(population=2, recruits=1, memes_per_recruit=1,
                    horizon_ticks=1, world_width=10.0, world_height=10.0,
                    neighbor_radius=15.0, sharing_model=ALWAYS, master_seed=3)
    out = run(cfg)
    counts = {}
    for rec in out.event_records():
        counts[rec.kind] = counts.get(rec.kind, 0) + 1
    assert counts[EventKind.SHARE] == 1
    assert counts[EventKind.EXPOSE] == 1
    assert counts[EventKind.INFECT] == 2  # recruiter seed + the contact
    check_event_log(out.event_records())


def test_infection_lasts_duration_share_steps():
    # With timer resets off, a share-acquired infection takes part in
    # exactly `duration` share phases after the tick it was acquired.
    d = 3
    cfg = SimConfig(population=2, recruits=1, memes_per_recruit=1,
                    horizon_ticks=10, world_width=10.0, world_height=10.0,
                    neighbor_radius=15.0, infection_duration_ticks=d,
                    sharing_model=ALWAYS, reinfection_resets_timer=False,
                    master_seed=3)
    out = run(cfg)
    events = list(out.event_records())
    creator = next(r.agent_id for r in events if r.kind is EventKind.RECRUIT)
    other = 1 - creator
    shares_by_other = [r.tick for r in events
                       if r.kind is EventKind.SHARE and r.agent_id == other]
    assert shares_by_other == [1, 2, d]  # infected at tick 0
    shares_by_creator = [r.tick for r in events
                         if r.kind is EventKind.SHARE and r.agent_id == creator]
    assert shares_by_creator == [0, 1, 2, d]  # creation-tick attempt plus d
    recover_ticks = sorted(r.tick for r in events if r.kind is EventKind.RECOVER)
    assert recover_ticks == [d, d]


def test_timer_one_removes_this_tick():
    cfg = SimConfig(population=2, recruits=1, memes_per_recruit=1,
                    horizon_ticks=4, world_width=50.0, world_height=50.0,
                    neighbor_radius=0.001, step_size=0.0,
                    infection_duration_ticks=1, sharing_model=NEVER,
                    master_seed=1)
    out = run(cfg)
    # Infected at tick 0 with duration 1: shows remaining 1 at the boundary,
    # gone by the end of tick 1.
    assert list(out.currently_infected) == [1, 0, 0, 0]
    recover = [r for r in out.event_records() if r.kind is EventKind.RECOVER]
    assert len(recover) == 1 and recover[0].tick == 1


def test_sis_reinfection_round_trip():
    # Chain of three agents on a line: staggered expiries force a recovered
    # pair to be re-exposed and re-infected later.
    cfg = SimConfig(population=3, recruits=1, memes_per_recruit=1,
                    horizon_ticks=8, world_width=30.0, world_height=30.0,
                    neighbor_radius=1.2, step_size=0.0,
                    infection_duration_ticks=3, sharing_model=ALWAYS,
                    reinfection_resets_timer=False, master_seed=2)
    world = init_world(cfg)
    recruit_step(world)  # quota 1, so the step() below cannot recruit again
    creator = int(np.flatnonzero(world.recruited)[0])
    others = [i for i in range(3) if i != creator]
    # Creator at the end of the line: expiries stagger down the chain.
    world.traj.xs[creator] = 5.0
    world.traj.xs[others[0]] = 6.0
    world.traj.xs[others[1]] = 7.0
    world.traj.ys[:] = 5.0
    for _ in range(cfg.horizon_ticks):
        step(world)
    counts = {}
    for rec in world_records(world):
        if rec.kind is EventKind.INFECT:
            key = (rec.agent_id, rec.meme_id)
            counts[key] = counts.get(key, 0) + 1
    assert max(counts.values()) >= 2  # somebody was reinfected after recovery
    check_event_log(world_records(world))


def test_timer_reset_policy_extends_infection():
    base = dict(population=2, recruits=1, memes_per_recruit=1,
                horizon_ticks=12, world_width=10.0, world_height=10.0,
                neighbor_radius=15.0, infection_duration_ticks=3,
                sharing_model=ALWAYS, master_seed=3)
    with_reset = run(SimConfig(**base, reinfection_resets_timer=True))
    without = run(SimConfig(**base, reinfection_resets_timer=False))
    # Mutual re-exposure keeps resetting timers, so the pair outlives the
    # no-reset run, which dies out at tick d.
    assert int(with_reset.currently_infected[-1]) == 2
    assert int(without.currently_infected[-1]) == 0


# ---------------------------------------------------------------------------
# run-level invariants
# ---------------------------------------------------------------------------

def test_horizon_zero_is_empty():
    out = run(small_config(horizon_ticks=0))
    assert len(out.currently_infected) == 0
    assert len(out.cumulative_exposures) == 0
    assert len(out.events) == 0
    assert table_dict(out.hits) == {}


def test_run_determinism_byte_identical_logs(tmp_path):
    cfg = small_config(horizon_ticks=120, sharing_model=SharingModel(-2.0, 0.4, 0.4, 0.2))
    out1 = run(cfg)
    out2 = run(cfg)
    p1, p2 = tmp_path / "a.log", tmp_path / "b.log"
    out1.write_event_log(p1)
    out2.write_event_log(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(out1.currently_infected, out2.currently_infected)
    assert np.array_equal(out1.cumulative_exposures, out2.cumulative_exposures)
    assert table_dict(out1.hits) == table_dict(out2.hits)
    other = run(replace(cfg, master_seed=8))
    assert table_dict(other.hits) != table_dict(out1.hits)


def test_transition_checker_on_randomized_small_worlds():
    rng = np.random.default_rng(99)
    for trial in range(6):
        cfg = SimConfig(
            population=50,
            recruits=int(rng.integers(2, 10)),
            memes_per_recruit=int(rng.integers(1, 3)),
            recruit_interval_ticks=int(rng.integers(1, 6)),
            horizon_ticks=200,
            world_width=15.0, world_height=15.0,
            step_size=float(rng.uniform(0.2, 1.5)),
            neighbor_radius=float(rng.uniform(0.5, 3.0)),
            infection_duration_ticks=int(rng.integers(1, 12)),
            sharing_model=SharingModel(float(rng.uniform(-3, 0)), 0.5, 0.5, 0.25),
            reinfection_resets_timer=bool(rng.integers(0, 2)),
            master_seed=int(rng.integers(0, 2**32)),
        )
        out = run(cfg)
        check_event_log(out.event_records(), horizon=cfg.horizon_ticks)


def test_saturation_with_global_radius():
    # Radius beyond the torus diameter plus share probability ~1: the meme
    # reaches the whole 50-agent population as soon as its creator shares.
    cfg = SimConfig(population=50, recruits=1, memes_per_recruit=1,
                    horizon_ticks=3, world_width=10.0, world_height=10.0,
                    neighbor_radius=8.0, sharing_model=ALWAYS, master_seed=4)
    out = run(cfg)
    assert int(out.currently_infected[0]) == 50


def test_raising_intercept_does_not_reduce_mean_exposures():
    lo_model = SharingModel(-3.0, 0.4, 0.4, 0.2)
    hi_model = SharingModel(-2.0, 0.4, 0.4, 0.2)
    lo_total = hi_total = 0
    for seed in range(20):
        base = small_config(population=150, horizon_ticks=60, master_seed=seed)
        lo = run(replace(base, sharing_model=lo_model))
        hi = run(replace(base, sharing_model=hi_model))
        lo_total += int(lo.cumulative_exposures[-1])
        hi_total += int(hi.cumulative_exposures[-1])
    assert hi_total >= lo_total


def test_share_decisions_consume_one_uniform_per_pair():
    # Stream accounting: the share phase draws exactly one decisions-stream
    # uniform per infected pair, in (agent_id, meme_id) order.
    from memesim.core import RngStream, StreamLabel

    cfg = SimConfig(population=30, recruits=3, memes_per_recruit=2,
                    recruit_interval_ticks=1, horizon_ticks=1,
                    world_width=10.0, world_height=10.0, neighbor_radius=2.0,
                    sharing_model=SharingModel(-0.5, 0.4, 0.4, 0.2),
                    master_seed=21)
    world = init_world(cfg)
    recruit_step(world)
    recruit_step(world)  # second manual call recruits one more agent
    walk_step(world)
    m = cfg.max_memes
    pairs = [divmod(int(key), m) for key in world.keys]
    seeded = [(r.agent_id, r.meme_id) for r in world_records(world)
              if r.kind is EventKind.INFECT]
    assert pairs == sorted(seeded)  # key order is (agent_id, meme_id) order
    probs = world.probs.copy()
    share_step(world)
    replay = RngStream(cfg.master_seed, StreamLabel.DECISIONS)
    u = replay.uniforms(len(pairs))
    expected_sharers = [pair for pair, draw, p in zip(pairs, u, probs) if draw < p]
    actual_sharers = [(r.agent_id, r.meme_id) for r in world_records(world)
                      if r.kind is EventKind.SHARE]
    assert actual_sharers == expected_sharers


def test_engine_probability_cache_matches_contract_path():
    cfg = small_config(horizon_ticks=40,
                       sharing_model=SharingModel(-1.5, 0.6, 0.4, 0.2))
    world = init_world(cfg)
    for _ in range(cfg.horizon_ticks):
        step(world)
    assert len(world.keys) == len(world.probs) > 0
    for key, stored in list(zip(world.keys, world.probs))[:50]:
        agent_id, meme_id = divmod(int(key), cfg.max_memes)
        f = perceive_features(int(world.perception_seeds[agent_id]), meme_id,
                              world.meme_latents[meme_id], cfg.perception_noise_sd)
        assert share_probability(cfg.sharing_model, f) == stored


def differential_configs():
    """Twenty-one small worlds for the scalar-reference comparison.

    Intercepts span -6 (almost no sharing) to +2 (almost always), timer
    resets alternate, and every third world has a radius near the world
    span (fewer than three grid cells per axis) or a step near the span.
    Three more worlds step between one and three times the larger span,
    so the walk wraps through np.mod, one recruits its whole population
    in one tick, and the last perceives memes without noise.
    """
    rng = np.random.default_rng(4242)
    intercepts = rng.permutation(np.linspace(-6.0, 2.0, 16))
    for i, intercept in enumerate(intercepts):
        w, h = float(rng.uniform(6, 16)), float(rng.uniform(6, 16))
        span = min(w, h)
        radius = float(rng.uniform(0.4, 1.1) * span if i % 3 == 1
                       else rng.uniform(0.5, 3.0))
        step_size = float(rng.uniform(0.5, 1.0) * span if i % 3 == 2
                          else rng.uniform(0.0, 1.5))
        yield SimConfig(
            population=int(rng.integers(20, 45)),
            recruits=int(rng.integers(1, 6)),
            memes_per_recruit=int(rng.integers(1, 3)),
            recruit_interval_ticks=int(rng.integers(1, 5)),
            recruit_batch_size=int(rng.integers(1, 3)),
            horizon_ticks=30,
            world_width=w, world_height=h,
            step_size=step_size, neighbor_radius=radius,
            infection_duration_ticks=int(rng.integers(1, 8)),
            perception_noise_sd=float(rng.uniform(0.0, 1.0)),
            sharing_model=SharingModel(float(intercept), 0.5, 0.5, 0.25),
            reinfection_resets_timer=bool(i % 2),
            master_seed=int(rng.integers(0, 2**63)),
        )
    rng = np.random.default_rng(4343)
    for intercept in (-3.0, -1.0, 1.0):
        w, h = float(rng.uniform(6, 16)), float(rng.uniform(6, 16))
        yield SimConfig(
            population=int(rng.integers(20, 45)), recruits=4,
            recruit_interval_ticks=2, recruit_batch_size=2, horizon_ticks=30,
            world_width=w, world_height=h,
            step_size=float(rng.uniform(1.0, 3.0) * max(w, h)),
            neighbor_radius=float(rng.uniform(0.5, 3.0)),
            infection_duration_ticks=4,
            sharing_model=SharingModel(intercept, 0.5, 0.5, 0.25),
            master_seed=int(rng.integers(0, 2**63)),
        )
    yield SimConfig(population=30, recruits=30, recruit_batch_size=30,
                    memes_per_recruit=2, horizon_ticks=12,
                    world_width=9.0, world_height=7.0, neighbor_radius=1.5,
                    infection_duration_ticks=3,
                    sharing_model=SharingModel(-2.0, 0.5, 0.5, 0.25),
                    master_seed=int(rng.integers(0, 2**63)))
    # Its own generator, so the worlds above keep their draws.
    rng = np.random.default_rng(4444)
    yield SimConfig(population=40, recruits=4, recruit_interval_ticks=2,
                    horizon_ticks=30, world_width=10.0, world_height=8.0,
                    neighbor_radius=2.0, infection_duration_ticks=4,
                    perception_noise_sd=0.0,
                    sharing_model=SharingModel(-1.0, 0.5, 0.5, 0.25),
                    master_seed=int(rng.integers(0, 2**63)))


def test_engine_matches_scalar_reference():
    # Differential oracle: the array engine and the dict-based scalar loop
    # in _helpers write the same events.log bytes and time series.
    for cfg in differential_configs():
        out = run(cfg)
        ref = ReferenceRun(cfg).run()
        got = io.BytesIO()
        logio.write_lines(got, out.events.blocks)
        got = got.getvalue().decode("ascii").splitlines()
        want = [emit_line(rec).rstrip("\n") for rec in ref.events]
        same = got == want  # kept out of the assert: a diff of 10^5 lines is slow
        first = next((i for i, pair in enumerate(zip(got, want))
                      if pair[0] != pair[1]), min(len(got), len(want)))
        assert same, f"{cfg}: first differing event {first}"
        assert list(out.currently_infected) == ref.currently_infected, cfg
        assert list(out.cumulative_exposures) == ref.exposure_series, cfg
        assert table_dict(out.hits) == {m: int(ref.hits[m])
                                        for m in range(ref.world.meme_count)}, cfg


def lockstep_group():
    """Six configs with one trajectory key that differ in everything else.

    The shortest horizon comes first, so a walk driven by whichever member
    is live first would go on without it; one member stops at horizon 0.
    """
    base = small_config(horizon_ticks=40, sharing_model=SharingModel(-1.5, 0.5, 0.5, 0.25))
    return [
        replace(base, horizon_ticks=6, neighbor_radius=3.5),
        base,
        replace(base, horizon_ticks=0),
        replace(base, neighbor_radius=1.2, recruit_interval_ticks=1, recruit_batch_size=2),
        replace(base, horizon_ticks=25, reinfection_resets_timer=False,
                infection_duration_ticks=2),
        replace(base, horizon_ticks=55, perception_noise_sd=0.0,
                sharing_model=SharingModel(-0.5, 0.2, 0.6, 0.1)),
    ]


def test_run_many_matches_run_per_member():
    group = lockstep_group()
    pairs = list(run_many(group))
    assert sorted(i for i, _ in pairs) == list(range(len(group)))
    for i, out in pairs:
        cfg, want = group[i], run(group[i])
        assert records_of(out.events.blocks) == records_of(want.events.blocks), cfg
        assert np.array_equal(out.currently_infected, want.currently_infected), cfg
        assert np.array_equal(out.cumulative_exposures, want.cumulative_exposures), cfg
        assert table_dict(out.hits) == table_dict(want.hits), cfg
        assert len(out.currently_infected) == cfg.horizon_ticks
    # Every member that runs spreads its memes, so the comparison is not vacuous.
    assert all(out.cumulative_exposures[-1] > 0
               for i, out in pairs if group[i].horizon_ticks)


def assert_matches_reference(cfg, out):
    ref = ReferenceRun(cfg).run()
    assert records_of(out.events.blocks) == ref.events, cfg
    assert list(out.currently_infected) == ref.currently_infected, cfg
    assert list(out.cumulative_exposures) == ref.exposure_series, cfg
    assert table_dict(out.hits) == {m: int(ref.hits[m])
                                    for m in range(ref.world.meme_count)}, cfg
    return ref


def test_run_group_matches_reference_run():
    # Each lockstep member, in member order, against the scalar reference
    # engine, which walks a trajectory of its own.
    group = lockstep_group()
    outputs = run_group(group)
    assert len(outputs) == len(group)
    for cfg, out in zip(group, outputs):
        assert_matches_reference(cfg, out)


@pytest.fixture
def ticks_stepped(monkeypatch):
    """How many ticks `step` ran each world for, keyed by id(world.config)."""
    counts = collections.Counter()
    real = engine.step

    def counted(*worlds):
        counts.update(id(world.config) for world in worlds)
        return real(*worlds)

    monkeypatch.setattr(engine, "step", counted)
    return counts


def quiet_tick(series, horizon):
    """The ticks a world needs to be stepped for, from the series of a run
    that walked every tick: up to its horizon, or to the first tick that
    starts with no infected pair after its last infected tick (the last
    recruit is infected at the end of its tick, so the quota is full)."""
    last = max((t for t, n in enumerate(series) if n), default=-2)
    return min(horizon, last + 2)


def test_quiet_between_recruits_does_not_stop_early(ticks_stepped):
    # Pairs last 3 ticks and recruits come every 12, so the world has no
    # infected pair between recruits before its quota is full.
    cfg = small_config(recruit_interval_ticks=12, infection_duration_ticks=3,
                       sharing_model=SharingModel(-2.5, 0.5, 0.5, 0.25))
    ref = assert_matches_reference(cfg, run(cfg))
    last_recruit = (cfg.recruits - 1) * cfg.recruit_interval_ticks
    assert 0 in ref.currently_infected[:last_recruit]
    assert ref.hits.sum() > 0
    stepped = ticks_stepped[id(cfg)]
    assert (last_recruit < stepped == quiet_tick(ref.currently_infected, cfg.horizon_ticks)
            < cfg.horizon_ticks)


def quiet_group():
    """Members of one trajectory that leave the lockstep loop at different
    ticks: three go quiet before their horizons (one of them, with 2-tick
    pairs, also between recruits), one stops at horizon 10 while still
    recruiting, one at horizon 0, and one saturates and never goes quiet."""
    base = small_config(horizon_ticks=60, sharing_model=SharingModel(-2.5, 0.5, 0.5, 0.25))
    return [
        replace(base, horizon_ticks=50, sharing_model=NEVER, infection_duration_ticks=7),
        base,
        replace(base, horizon_ticks=0),
        replace(base, horizon_ticks=10),
        replace(base, horizon_ticks=45, sharing_model=ALWAYS, neighbor_radius=3.0),
        replace(base, horizon_ticks=70, sharing_model=NEVER, infection_duration_ticks=2),
    ]


def test_lockstep_members_go_quiet_independently(ticks_stepped):
    group = quiet_group()
    outputs = run_group(group)
    stepped = [ticks_stepped[id(cfg)] for cfg in group]
    for cfg, out in zip(group, outputs):
        assert len(out.currently_infected) == len(out.cumulative_exposures) == cfg.horizon_ticks
        want = run(cfg)
        assert records_of(out.events.blocks) == records_of(want.events.blocks), cfg
        assert np.array_equal(out.currently_infected, want.currently_infected), cfg
        assert np.array_equal(out.cumulative_exposures, want.cumulative_exposures), cfg
        assert table_dict(out.hits) == table_dict(want.hits), cfg
        assert_matches_reference(cfg, out)
    assert stepped == [quiet_tick(out.currently_infected, cfg.horizon_ticks)
                       for cfg, out in zip(group, outputs)]
    quiet = [n for cfg, n in zip(group, stepped) if n < cfg.horizon_ticks]
    assert len(set(quiet)) == len(quiet) == 3
    assert outputs[4].currently_infected[-1] > 0  # never quiet
    assert run_group([group[2]])[0].currently_infected.shape == (0,)


@pytest.mark.parametrize("cfg", [
    small_config(horizon_ticks=100, sharing_model=SharingModel(-2.0, 0.4, 0.4, 0.2)),
    *quiet_group(),
], ids=["mixed", "no-sharing-50", "quiet-60", "horizon-0", "horizon-10", "saturated-45",
        "no-sharing-70"])
def test_series_consistent_with_event_log(cfg, tmp_path):
    # Both series and the hits table are counts of the written events.log:
    # cumulative EXPOSEs, cumulative INFECTs minus RECOVERs, EXPOSEs per
    # meme zero-filled for every CREATE.  Worlds that go quiet early, one
    # that never does and one at horizon 0 (quiet_group) cover the ticks
    # that no phase is stepped for.
    out = run(cfg)
    out.write_event_log(tmp_path / "events.log")
    exposed = np.zeros(cfg.horizon_ticks, dtype=np.int64)
    infected = np.zeros(cfg.horizon_ticks, dtype=np.int64)
    per_meme = {}
    for rec in records_of(logio.read_columns(tmp_path / "events.log")):
        if rec.kind is EventKind.CREATE:
            per_meme.setdefault(rec.meme_id, 0)
        elif rec.kind is EventKind.EXPOSE:
            exposed[rec.tick] += 1
            per_meme[rec.meme_id] += 1
        elif rec.kind is EventKind.INFECT:
            infected[rec.tick] += 1
        elif rec.kind is EventKind.RECOVER:
            infected[rec.tick] -= 1
    assert out.cumulative_exposures.dtype == out.currently_infected.dtype == np.int64
    assert np.array_equal(np.cumsum(exposed), out.cumulative_exposures)
    assert np.array_equal(np.cumsum(infected), out.currently_infected)
    assert per_meme == table_dict(out.hits)
    assert np.all(out.currently_infected >= 0)


# ---------------------------------------------------------------------------
# The walk drawn one tick ahead
# ---------------------------------------------------------------------------

# A helper that is never joined would hang the session, so each test that
# starts one runs under a watchdog: past this many seconds it prints every
# thread's stack and ends the session.
HELPER_WATCHDOG_S = 60


@pytest.fixture
def walk_threads(monkeypatch, capfd):
    """The thread behind each `_angles` call and behind each draw from any
    stream, in call order (threads, not idents: an ended thread's ident is
    reused); capture is off while the test runs, so the watchdog's stacks
    reach the terminal."""
    angles, draws = [], []
    real_angles, real_uniforms = engine._angles, RngStream.uniforms

    def recorded_angles(u):
        angles.append(threading.current_thread())
        return real_angles(u)

    def recorded_uniforms(stream, n):
        draws.append(threading.current_thread())
        return real_uniforms(stream, n)

    monkeypatch.setattr(engine, "_angles", recorded_angles)
    monkeypatch.setattr(RngStream, "uniforms", recorded_uniforms)
    with capfd.disabled():
        faulthandler.dump_traceback_later(HELPER_WATCHDOG_S, exit=True)
        try:
            yield SimpleNamespace(angles=angles, draws=draws)
        finally:
            faulthandler.cancel_dump_traceback_later()


def inline_output(cfg):
    """The output of `cfg` from a bare step loop over its whole horizon,
    the walk drawn inline on this thread."""
    world = init_world(cfg)
    for _ in range(cfg.horizon_ticks):
        step(world)
    return engine._output(world)


def assert_same_output(out, want):
    assert len(out.events.blocks) == len(want.events.blocks)
    for block, want_block in zip(out.events.blocks, want.events.blocks):
        for column, want_column in zip(block, want_block):
            assert column.dtype == want_column.dtype
            assert np.array_equal(column, want_column)
    assert np.array_equal(out.currently_infected, want.currently_infected)
    assert np.array_equal(out.cumulative_exposures, want.cumulative_exposures)
    assert all(np.array_equal(a, b) for a, b in zip(out.hits, want.hits))


@pytest.mark.parametrize("lockstep", [False, True])
def test_helper_changes_no_byte(walk_threads, ticks_stepped, lockstep):
    # The quiet_group worlds, one horizon-0 world among them, through
    # run_group (one at a time, or as one lockstep group) against a bare
    # step loop that walks every tick inline.
    main = threading.current_thread()
    group = quiet_group()
    outputs = (run_group(group) if lockstep
               else [run_group([cfg])[0] for cfg in group])
    helper_ticks = len(walk_threads.angles)
    assert main not in walk_threads.angles
    # The helper draws from no stream: every draw is this thread's.
    assert set(walk_threads.draws) == {main}
    for cfg, out in zip(group, outputs):
        assert_same_output(out, inline_output(cfg))
    assert set(walk_threads.angles[helper_ticks:]) == {main}
    # One tick ahead: each run_group call draws the ticks it walked, plus
    # one, also when it stopped before the horizon or had none.
    stepped = [ticks_stepped[id(cfg)] for cfg in group]
    if lockstep:
        assert helper_ticks == max(stepped) + 1
    else:
        assert helper_ticks == sum(n + 1 for n in stepped)
        assert any(n < cfg.horizon_ticks for cfg, n in zip(group, stepped))


def test_run_group_joins_its_helper(walk_threads):
    before = threading.enumerate()
    run_group(lockstep_group())
    assert threading.enumerate() == before
    assert walk_threads.angles and threading.current_thread() not in walk_threads.angles


def test_run_group_joins_its_helper_when_a_phase_raises(walk_threads, monkeypatch):
    real = engine.share_step

    def failing(world):
        if world.tick == 5:
            raise ArithmeticError("share phase failed at tick 5")
        return real(world)

    monkeypatch.setattr(engine, "share_step", failing)
    before = threading.enumerate()
    with pytest.raises(ArithmeticError, match="tick 5"):
        run_group([small_config()])
    assert threading.enumerate() == before
    # Ticks 0..5 were walked, and tick 6 drawn ahead.
    assert len(walk_threads.angles) == 7


def test_concurrent_run_groups_keep_their_bytes(walk_threads):
    # Every quiet_group world in a run_group call of its own, all at once:
    # six callers and their helpers switching every microsecond, each
    # helper working only for its own call.
    group = quiet_group()
    outputs = {}

    def run_one(i):
        outputs[i] = run_group([group[i]])[0]

    threads = [threading.Thread(target=run_one, args=(i,)) for i in range(len(group))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(HELPER_WATCHDOG_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert set(walk_threads.draws) == set(threads)
    assert set(walk_threads.angles).isdisjoint(threads)
    assert sorted(outputs) == list(range(len(group)))
    for i, cfg in enumerate(group):
        assert_same_output(outputs[i], inline_output(cfg))


# Makes the helper's fifth `_angles` call raise, then prints what run_group
# raised, whether any call ran on the main thread, and how many threads are
# left.
_FAILING_ANGLES = """
import threading
from memesim import engine
from memesim.engine import SimConfig, run_group
real, calls = engine._angles, []
def angles(u):
    calls.append(threading.current_thread() is threading.main_thread())
    if len(calls) == 5:
        raise FloatingPointError("walk angles failed")
    return real(u)
engine._angles = angles
try:
    run_group([SimConfig(population=40, recruits=4, horizon_ticks=30,
                         world_width=10.0, world_height=10.0)])
except FloatingPointError as exc:
    print(exc, any(calls), threading.active_count())
"""


def test_helper_error_is_raised_by_run_group():
    # In a child process, so that a helper that hangs ends in the timeout
    # rather than hanging the session.
    proc = run_python("-c", _FAILING_ANGLES, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "walk angles failed False 1\n"


def test_trajectory_groups_split_on_trajectory_fields_only():
    base = small_config()
    # Every trajectory field splits; the sharing model, radius, horizon,
    # recruiting and infection fields do not.
    configs = [base, replace(base, population=61), replace(base, step_size=1.5),
               replace(base, neighbor_radius=3.0, horizon_ticks=9),
               replace(base, world_width=21.0), replace(base, world_height=19.0),
               replace(base, master_seed=8), replace(base, population=61, recruits=3),
               replace(base, sharing_model=NEVER, infection_duration_ticks=2,
                       recruit_batch_size=2, reinfection_resets_timer=False),
               replace(base, step_size=1.5, perception_noise_sd=0.0)]
    assert trajectory_groups(configs) == [[0, 3, 8], [1, 7], [2, 9], [4], [5], [6]]
    assert trajectory_groups([]) == []


@pytest.mark.parametrize("field, value", [
    ("population", 61), ("world_width", 21.0), ("world_height", 19.0),
    ("step_size", 1.5), ("master_seed", 8),
])
def test_run_many_splits_mixed_trajectory_keys(field, value):
    # Members 0 and 2 share a trajectory and run as one group, first-seen
    # first; member 1 differs in one trajectory field and runs alone.
    base = small_config(horizon_ticks=12, sharing_model=ALWAYS)
    group = [base, replace(base, **{field: value}),
             replace(base, horizon_ticks=8, neighbor_radius=3.0)]
    pairs = list(run_many(group))
    assert [i for i, _ in pairs] == [0, 2, 1]
    for i, out in pairs:
        records = list(out.event_records())
        assert any(r.kind is EventKind.SHARE for r in records), group[i]
        assert records == list(run(group[i]).event_records()), group[i]


# ---------------------------------------------------------------------------
# Neighbor search
# ---------------------------------------------------------------------------

def test_grid_matches_bruteforce_on_random_configs():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = 120
        w = float(rng.uniform(15, 120))
        h = float(rng.uniform(15, 120))
        radius = float(rng.uniform(0.5, 0.45 * min(w, h)))
        xs = rng.uniform(0, w, n)
        ys = rng.uniform(0, h, n)
        got = grid_neighbor_sets(xs, ys, w, h, radius)
        want = neighbor_sets_bruteforce(xs, ys, w, h, radius)
        for g, b in zip(got, want):
            assert np.array_equal(g, b)


def test_grid_handles_radius_larger_than_world():
    rng = np.random.default_rng(18)
    xs = rng.uniform(0, 5, 40)
    ys = rng.uniform(0, 5, 40)
    got = grid_neighbor_sets(xs, ys, 5.0, 5.0, 30.0)
    for i, g in enumerate(got):
        assert np.array_equal(g, np.array([j for j in range(40) if j != i]))


def test_query_many_matches_bruteforce():
    rng = np.random.default_rng(23)
    for trial in range(40):
        n = int(rng.integers(1, 150))
        w, h = (float(v) for v in rng.uniform(4, 60, size=2))
        if trial % 2:
            # radius >= span / 2: fewer than three cells along an axis, so
            # the 3x3 neighborhood wraps onto repeated cells.
            radius = float(rng.uniform(0.5, 1.2) * max(w, h))
        else:
            radius = float(rng.uniform(0.3, 0.45 * min(w, h)))
        xs = rng.uniform(0, w, n)
        ys = rng.uniform(0, h, n)
        src, dst = rng.integers(0, n, size=(2, n // 4))
        xs[dst], ys[dst] = xs[src], ys[src]  # coincident points
        grid = UniformGrid(xs, ys, w, h, radius)
        if trial % 2:
            assert grid.ncx < 3 and grid.ncy < 3
        want = neighbor_sets_bruteforce(xs, ys, w, h, radius)

        ptr, ids = grid.query_many(xs, ys, np.arange(n))
        assert ptr[0] == 0 and ptr[-1] == len(ids)
        for i in range(n):
            assert np.array_equal(ids[ptr[i]:ptr[i + 1]], want[i])

        # Without exclusion a query point at an agent finds the agent too.
        sub = rng.integers(0, n, size=int(rng.integers(1, 10)))
        ptr, ids = grid.query_many(xs[sub], ys[sub], np.full(len(sub), -1))
        for row, i in enumerate(sub):
            assert np.array_equal(ids[ptr[row]:ptr[row + 1]],
                                  np.union1d(want[i], [i]))

        ptr, ids = grid.query_many(np.empty(0), np.empty(0), np.empty(0, dtype=np.int64))
        assert list(ptr) == [0] and len(ids) == 0


def test_query_many_matches_bruteforce_on_wide_cell_ids():
    # Over 65,536 cells, so the grid sorts 32-bit cell ids; the brute-force
    # scan runs for a sample of the agents only.
    rng = np.random.default_rng(29)
    n, w, h, radius = 70_000, 1000.0, 1000.0, 3.0
    xs = rng.uniform(0, w, n)
    ys = rng.uniform(0, h, n)
    grid = UniformGrid(xs, ys, w, h, radius)
    assert grid.ncx * grid.ncy > 2 ** 16
    sub = rng.choice(n, size=300, replace=False)
    ptr, ids = grid.query_many(xs[sub], ys[sub], sub)
    for row, i in enumerate(sub):
        dx = np.abs(xs - xs[i])
        dx = np.minimum(dx, w - dx)
        dy = np.abs(ys - ys[i])
        dy = np.minimum(dy, h - dy)
        want = np.flatnonzero(np.sqrt(dx * dx + dy * dy) <= radius)
        assert np.array_equal(ids[ptr[row]:ptr[row + 1]], want[want != i])
    assert ptr[-1] > 300  # about two neighbours per agent


def test_grid_tiny_radius_keeps_cell_count_bounded():
    # width // radius would be 50 million cells per axis.
    rng = np.random.default_rng(19)
    xs = rng.uniform(0, 50, 40)
    ys = rng.uniform(0, 50, 40)
    xs[1], ys[1] = xs[0] + 5e-7, ys[0]
    grid = UniformGrid(xs, ys, 50.0, 50.0, 1e-6)
    assert grid.ncx * grid.ncy <= 7 * 7
    got = grid_neighbor_sets(xs, ys, 50.0, 50.0, 1e-6)
    want = neighbor_sets_bruteforce(xs, ys, 50.0, 50.0, 1e-6)
    assert all(np.array_equal(g, b) for g, b in zip(got, want))
    assert list(got[0]) == [1]
    # Here width // radius is inf, which int() cannot take.
    grid = UniformGrid(xs, ys, 50.0, 50.0, 5e-324)
    assert grid.ncx * grid.ncy <= 7 * 7
    got = grid_neighbor_sets(xs, ys, 50.0, 50.0, 5e-324)
    assert all(len(g) == 0 for g in got)


def test_grid_query_excludes_self_but_not_coincident():
    xs = np.array([1.0, 1.0, 3.0])
    ys = np.array([1.0, 1.0, 1.0])
    grid = UniformGrid(xs, ys, 10.0, 10.0, 1.5)
    assert list(grid.query(1.0, 1.0, exclude_id=0)) == [1]


# Integer coordinates, so every distance below is exact: agents 0 and 1 are
# (3, 4) apart, 3 and 4 are (3, 4) apart across both seams of the torus, and
# 2 and 5 are (4, 4) from 0 and 3, just outside the radius.
EDGE_XS = np.array([20.0, 23.0, 16.0, 1.0, 38.0, 5.0])
EDGE_YS = np.array([20.0, 24.0, 16.0, 1.0, 37.0, 5.0])


def test_query_many_includes_agents_at_exactly_the_radius():
    grid = UniformGrid(EDGE_XS, EDGE_YS, 40.0, 40.0, 5.0)
    ptr, ids = grid.query_many(EDGE_XS, EDGE_YS, np.arange(6))
    got = [ids[ptr[i]:ptr[i + 1]].tolist() for i in range(6)]
    assert got == [[1], [0], [], [4], [3], []]


@pytest.mark.parametrize("pair", [[0, 1], [3, 4]], ids=["inside", "across-seam"])
def test_share_exposes_a_neighbor_at_exactly_the_radius(pair):
    cfg = SimConfig(population=2, recruits=1, memes_per_recruit=1,
                    horizon_ticks=1, world_width=40.0, world_height=40.0,
                    neighbor_radius=5.0, step_size=0.0, sharing_model=ALWAYS,
                    master_seed=3)
    world = init_world(cfg)
    world.traj.xs, world.traj.ys = EDGE_XS[pair], EDGE_YS[pair]
    step(world)
    creator = int(np.flatnonzero(world.recruited)[0])
    exposed = [r.agent_id for r in world_records(world) if r.kind is EventKind.EXPOSE]
    assert exposed == [1 - creator]


# ---------------------------------------------------------------------------
# Event log serialization
# ---------------------------------------------------------------------------

def test_event_log_fast_writer_matches_emit_line(tmp_path):
    # 200 agents emit about 42k events in 110 blocks, so the writer joins
    # blocks into chunks and ends a chunk inside a block.
    for population in (60, 200):
        out = run(small_config(population=population, horizon_ticks=60,
                               sharing_model=SharingModel(-2.0, 0.4, 0.4, 0.2)))
        path = tmp_path / f"events{population}.log"
        out.write_event_log(path)
        expected = "".join(emit_line(r) for r in out.event_records())
        assert path.read_bytes() == expected.encode("ascii")
    assert len(out.events) > 2 * logio._CHUNK_EVENTS
