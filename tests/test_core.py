"""Core layer: random streams, the torus wrap, perception noise."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    keyed_normals,
    mix64,
    normal,
    perceive_features,
    torus_distance,
    uniform,
    wrap_mod,
    wrap_scalar,
)
from memesim.core import (
    GAMMA,
    MASK64,
    RngStream,
    StreamLabel,
    perception_noise_batch,
    substream_seed,
    wrap_coords,
    _keyed_normals_batch,
    _mix64_u64,
    _substream_seeds_u64,
)
from memesim.engine import SimConfig, init_world, recruit_step


# ---------------------------------------------------------------------------
# SplitMix64 internals
# ---------------------------------------------------------------------------

def test_mix64_python_matches_numpy():
    values = [0, 1, 42, 2**63, 2**64 - 1, 0xDEADBEEF12345678]
    arr = _mix64_u64(np.array(values, dtype=np.uint64))
    for v, out in zip(values, arr):
        assert mix64(v) == int(out)


def test_substream_seed_python_matches_numpy():
    seeds = np.array([3, 99, 2**60], dtype=np.uint64)
    salts = np.array([0, 7, 123456], dtype=np.uint64)
    arr = _substream_seeds_u64(seeds, salts)
    for s, t, out in zip(seeds, salts, arr):
        assert substream_seed(int(s), int(t)) == int(out)
        assert mix64(int(s) ^ mix64(int(t) + GAMMA)) == int(out)
    # Inputs outside [0, 2**64) are taken modulo 2**64.
    for s, t in ((-3, 5), (2**64 + 9, 2**64 - 1), (7, -1)):
        assert (substream_seed(s, t)
                == mix64((s & MASK64) ^ mix64(((t & MASK64) + GAMMA) & MASK64)))


def test_streams_with_different_labels_differ():
    a = RngStream(5, StreamLabel.PLACEMENT).uniforms(8)
    b = RngStream(5, StreamLabel.WALK).uniforms(8)
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Normal draws
# ---------------------------------------------------------------------------

def test_normal_determinism_same_seed():
    a = RngStream(123, StreamLabel.MEME_CONTENT)
    b = RngStream(123, StreamLabel.MEME_CONTENT)
    first = [normal(a), normal(a)]
    second = [normal(b), normal(b)]
    assert first == second


def test_scalar_draws_equal_batched_draws():
    batched = RngStream(9, StreamLabel.DECISIONS).normals(64)
    stream = RngStream(9, StreamLabel.DECISIONS)
    scalars = np.array([normal(stream) for _ in range(64)])
    assert np.array_equal(batched, scalars)

    batched_u = RngStream(9, StreamLabel.DECISIONS).uniforms(64)
    stream = RngStream(9, StreamLabel.DECISIONS)
    scalars_u = np.array([uniform(stream) for _ in range(64)])
    assert np.array_equal(batched_u, scalars_u)


def test_normal_mean_and_variance():
    z = RngStream(2024, StreamLabel.MEME_CONTENT).normals(100_000)
    assert abs(z.mean()) < 0.02          # 3-sigma bound is ~0.0095
    assert abs(z.var() - 1.0) < 0.03     # 3-sigma bound is ~0.0134


def test_normal_shape_sanity_at_1e6():
    z = RngStream(77, StreamLabel.MEME_CONTENT).normals(1_000_000)
    m = z.mean()
    sd = z.std()
    skew = float(np.mean(((z - m) / sd) ** 3))
    kurt = float(np.mean(((z - m) / sd) ** 4) - 3.0)
    assert abs(skew) < 0.05
    assert abs(kurt) < 0.1


def test_uniforms_in_unit_interval():
    u = RngStream(1, StreamLabel.PLACEMENT).uniforms(10_000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)


# ---------------------------------------------------------------------------
# Meme content
# ---------------------------------------------------------------------------

def test_meme_vector_shape_and_determinism():
    # Recruits write fresh meme-content normals straight into meme_latents,
    # one row of three draws per meme in creation order: the batch of a
    # tick equals one draw per meme.
    cfg = SimConfig(population=40, recruits=4, memes_per_recruit=2,
                    recruit_batch_size=4, master_seed=4)
    world = recruit_step(init_world(cfg))
    assert world.meme_count == 8 and world.meme_latents.shape == (8, 3)
    stream = RngStream(4, StreamLabel.MEME_CONTENT)
    expected = np.array([stream.normals(3) for _ in range(8)])
    assert np.array_equal(world.meme_latents, expected)
    again = recruit_step(init_world(cfg))
    assert np.array_equal(world.meme_latents, again.meme_latents)


def test_meme_component_means():
    comps = RngStream(31337, StreamLabel.MEME_CONTENT).normals(3 * 10_000).reshape(-1, 3)
    assert np.all(np.abs(comps.mean(axis=0)) < 0.05)  # SE is 0.01 per axis


# ---------------------------------------------------------------------------
# Torus geometry
# ---------------------------------------------------------------------------

def _displace(x, dx, span):
    return float(wrap_coords(np.array([x + dx]), span)[0])


def test_displace_identity():
    assert _displace(10.0, 0.0, 200.0) == 10.0


def test_displace_wraps_forward():
    assert _displace(199.5, 1.0, 200.0) == pytest.approx(0.5)


def test_displace_wraps_backward():
    assert _displace(0.0, -0.5, 200.0) == pytest.approx(199.5)


def test_distance_identity_and_symmetry():
    p, q = (3.25, 7.5), (190.0, 199.0)
    assert torus_distance(p, p, 200, 200) == 0.0
    assert torus_distance(p, q, 200, 200) == torus_distance(q, p, 200, 200)


def test_distance_wraps():
    assert torus_distance((1, 0), (199, 0), 200, 200) == pytest.approx(2.0)


def test_distance_diagonal():
    d = torus_distance((0, 0), (100, 100), 200, 200)
    assert d == pytest.approx(141.4213562373095, abs=1e-12)  # 100 * sqrt(2)


@settings(max_examples=300, deadline=None)
@given(
    x=st.floats(0, 199.999), y=st.floats(0, 149.999),
    dx=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    dy=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
def test_displace_always_in_bounds(x, y, dx, dy):
    assert 0.0 <= _displace(x, dx, 200.0) < 200.0
    assert 0.0 <= _displace(y, dy, 150.0) < 150.0


@settings(max_examples=200, deadline=None)
@given(
    px=st.floats(0, 199.999), py=st.floats(0, 149.999),
    qx=st.floats(0, 199.999), qy=st.floats(0, 149.999),
)
def test_distance_symmetric_and_bounded(px, py, qx, qy):
    p, q = (px, py), (qx, qy)
    d = torus_distance(p, q, 200.0, 150.0)
    assert d == torus_distance(q, p, 200.0, 150.0)
    assert d <= 200.0 / np.sqrt(2) + 150.0 / np.sqrt(2)


def test_triangle_inequality_random_points():
    rng = np.random.default_rng(5)
    for _ in range(200):
        pts = rng.uniform(0, 200, size=(3, 2))
        d01 = torus_distance(pts[0], pts[1], 200, 200)
        d12 = torus_distance(pts[1], pts[2], 200, 200)
        d02 = torus_distance(pts[0], pts[2], 200, 200)
        assert d02 <= d01 + d12 + 1e-9


def test_wrap_coords_matches_scalar_path():
    rng = np.random.default_rng(11)
    vals = np.concatenate([rng.uniform(-500, 500, 1000), [-1e-18, 0.0, 200.0, -200.0]])
    vec = wrap_coords(vals, 200.0)
    for v, w in zip(vals, vec):
        assert wrap_scalar(float(v), 200.0) == w
    assert np.all(vec >= 0.0) and np.all(vec < 200.0)


def _near_edges(span):
    """0, span, -span and 2 * span, each with its neighbours one ULP away."""
    edges = np.array([0.0, span, -span, 2 * span])
    return np.concatenate([edges, np.nextafter(edges, -np.inf),
                           np.nextafter(edges, np.inf)])


@settings(max_examples=500, deadline=None)
@given(
    span=st.one_of(st.floats(5e-324, 1e-300), st.floats(1e-300, 1e300),
                   st.floats(1e300, 8e307)),
    fractions=st.lists(st.floats(-1.0, 2.0), max_size=20),
    edges=st.booleans(),
    far=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=2),
)
def test_wrap_coords_matches_mod_oracle(span, fractions, edges, far):
    # Inputs in [-span, 2 * span) take the conditional add/subtract path and
    # any other input sends the whole array down the np.mod path; both give
    # the oracle's values (== ignores only the sign of a zero).
    vals = np.array(fractions, dtype=np.float64) * span
    if edges:
        vals = np.concatenate([vals, _near_edges(span)])
    vals = np.concatenate([vals, far])
    got = wrap_coords(vals, span)
    assert np.array_equal(got, wrap_mod(vals, span))
    assert np.all(got >= 0.0) and np.all(got < span)


def test_wrap_coords_edge_cases():
    span = 200.0
    below = np.nextafter(0.0, -1.0)
    # A tiny negative input rounds up to exactly `span`, which maps to 0.
    assert wrap_coords(np.array([below, -1e-18]), span).tolist() == [0.0, 0.0]
    top = np.nextafter(2 * span, 0.0)
    assert wrap_coords(np.array([-span, top]), span).tolist() == [0.0, top - span]
    vals = np.array([np.nan, np.inf, 1.0])
    with np.errstate(invalid="ignore"):
        assert np.array_equal(wrap_coords(vals, span), wrap_mod(vals, span),
                              equal_nan=True)
    assert wrap_coords(np.empty(0), span).shape == (0,)
    # The input array is never written.
    vals = np.array([-1.0, 250.0])
    wrap_coords(vals, span)
    assert vals.tolist() == [-1.0, 250.0]


# ---------------------------------------------------------------------------
# Perception
# ---------------------------------------------------------------------------

def test_perceive_zero_noise_is_identity():
    seeds = np.array([99, 7], dtype=np.uint64)
    assert np.array_equal(perception_noise_batch(seeds, np.array([0, 3]), 0.0),
                          np.zeros((2, 3)))


def test_perceive_deterministic_per_agent_meme():
    seeds = np.array([7, 7, 8], dtype=np.uint64)
    noise = perception_noise_batch(seeds, np.array([3, 3, 3]), 0.5)
    assert np.array_equal(noise[0], noise[1])
    assert not np.array_equal(noise[0], noise[2])  # another agent disagrees


def test_perception_noise_sd():
    # Sample SD of (perceived - latent) over 10k pairs; chi-square bound
    # gives +/- 3 * 0.5 / sqrt(2 * 30000) ~ 0.0061; assert the looser 0.02.
    meme_ids = np.arange(10_000, dtype=np.int64)
    seeds = RngStream(55, StreamLabel.PERCEPTION).raw(10_000)
    noise = perception_noise_batch(seeds, meme_ids, 0.5)
    assert abs(noise.std() - 0.5) < 0.02


def test_perception_batch_matches_scalar():
    meme_id, components = 41, (0.4, -0.2, 1.1)
    seeds = np.array([123456789, 987654321], dtype=np.uint64)
    batch = perception_noise_batch(seeds, np.array([meme_id, meme_id]), 0.5)
    for row, seed in zip(batch, seeds):
        scalar_noise = keyed_normals(substream_seed(int(seed), meme_id), 3) * 0.5
        assert np.array_equal(row, scalar_noise)
        f = perceive_features(int(seed), meme_id, components, 0.5)
        assert f == tuple(float(c + n) for c, n in zip(components, scalar_noise))


def test_keyed_normals_stateless():
    keys = np.array([substream_seed(42, 7)] * 2, dtype=np.uint64)
    rows = _keyed_normals_batch(keys, 3)
    assert np.array_equal(rows[0], rows[1])
    assert np.array_equal(rows, _keyed_normals_batch(keys, 3))
