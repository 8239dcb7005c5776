"""Domain types, seeded random streams, the torus wrap and perception noise.

Everything random in this package flows through :class:`RngStream`, a
counter-based SplitMix64 generator with an explicitly documented transform
so that draw sequences are bit-reproducible across runs and platforms:

* raw 64-bit output ``i`` (1-based) of a stream with base state ``s`` is
  ``mix64(s + i * GAMMA) mod 2**64`` where ``mix64`` is the SplitMix64
  finalizer and ``GAMMA = 0x9E3779B97F4A7C15``;
* a uniform in ``[0, 1)`` is ``(raw >> 11) * 2.0**-53``;
* a standard normal consumes two raws ``(r1, r2)`` and returns
  ``sqrt(-2 * ln(1 - u1)) * cos(2 * pi * u2)`` (Box-Muller, cosine branch
  only; ``1 - u1`` keeps the log argument in ``(0, 1]``).

Scalar draws delegate to the vectorized numpy path, so drawing one value
at a time or in batches yields identical sequences.  All floating-point
transcendentals are evaluated by numpy; on any platform with IEEE-754
doubles the streams agree bit-for-bit up to libm rounding of ``log``/
``cos``, which the determinism tests pin down for the host.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D4A2C62D02B969
_U53 = 2.0 ** -53


class ConfigurationError(ValueError):
    """A parameter or dimension violates a documented precondition."""

    def __init__(self, message, fields=()):
        super().__init__(message)
        self.fields = tuple(fields)


class InputError(ValueError):
    """A runtime input (feature, probability, vector length) is invalid."""


# ---------------------------------------------------------------------------
# SplitMix64 core
# ---------------------------------------------------------------------------

def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer (pure-Python reference)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MULT1) & MASK64
    z = ((z ^ (z >> 27)) * _MULT2) & MASK64
    return z ^ (z >> 31)


def _mix64_u64(z: np.ndarray) -> np.ndarray:
    """Vectorized mix64 over a uint64 array (wrapping arithmetic)."""
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(_MULT1)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(_MULT2)
    return z ^ (z >> np.uint64(31))


def substream_seed(seed: int, salt: int) -> int:
    """Derive an independent base state from (seed, salt).

    Both inputs go through mix64 so nearby seeds or salts land in
    unrelated parts of the state space.
    """
    return mix64((seed ^ mix64((salt + GAMMA) & MASK64)) & MASK64)


def _substream_seeds_u64(seeds: np.ndarray, salts: np.ndarray) -> np.ndarray:
    return _mix64_u64(seeds ^ _mix64_u64(salts + np.uint64(GAMMA & MASK64)))


def _raw_block(state: int, n: int) -> np.ndarray:
    """Raw outputs 1..n of the stream whose current base state is `state`."""
    idx = np.arange(1, n + 1, dtype=np.uint64)
    return _mix64_u64(idx * np.uint64(GAMMA) + np.uint64(state & MASK64))


def _to_uniform(raw: np.ndarray) -> np.ndarray:
    return (raw >> np.uint64(11)).astype(np.float64) * _U53


def _to_normal(raw_pairs: np.ndarray) -> np.ndarray:
    """Box-Muller cosine branch; raw_pairs has an even trailing dimension."""
    u1 = _to_uniform(raw_pairs[..., 0::2])
    u2 = _to_uniform(raw_pairs[..., 1::2])
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    return radius * np.cos((2.0 * np.pi) * u2)


def _keyed_normals_batch(states: np.ndarray, count: int) -> np.ndarray:
    """Row i holds the first `count` normals of the substream with base state
    states[i]; shape (len(states), count).  Stateless: the same keys always
    give the same rows."""
    idx = np.arange(1, 2 * count + 1, dtype=np.uint64)
    raws = _mix64_u64(states[:, None] + idx[None, :] * np.uint64(GAMMA))
    return _to_normal(raws)


class StreamLabel(Enum):
    """Purpose tags for the named random streams of a simulation run."""

    PLACEMENT = 0
    WALK = 1
    MEME_CONTENT = 2
    DECISIONS = 3
    PERCEPTION = 4


class RngStream:
    """One named, seeded draw sequence.

    Not shareable between concurrent callers: each thread owns its stream.
    """

    __slots__ = ("seed", "stream_label", "_state")

    def __init__(self, seed: int, stream_label: StreamLabel):
        self.seed = seed & MASK64
        self.stream_label = stream_label
        self._state = substream_seed(self.seed, stream_label.value)

    def raw(self, n: int) -> np.ndarray:
        block = _raw_block(self._state, n)
        self._state = (self._state + n * GAMMA) & MASK64
        return block

    def uniforms(self, n: int) -> np.ndarray:
        return _to_uniform(self.raw(n))

    def uniform(self) -> float:
        return float(self.uniforms(1)[0])

    def normals(self, n: int) -> np.ndarray:
        return _to_normal(self.raw(2 * n))

    def normal(self) -> float:
        return float(self.normals(1)[0])

    def randbelow(self, n: int) -> int:
        """Uniform index in [0, n) via floor(u * n); bias is below n * 2**-53."""
        if n <= 0:
            raise InputError(f"randbelow requires n >= 1, got {n}")
        return min(int(self.uniform() * n), n - 1)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

class EventKind(Enum):
    """The six event types a simulation emits (and a log may contain)."""

    RECRUIT = "RECRUIT"
    CREATE = "CREATE"
    SHARE = "SHARE"
    EXPOSE = "EXPOSE"
    INFECT = "INFECT"
    RECOVER = "RECOVER"


@dataclass(frozen=True)
class EventRecord:
    """One timestamped event; meme_id is None only for RECRUIT."""

    tick: int
    kind: EventKind
    agent_id: int
    meme_id: int | None = None


# ---------------------------------------------------------------------------
# Torus wrap and perception noise
# ---------------------------------------------------------------------------

def wrap_coords(arr: np.ndarray, span: float) -> np.ndarray:
    """Wrap coordinates into [0, span); requires span > 0."""
    w = np.mod(arr, span)
    # Float modulo can round up to exactly `span` for tiny negative inputs.
    return np.where(w >= span, w - span, w)


def perception_noise_batch(
    perception_seeds: np.ndarray, meme_ids: np.ndarray, noise_sd: float
) -> np.ndarray:
    """How agents perceive memes: one noise row per (agent, meme) pair.

    Row i is N(0, noise_sd^2) noise on the three features (humor,
    self_relevance, self_reference), keyed by (perception_seeds[i],
    meme_ids[i]): the same agent always perceives the same meme
    identically, and different agents disagree.
    """
    if noise_sd == 0.0:
        return np.zeros((len(perception_seeds), 3))
    keys = _substream_seeds_u64(
        perception_seeds.astype(np.uint64), meme_ids.astype(np.uint64)
    )
    return _keyed_normals_batch(keys, 3) * noise_sd
