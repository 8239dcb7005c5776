"""Domain types, seeded random streams, the torus wrap and perception noise.

Everything random in this package flows through :class:`RngStream`, a
counter-based SplitMix64 generator with an explicitly documented transform
so that draw sequences are bit-reproducible across runs and platforms:

* raw 64-bit output ``i`` (1-based) of a stream with base state ``s`` is
  ``mix64((s + i * GAMMA) mod 2**64)`` where ``mix64`` is the SplitMix64
  finalizer and ``GAMMA = 0x9E3779B97F4A7C15``;
* the base state of substream ``salt`` of ``seed`` is
  ``mix64(seed ^ mix64((salt + GAMMA) mod 2**64))``;
* a uniform in ``[0, 1)`` is ``(raw >> 11) * 2.0**-53``;
* a standard normal consumes two raws ``(r1, r2)`` and returns
  ``sqrt(-2 * ln(1 - u1)) * cos(2 * pi * u2)`` (Box-Muller, cosine branch
  only; ``1 - u1`` keeps the log argument in ``(0, 1]``).

Raw output ``i`` depends only on the base state and ``i``, so ``k`` draws
of one value each and one draw of ``k`` values give identical sequences;
the engine takes each tick's draws of a stream in one call.  Every mix64
runs on ``uint64`` arrays, whose arithmetic wraps modulo 2**64.  All
floating-point transcendentals are evaluated by numpy, whose ``log1p``,
``exp``, ``cos`` and ``sin`` (here, in decision and in the engine) may round
according to the SIMD target it dispatches to.  A one-ulp difference there
can move a neighbour across the sharing radius or flip a share decision, and
so change ``events.log``: the goldens pin its bytes only per host, under the
default and a narrower dispatch on the host that runs the tests.

:class:`Helper` is the one second thread, owned for one call by
`engine.run_group`, `stats.logistic_fit` and `logio.read_columns`.  A job
gives what the calling thread would, reads no stream and calls no name that
a profiler wraps (a tracer that keeps one span stack would misbook it).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum, IntEnum

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
    """A runtime input (feature, probability, vector length) is invalid;
    `reason` is the token that starts the CLI's stderr line."""

    reason = "input-error"


# ---------------------------------------------------------------------------
# SplitMix64 core
# ---------------------------------------------------------------------------

def _mix64_u64(z: np.ndarray) -> np.ndarray:
    """Vectorized mix64 over a uint64 array (wrapping arithmetic)."""
    z = z ^ (z >> np.uint64(30))
    z *= np.uint64(_MULT1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MULT2)
    z ^= z >> np.uint64(31)
    return z


def _substream_seeds_u64(seeds: np.ndarray, salts: np.ndarray) -> np.ndarray:
    return _mix64_u64(seeds ^ _mix64_u64(salts + np.uint64(GAMMA)))


def substream_seed(seed: int, salt: int) -> int:
    """Derive an independent base state from (seed, salt).

    Both inputs go through mix64 so nearby seeds or salts land in
    unrelated parts of the state space.
    """
    seeds = np.array([seed & MASK64], dtype=np.uint64)
    salts = np.array([salt & MASK64], dtype=np.uint64)
    return int(_substream_seeds_u64(seeds, salts)[0])


def _raw_block(states, n: int) -> np.ndarray:
    """Raw outputs 1..n of the streams whose current base states are
    `states` (one int or a uint64 array), along a new last axis."""
    z = np.arange(1, n + 1, dtype=np.uint64)
    z *= np.uint64(GAMMA)
    return _mix64_u64(np.asarray(states, dtype=np.uint64)[..., None] + z)


def _to_uniform(raw: np.ndarray) -> np.ndarray:
    return (raw >> np.uint64(11)).astype(np.float64) * _U53


def _to_normal(raw_pairs: np.ndarray) -> np.ndarray:
    """Box-Muller cosine branch; raw_pairs has an even trailing dimension."""
    u1 = _to_uniform(raw_pairs[..., 0::2])
    u2 = _to_uniform(raw_pairs[..., 1::2])
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    return radius * np.cos((2.0 * np.pi) * u2)


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
    A :class:`Helper` draws from none; `engine.run_group`'s calling thread
    draws the walk a tick early and hands the helper the values.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int, stream_label: StreamLabel):
        self._state = substream_seed(seed, stream_label.value)

    def raw(self, n: int) -> np.ndarray:
        block = _raw_block(self._state, n)
        self._state = (self._state + n * GAMMA) & MASK64
        return block

    def uniforms(self, n: int) -> np.ndarray:
        return _to_uniform(self.raw(n))

    def normals(self, n: int) -> np.ndarray:
        return _to_normal(self.raw(2 * n))


class Helper:
    """A thread that runs jobs, in order, for the one call that owns it:
    `take()` returns the oldest untaken result of `submit(fn, *args)` or
    raises what that job raised.  Leaving its `with` block runs the queued
    jobs and joins the thread, so no fork or later call inherits it."""

    def __init__(self):
        from queue import SimpleQueue  # here, so `import memesim` does not pay
        self._jobs, self._results = SimpleQueue(), SimpleQueue()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while (job := self._jobs.get()) is not None:
            try:
                self._results.put((job[0](*job[1]), None))
            except BaseException as exc:  # raised again by take()
                self._results.put((None, exc))

    def submit(self, fn, *args):
        self._jobs.put((fn, args))

    def take(self):
        result, exc = self._results.get()
        if exc is not None:
            raise exc
        return result

    def both(self, fn, first, second):
        """(fn(*first) on the helper, fn(*second) here), run at once."""
        self.submit(fn, *first)
        result = fn(*second)
        return self.take(), result

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._jobs.put(None)
        self._thread.join()


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

class EventKind(IntEnum):
    """The six event types a simulation emits (and a log may contain).

    A member's value is its code in the kinds column of the column blocks
    of EventLog and logio, and its name is its log token: EventKind(code)
    decodes a column and EventKind.__members__.get(token) parses a token.
    Format a kind by .name; from Python 3.11 on, str() gives the integer.
    """

    RECRUIT = 0
    CREATE = 1
    SHARE = 2
    EXPOSE = 3
    INFECT = 4
    RECOVER = 5


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
    """Wrap coordinates into [0, span); requires span > 0.

    The result equals ``np.mod(arr, span)`` with a result of exactly `span`
    (the rounding of a tiny negative input) mapped to 0; only the sign of a
    zero may differ.  When every input lies in [-span, 2 * span), as after
    a step shorter than the span, one conditional add or subtract of the
    span gives those values: for x in [span, 2 * span) the difference
    x - span is exact (Sterbenz), and for x in [-span, 0) ``np.mod``
    returns fmod(x, span) + span = x + span, the same rounded sum.  Other
    inputs, NaN included, take the ``np.mod`` path.
    """
    w = np.array(arr, dtype=np.float64)
    if w.size and -span <= w.min() and w.max() < 2 * span:
        np.add(w, span, out=w, where=w < 0.0)
    else:
        np.mod(w, span, out=w)
    # Inputs in [span, 2 * span) and sums rounded up to exactly `span`.
    np.subtract(w, span, out=w, where=w >= span)
    return w


def perception_noise_batch(
    perception_seeds: np.ndarray, meme_ids: np.ndarray, noise_sd: float
) -> np.ndarray:
    """How agents perceive memes: one noise row per (agent, meme) pair.

    Row i is N(0, noise_sd^2) noise on the three features (humor,
    self_relevance, self_reference), keyed by (perception_seeds[i],
    meme_ids[i]): the same agent always perceives the same meme
    identically, and different agents disagree.
    """
    keys = _substream_seeds_u64(
        perception_seeds.astype(np.uint64), meme_ids.astype(np.uint64)
    )
    return _to_normal(_raw_block(keys, 6)) * noise_sd
