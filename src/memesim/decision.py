"""The sharing model.

A logistic decision over perceived meme features that doubles as the
simulation's infection function: a pair with logit z shares with
probability sigmoid(z).  The paper's linear creator model of total hits is
fitted with `memesim fit --model ols`; it needs no type of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import InputError


@dataclass(frozen=True)
class SharingModel:
    """Logistic coefficients mapping perceived features to share probability."""

    intercept: float
    w_humor: float
    w_relevance: float
    w_selfref: float

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"sharing-model coefficient {name} must be finite")


# Calibration artifacts, not empirical estimates: chosen by parameter sweep
# so that default engine runs stay just below the epidemic threshold and
# produce a heavy-tailed per-meme hit distribution with median <= 2 (see
# README). Overridable in the run config.
DEFAULT_SHARING_MODEL = SharingModel(
    intercept=-6.0, w_humor=0.4, w_relevance=0.4, w_selfref=0.2
)


def sigmoid_array(z: np.ndarray) -> np.ndarray:
    """Numerically stable standard logistic, elementwise."""
    t = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + t), t / (1.0 + t))
